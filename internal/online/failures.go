package online

// Failure injection for the online scenario: a seeded schedule of link/VM
// failures (and restores) interleaved with the arrival stream. Events fire
// before the arrival of their step; every failure triggers a recovery
// sweep through the session (sof.Solver.RepairAll). The capacitated
// session repairs each damaged forest through the same ledger path as the
// dynamic operations: under its lock, the forest's lease is released while
// the repair runs and charged for whatever shape it leaves, so repaired
// routes are priced like any other traffic.

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"time"

	"sof"
	"sof/internal/graph"
	"sof/internal/topology"
)

// FailureEvent is one scheduled element failure or restore. Exactly one of
// Link and VM identifies the element: Link when Link != graph.NoEdge, VM
// otherwise.
type FailureEvent struct {
	// Step is the 1-based arrival step before which the event fires;
	// events at step 1 hit the unloaded network.
	Step    int
	Restore bool
	Link    graph.EdgeID
	VM      graph.NodeID
}

// FailureConfig parameterizes a seeded failure schedule.
type FailureConfig struct {
	// Events is the number of failure injections.
	Events int
	// VMShare is the fraction of events that hit a VM instead of a link.
	VMShare float64
	// Downtime is the number of steps after which a failed element is
	// restored; 0 means failures are permanent for the run.
	Downtime int
	Seed     int64
}

// FailureSchedule draws a seeded schedule of cfg.Events failures over a
// run of the given number of steps, each paired with a restore Downtime
// steps later when configured. The result is sorted by step with failures
// before restores within a step, so replays are deterministic.
func FailureSchedule(net *topology.Network, steps int, cfg FailureConfig) []FailureEvent {
	rng := rand.New(rand.NewSource(cfg.Seed))
	events := make([]FailureEvent, 0, 2*cfg.Events)
	for i := 0; i < cfg.Events; i++ {
		ev := FailureEvent{Step: 1 + rng.Intn(steps), Link: graph.NoEdge, VM: graph.None}
		if rng.Float64() < cfg.VMShare && len(net.VMs) > 0 {
			ev.VM = net.VMs[rng.Intn(len(net.VMs))]
		} else {
			ev.Link = graph.EdgeID(rng.Intn(net.G.NumEdges()))
		}
		events = append(events, ev)
		if cfg.Downtime > 0 {
			r := ev
			r.Step += cfg.Downtime
			r.Restore = true
			events = append(events, r)
		}
	}
	sortFailureEvents(events)
	return events
}

// sortFailureEvents orders a schedule for replay: by step, failures before
// restores within one step (so a fail+restore pair landing together still
// exercises the failure).
func sortFailureEvents(events []FailureEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Step != events[j].Step {
			return events[i].Step < events[j].Step
		}
		return !events[i].Restore && events[j].Restore
	})
}

// SetFailureSchedule installs a failure schedule on the simulator. The
// session sweeps every live forest, those accepted before the call
// included. Events whose step has already passed fire on the next one.
func (s *Simulator) SetFailureSchedule(events []FailureEvent) {
	evs := append([]FailureEvent(nil), events...)
	sortFailureEvents(evs)
	s.failures = evs
	s.nextFail = 0
}

// CompareScratchCost makes every recovery sweep additionally re-embed each
// damaged forest's request from scratch on a one-shot session and record
// the resulting cost next to the repaired forest's (RecoveryStats
// ScratchCost / RepairedCost). Diagnostic only — the scratch forests are
// discarded and carry no load.
func (s *Simulator) CompareScratchCost(on bool) { s.compareScratch = on }

// RecoveryStats accumulates the failure/recovery counters of a run.
type RecoveryStats struct {
	// Failures and Restores count schedule events applied (no-ops — e.g.
	// re-failing a failed link — excluded).
	Failures int
	Restores int
	// Sweeps counts recovery passes that found at least one damaged
	// forest; ForestsTouched sums their blast radii.
	Sweeps         int
	ForestsTouched int
	// Orphans counts severed destinations across all sweeps; each one is
	// Reattached (FastPath by graft, the rest by re-embed) or
	// Unrecoverable, never dropped.
	Orphans       int
	Reattached    int
	FastPath      int
	Reembeds      int
	Unrecoverable int
	// RepairCost sums the cost deltas recovery paid (repaired cost minus
	// pre-failure cost, per damaged forest).
	RepairCost float64
	// RepairedCost and ScratchCost compare, per damaged forest, the cost
	// after repair against a from-scratch re-embed of the same request
	// (only filled under CompareScratchCost).
	RepairedCost float64
	ScratchCost  float64
	// Latencies holds one wall-clock recovery duration per sweep.
	Latencies []time.Duration
}

// FastPathRate returns the fraction of re-attached destinations recovered
// by grafting rather than re-embedding (0 when nothing was re-attached).
func (st *RecoveryStats) FastPathRate() float64 {
	if st.Reattached == 0 {
		return 0
	}
	return float64(st.FastPath) / float64(st.Reattached)
}

// LatencyP99 returns the 99th-percentile recovery latency (0 without
// sweeps).
func (st *RecoveryStats) LatencyP99() time.Duration { return p99(st.Latencies) }

// Recovery exposes the run's failure/recovery counters.
func (s *Simulator) Recovery() *RecoveryStats { return &s.recovery }

// fireFailures applies every schedule event due before the upcoming
// arrival (step s.step+1) and, if any failure landed, runs a recovery
// sweep with load re-accounting.
func (s *Simulator) fireFailures(ctx context.Context) error {
	failed := false
	for s.nextFail < len(s.failures) && s.failures[s.nextFail].Step <= s.step+1 {
		ev := s.failures[s.nextFail]
		s.nextFail++
		var changed bool
		switch {
		case ev.Restore && ev.Link != graph.NoEdge:
			changed = s.solver.RestoreLink(ev.Link)
		case ev.Restore:
			changed = s.solver.RestoreVM(ev.VM)
		case ev.Link != graph.NoEdge:
			changed = s.solver.FailLink(ev.Link)
		default:
			changed = s.solver.FailVM(ev.VM)
		}
		if !changed {
			continue
		}
		if ev.Restore {
			s.recovery.Restores++
		} else {
			s.recovery.Failures++
			failed = true
		}
	}
	if !failed {
		return nil
	}
	return s.recoverNow(ctx)
}

// recoverNow sweeps the session. The capacitated Solver re-accounts the
// load itself — each damaged forest is reshaped under the session's lock,
// its lease released while the repair runs and charged for the shape it
// leaves — so the simulator only gathers counters and re-prices
// afterwards, letting post-repair pricing see the recovered routes. A
// sweep that finds no damaged forest counts for nothing.
func (s *Simulator) recoverNow(ctx context.Context) error {
	start := time.Now()
	rep, err := s.solver.RepairAll(ctx)
	if err != nil && !errors.Is(err, sof.ErrUnrecoverable) {
		return err
	}
	if rep.ForestsTouched == 0 {
		return nil
	}
	s.recovery.Latencies = append(s.recovery.Latencies, time.Since(start))
	s.recovery.Sweeps++
	s.recovery.ForestsTouched += rep.ForestsTouched
	s.recovery.Reattached += rep.Reattached
	s.recovery.FastPath += rep.FastPath
	s.recovery.Reembeds += rep.Reembeds
	s.recovery.RepairCost += rep.CostDelta
	for _, fr := range rep.Forests {
		s.recovery.Orphans += fr.Orphans
		s.recovery.Unrecoverable += len(fr.Failed)
	}
	if s.compareScratch {
		for _, fr := range rep.Forests {
			s.recovery.RepairedCost += fr.Forest.TotalCost()
			scratch := sof.NewSolver(s.solver.Network(), sof.WithAlgorithm(s.algo))
			if nf, err := scratch.Embed(ctx, fr.Forest.Request()); err == nil {
				s.recovery.ScratchCost += nf.TotalCost()
			}
		}
	}
	s.solver.Reprice()
	return nil
}
