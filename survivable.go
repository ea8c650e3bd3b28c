package sof

// Survivable embedding sessions: failure injection on the session's
// network, damage inspection, and a recovery sweep over the live forests.
//
// Failures are state on the network (copy-on-write snapshots in the graph
// layer), so injecting one is O(1) and bumps the cost epoch — every
// session cache over the network invalidates lazily, exactly as a cost
// change would. Recovery is two-tier: a fast path grafts each severed
// destination back at its cheapest live join point, through the same graft
// search as Join, and forests the fast path cannot fix are re-embedded
// from scratch through the owning session. Destinations for which no
// repair exists are surfaced with ErrUnrecoverable, never silently
// dropped. Both tiers reshape a forest through the ledger, as the dynamic
// operations do (lease.go): on a capacitated session its lease is released
// while they run and charged for the shape they leave.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"sof/internal/core"
)

// ErrUnrecoverable is wrapped into every per-destination error of a
// recovery sweep for which no repair exists: the destination node itself
// failed, or neither a graft nor a full re-embed can serve it under the
// current failure state. Callers test with errors.Is.
var ErrUnrecoverable = errors.New("sof: destination unrecoverable")

// WithRecovery enables forest tracking on the session: every forest the
// session commits stays in its ledger (until Release, Leave or expiry) so
// FailLink/FailVM impact queries and RepairAll can sweep them. Off by
// default — an untracked session never retains forests, so long request
// streams that drop their results do not leak.
func WithRecovery() Option {
	return func(s *Solver) { s.recovery = true }
}

// Release stops RepairAll from sweeping the forest; the forest itself
// stays usable. On a capacitated session its lease, and the load the
// lease holds, stay until Leave or expiry. Releasing a forest twice, after
// its lease ended, or on a session that tracks nothing is a no-op.
func (f *Forest) Release() {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[f.id]; ok {
		e.swept = false
		if s.capacity == nil { // no lease left to hold the entry
			delete(s.entries, f.id)
		}
	}
}

// LiveForests returns the forests RepairAll sweeps, in commit order: on a
// session built WithRecovery, every forest it committed that has not been
// released, departed or expired.
func (s *Solver) LiveForests() []*Forest {
	s.mu.Lock()
	out := make([]*Forest, 0, len(s.entries))
	for _, e := range s.entries {
		if e.swept {
			out = append(out, e.forest)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// FailLink marks link e failed. The link is not removed: traversals treat
// it as infinitely expensive, restore is O(1), and the cost epoch advances
// so session caches invalidate lazily. Reports whether the state changed
// (failing a failed link is a no-op).
func (s *Solver) FailLink(e EdgeID) bool { return s.net.g.FailEdge(e) }

// FailVM marks VM v failed: no traversal enters it and no VNF may be
// placed or kept on it. Reports whether the state changed; a node outside
// the network or not a VM is rejected (use FailLink for links — switch
// failures are modeled by failing their links).
func (s *Solver) FailVM(v NodeID) bool {
	if !s.net.g.Valid(v) || !s.net.g.IsVM(v) {
		return false
	}
	return s.net.g.FailNode(v)
}

// RestoreLink clears a link failure; reports whether the state changed.
func (s *Solver) RestoreLink(e EdgeID) bool { return s.net.g.RestoreEdge(e) }

// RestoreVM clears a VM failure; reports whether the state changed.
func (s *Solver) RestoreVM(v NodeID) bool { return s.net.g.RestoreNode(v) }

// RestoreAllFailures clears every failed element at once, returning how
// many links and VMs were restored.
func (s *Solver) RestoreAllFailures() (links, vms int) { return s.net.g.RestoreAll() }

// Damage summarizes the effect of the current failure state on one forest.
type Damage struct {
	// Orphans lists the severed destinations, sorted.
	Orphans []NodeID
	// LostVNFs counts VNF instances stranded in severed subtrees.
	LostVNFs int
}

// Broken reports whether any destination is severed.
func (d Damage) Broken() bool { return len(d.Orphans) > 0 }

// Damage reports which of the forest's destinations the current failure
// state severs. Read-only: the forest is not modified.
func (f *Forest) Damage() Damage {
	d := f.shape().Damage()
	return Damage{Orphans: d.Orphans, LostVNFs: d.LostVNFs}
}

// DestFailure records one destination a recovery sweep could not restore;
// Err wraps ErrUnrecoverable.
type DestFailure struct {
	Dest NodeID
	Err  error
}

// ForestRecovery is the per-forest outcome of a RepairAll sweep. The
// accounting identity Orphans == Reattached + len(Failed) always holds: a
// severed destination is restored or surfaced, never dropped.
type ForestRecovery struct {
	Forest *Forest
	// Orphans is how many destinations the failure severed.
	Orphans int
	// Reattached counts destinations restored by any tier; FastPath of
	// them by grafting, the rest by a full re-embed.
	Reattached int
	FastPath   int
	// Reembedded is true when the fast path was insufficient and the
	// forest was re-embedded from scratch through the session.
	Reembedded bool
	// CostDelta is the forest's cost after recovery minus before the
	// failure.
	CostDelta float64
	// Failed lists the destinations that remain unserved.
	Failed []DestFailure
}

// RecoveryReport aggregates one RepairAll sweep.
type RecoveryReport struct {
	// ForestsTouched is the blast radius: tracked forests with damage.
	ForestsTouched int
	// Forests holds the per-forest outcomes, in embedding order,
	// damaged forests only.
	Forests []ForestRecovery
	// Reattached, FastPath, Reembeds and CostDelta aggregate the
	// per-forest outcomes.
	Reattached int
	FastPath   int
	Reembeds   int
	CostDelta  float64
}

// Unrecoverable flattens the per-forest failures.
func (r *RecoveryReport) Unrecoverable() []DestFailure {
	var out []DestFailure
	for _, fr := range r.Forests {
		out = append(out, fr.Failed...)
	}
	return out
}

// RepairAll sweeps every tracked forest (in embedding order) and repairs
// the damage the current failure state inflicts. Per forest: severed
// subtrees are detached (freeing their VMs), each orphaned destination is
// re-attached at its cheapest live join point by Join's graft search, at
// current costs and around failed and saturated elements, and if orphans
// remain the whole forest is re-embedded from scratch through the
// session. Destinations that still cannot be served are reported per
// forest with errors wrapping ErrUnrecoverable, and the sweep error joins
// them; forests keep serving every destination that survived or was
// restored either way.
//
// Each damaged forest is repaired inside one critical section of the
// session's lock: on a capacitated session its lease is released, both
// tiers run, and the lease charges the repaired footprint, with no
// capacity check (a detour that overshoots is masked, not refused). Embeds'
// commits, Leave, AdvanceTime and dynamic operations on other goroutines
// wait for that forest's repair. The sweep stops early with ctx.Err() if
// ctx is cancelled between forests.
func (s *Solver) RepairAll(ctx context.Context) (*RecoveryReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	report := &RecoveryReport{}
	var sweepErrs []error
	for _, f := range s.LiveForests() {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		fr, err := s.repairForest(ctx, f)
		if err != nil {
			return report, err
		}
		if fr == nil {
			continue // undamaged
		}
		report.ForestsTouched++
		report.Forests = append(report.Forests, *fr)
		report.Reattached += fr.Reattached
		report.FastPath += fr.FastPath
		if fr.Reembedded {
			report.Reembeds++
		}
		report.CostDelta += fr.CostDelta
		for _, df := range fr.Failed {
			sweepErrs = append(sweepErrs, fmt.Errorf("forest dest %d: %w", df.Dest, df.Err))
		}
	}
	return report, errors.Join(sweepErrs...)
}

// repairForest recovers one forest; nil means it was undamaged. The
// damage check reads the published shape, which needs no lock, and both
// tiers run inside one reshape, so a capacitated forest's lease charges
// whatever shape the repair leaves.
func (s *Solver) repairForest(ctx context.Context, f *Forest) (*ForestRecovery, error) {
	if !f.shape().Damage().Broken() {
		return nil, nil
	}
	fr := &ForestRecovery{Forest: f}
	if err := s.reshape(f, func(cf *core.Forest) error { return s.repair(ctx, f, cf, fr) }); err != nil {
		return nil, err
	}
	return fr, nil
}

// repair runs both recovery tiers on cf, the copy of f's shape that
// reshape publishes, and records the outcome in fr.
func (s *Solver) repair(ctx context.Context, f *Forest, cf *core.Forest, fr *ForestRecovery) error {
	before := cf.TotalCost() // damage is non-structural: this is the pre-failure cost
	rep, err := cf.Repair(s.oracle, f.candidateVMs())
	if err != nil {
		return fmt.Errorf("sof: repair of forest: %w", err)
	}
	fr.Orphans = rep.Orphans
	fr.FastPath = rep.Reattached

	// Re-embed tier: destinations whose node is alive but that no graft
	// could reach get one full re-embed of the forest.
	var wantBack []NodeID
	for _, rf := range rep.Failed {
		if s.net.g.NodeFailed(rf.Dest) {
			fr.Failed = append(fr.Failed, DestFailure{
				Dest: rf.Dest,
				Err:  fmt.Errorf("destination node %d failed: %w", rf.Dest, ErrUnrecoverable),
			})
			continue
		}
		wantBack = append(wantBack, rf.Dest)
	}
	if len(wantBack) > 0 {
		dests := append(cf.Destinations(), wantBack...)
		sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
		// solve books nothing: reshape charges the forest's own lease for
		// whatever shape comes back, so nothing is charged twice.
		fresh, err := s.solve(ctx, Request{
			Sources:      f.sources,
			Destinations: dests,
			ChainLength:  cf.ChainLen(),
		}, s.algo, s.parallelism)
		if err != nil {
			for _, d := range wantBack {
				fr.Failed = append(fr.Failed, DestFailure{
					Dest: d,
					Err:  fmt.Errorf("graft and re-embed both failed (%v): %w", err, ErrUnrecoverable),
				})
			}
		} else {
			// Overwrite the copy: the caller's *Forest keeps its identity,
			// its ledger entry and its lease.
			*cf = *fresh
			fr.Reembedded = true
		}
	}
	fr.Reattached = fr.Orphans - len(fr.Failed)
	fr.CostDelta = cf.TotalCost() - before
	return nil
}
