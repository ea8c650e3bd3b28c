package online

import (
	"math"
	"testing"

	"sof"
	"sof/internal/topology"
)

// lifecycleConfig is smallConfig with departures: every request lives 2–4
// arrival steps, so the run reaches a steady state instead of filling up.
func lifecycleConfig() Config {
	cfg := smallConfig()
	cfg.TTLRange = [2]int{2, 4}
	return cfg
}

// TestLifecycleDepartures drives an arrival/departure stream and checks the
// bookkeeping: every arrival is counted exactly once, TTL expiries release
// leases, and the live-lease count the results report matches the session.
func TestLifecycleDepartures(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 7})
	sim := NewSimulator(net, sof.AlgorithmSOFDA, lifecycleConfig())
	results := run(t, sim, 30)

	st := sim.Lifecycle()
	if st.Arrivals != 30 {
		t.Fatalf("Arrivals = %d, want 30", st.Arrivals)
	}
	if got := st.Accepted + st.CapacityRejects + st.AdmissionRejects + st.Infeasible; got != st.Arrivals {
		t.Fatalf("accept/reject split %d does not cover %d arrivals", got, st.Arrivals)
	}
	if st.Departed == 0 {
		t.Fatal("no lease departed over 30 steps with TTLs of 2-4")
	}
	if st.Accepted == 0 {
		t.Fatal("nothing accepted; the lifecycle run was vacuous")
	}
	if len(st.EmbedLatencies) != st.Arrivals {
		t.Fatalf("got %d embed latencies for %d arrivals", len(st.EmbedLatencies), st.Arrivals)
	}
	if st.LatencyP99() <= 0 {
		t.Fatal("p99 embedding latency not recorded")
	}
	if rate := st.AcceptRate(); rate <= 0 || rate > 1 {
		t.Fatalf("AcceptRate = %v, want (0, 1]", rate)
	}
	last := results[len(results)-1]
	if got := len(sim.Solver().Leases()); got != last.Live {
		t.Fatalf("last result reports %d live leases, session holds %d", last.Live, got)
	}
	// Steady state, not monotone fill: at least one step must have seen an
	// expiry, and the live count must stay below the accepted total.
	sawExpiry := false
	for _, r := range results {
		if r.Expired > 0 {
			sawExpiry = true
		}
	}
	if !sawExpiry {
		t.Fatal("no step observed a TTL expiry")
	}
	if last.Live >= st.Accepted {
		t.Fatalf("%d leases live after %d acceptances: nothing ever departed", last.Live, st.Accepted)
	}
}

// TestOnlineCapacityEnforced overloads a small network and checks the
// session enforces its capacities: arrivals are rejected once full — never
// silently over-packed — and no link or VM slot ever exceeds its capacity.
func TestOnlineCapacityEnforced(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 6, Seed: 8})
	cfg := smallConfig()
	cfg.LinkCapacity = 20 // 4 requests per link
	cfg.VMCapacity = 2
	sim := NewSimulator(net, sof.AlgorithmSOFDA, cfg)
	run(t, sim, 25)

	st := sim.Lifecycle()
	if st.Accepted == 0 {
		t.Fatal("nothing accepted on the empty network")
	}
	if st.Accepted == st.Arrivals {
		t.Fatal("overloaded run rejected nothing; capacity is not enforced")
	}
	solver := sim.Solver()
	for e := 0; e < net.G.NumEdges(); e++ {
		if load := solver.LinkLoad(sof.EdgeID(e)); load > cfg.LinkCapacity+1e-6 {
			t.Fatalf("link %d load %v exceeds capacity %v", e, load, cfg.LinkCapacity)
		}
	}
	for n := 0; n < net.G.NumNodes(); n++ {
		if load := solver.VMLoad(sof.NodeID(n)); load > cfg.VMCapacity+1e-6 {
			t.Fatalf("vm %d load %v exceeds capacity %v", n, load, cfg.VMCapacity)
		}
	}
}

// TestOnlineAdaptiveAdmission turns on the utilization-exponential
// admission rule with a tight budget: the loaded network must start
// rejecting by admission (typed, counted separately from capacity), and
// draining the sessions via TTLs must let arrivals through again.
func TestOnlineAdaptiveAdmission(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 9})
	cfg := lifecycleConfig()
	cfg.AdmissionMu = 16
	cfg.AdmissionBudget = 0.05
	sim := NewSimulator(net, sof.AlgorithmSOFDA, cfg)
	run(t, sim, 40)

	st := sim.Lifecycle()
	if st.Accepted == 0 {
		t.Fatal("adaptive admission rejected even the empty-network arrivals")
	}
	if st.AdmissionRejects == 0 {
		t.Fatal("tight budget never rejected by admission under load")
	}
	// Revenue (the session's Accumulated) only counts admitted requests and
	// never shrinks on departure.
	if acc := sim.Solver().Accumulated(); acc <= 0 {
		t.Fatalf("session revenue %v after %d acceptances", acc, st.Accepted)
	}
}

// TestLifecycleStatsEdgeCases pins the zero-value stats behavior.
func TestLifecycleStatsEdgeCases(t *testing.T) {
	var st LifecycleStats
	if got := st.AcceptRate(); got != 1 {
		t.Fatalf("idle AcceptRate = %v, want 1", got)
	}
	if got := st.LatencyP99(); got != 0 {
		t.Fatalf("idle LatencyP99 = %v, want 0", got)
	}
	if math.IsNaN(st.AcceptRate()) {
		t.Fatal("AcceptRate NaN")
	}
}
