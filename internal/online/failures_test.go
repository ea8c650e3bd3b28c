package online

import (
	"math"
	"testing"

	"sof"
	"sof/internal/graph"
	"sof/internal/topology"
)

func TestFailureScheduleDeterministic(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 20, Seed: 5})
	cfg := FailureConfig{Events: 8, VMShare: 0.25, Downtime: 4, Seed: 42}
	a := FailureSchedule(net, 30, cfg)
	b := FailureSchedule(net, 30, cfg)
	if len(a) != len(b) || len(a) != 16 { // each failure pairs with a restore
		t.Fatalf("schedule lengths: %d vs %d, want 16", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Step < a[i-1].Step {
			t.Fatalf("schedule out of order at %d", i)
		}
	}
	for _, ev := range a {
		if (ev.Link == graph.NoEdge) == (ev.VM == graph.None) {
			t.Fatalf("event identifies neither or both elements: %+v", ev)
		}
	}
}

// TestFailureRunNeverDropsDestinations is the acceptance criterion of the
// survivable-forest scenario: over a seeded schedule of failures
// interleaved with arrivals, every severed destination is either
// re-attached — with the repaired forest re-validated — or surfaced as
// unrecoverable. The accounting identity Orphans == Reattached +
// Unrecoverable holding across all sweeps proves nothing was dropped.
func TestFailureRunNeverDropsDestinations(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 3})
	sim := NewSimulator(net, sof.AlgorithmSOFDA, smallConfig())
	sim.SetFailureSchedule(FailureSchedule(net, 20, FailureConfig{
		Events: 10, VMShare: 0.3, Downtime: 3, Seed: 9,
	}))
	sim.CompareScratchCost(true)

	results := run(t, sim, 20)
	if len(results) != 20 {
		t.Fatalf("got %d results", len(results))
	}
	st := sim.Recovery()
	if st.Failures == 0 {
		t.Fatal("schedule injected no failures")
	}
	if st.Reattached+st.Unrecoverable != st.Orphans {
		t.Fatalf("dropped destinations: %d orphans vs %d reattached + %d unrecoverable",
			st.Orphans, st.Reattached, st.Unrecoverable)
	}
	if st.FastPath > st.Reattached {
		t.Fatalf("tier accounting inconsistent: %+v", st)
	}
	if st.Sweeps > 0 && len(st.Latencies) != st.Sweeps {
		t.Fatalf("latencies: %d samples for %d sweeps", len(st.Latencies), st.Sweeps)
	}
	// Every live forest that is currently undamaged must be fully valid
	// (repairs included).
	for _, f := range sim.Solver().LiveForests() {
		if !f.Damage().Broken() {
			if err := f.Validate(); err != nil {
				t.Fatalf("live forest invalid after run: %v", err)
			}
		}
	}
	if st.Sweeps > 0 && st.LatencyP99() <= 0 {
		t.Fatal("p99 latency not recorded")
	}
	if st.Orphans > 0 && st.RepairedCost <= 0 {
		t.Fatal("scratch comparison recorded no repaired cost")
	}
}

// TestFailureScheduleSweepsEarlierForests: a schedule installed mid-run
// repairs the forests accepted before it. The failure fires before step
// 7's arrival, on a link of a forest from the first six steps, so only
// that forest can be touched.
func TestFailureScheduleSweepsEarlierForests(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 4})
	sim := NewSimulator(net, sof.AlgorithmSOFDA, smallConfig())
	run(t, sim, 6)
	leases := sim.Solver().Leases()
	if len(leases) == 0 || len(leases[0].Edges) == 0 {
		t.Fatalf("leases after six steps: %+v, want one crossing a link", leases)
	}
	sim.SetFailureSchedule([]FailureEvent{{Step: 7, Link: leases[0].Edges[0], VM: graph.None}})
	run(t, sim, 1)
	if st := sim.Recovery(); st.Failures != 1 || st.ForestsTouched == 0 {
		t.Fatalf("recovery %+v, want one failure that touches a forest accepted before the schedule", st)
	}
}

// TestFailureLoadReaccounting pins the session bookkeeping around repairs:
// releasing a damaged forest's lease while the repair reshapes it and
// charging its repaired shape must keep every tracker non-negative and,
// lease by lease, load conservation must hold — each link's load is
// exactly the summed demand of the live leases crossing it, each VM's the
// count of leases holding its slot.
func TestFailureLoadReaccounting(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 4})
	sim := NewSimulator(net, sof.AlgorithmSOFDA, smallConfig())
	sim.SetFailureSchedule(FailureSchedule(net, 12, FailureConfig{
		Events: 6, VMShare: 0.5, Seed: 11, // permanent failures
	}))
	run(t, sim, 12)

	solver := sim.Solver()
	wantLink := make(map[sof.EdgeID]float64)
	wantVM := make(map[sof.NodeID]float64)
	for _, l := range solver.Leases() {
		for _, e := range l.Edges {
			wantLink[e] += l.Demand
		}
		for _, v := range l.VMs {
			wantVM[v]++
		}
	}
	for e := 0; e < net.G.NumEdges(); e++ {
		got := solver.LinkLoad(sof.EdgeID(e))
		if got < 0 {
			t.Fatalf("link %d load negative: %v", e, got)
		}
		if want := wantLink[sof.EdgeID(e)]; math.Abs(got-want) > 1e-6 {
			t.Fatalf("link %d load %v, live leases explain %v", e, got, want)
		}
	}
	for n := 0; n < net.G.NumNodes(); n++ {
		got := solver.VMLoad(sof.NodeID(n))
		if got < 0 {
			t.Fatalf("vm %d load negative: %v", n, got)
		}
		if want := wantVM[sof.NodeID(n)]; math.Abs(got-want) > 1e-6 {
			t.Fatalf("vm %d load %v, live leases explain %v", n, got, want)
		}
	}
}
