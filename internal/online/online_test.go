package online

import (
	"context"
	"errors"
	"strings"
	"testing"

	"sof"
	"sof/internal/graph"
	"sof/internal/topology"
)

// run steps sim n times, failing the test on an error.
func run(t *testing.T, sim *Simulator, n int) []Result {
	t.Helper()
	res, err := sim.RunCtx(context.Background(), n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func smallConfig() Config {
	return Config{
		LinkCapacity: 100, Demand: 5, VMCapacity: 10,
		SrcRange: [2]int{2, 4}, DstRange: [2]int{2, 4},
		ChainLen: 2, Seed: 1,
	}
}

func TestSimulatorAccumulates(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 1})
	sim := NewSimulator(net, sof.AlgorithmSOFDA, smallConfig())
	results := run(t, sim, 5)
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	prev := 0.0
	for i, r := range results {
		if r.Rejected {
			continue
		}
		if r.Cost <= 0 {
			t.Errorf("step %d: non-positive cost %v", i, r.Cost)
		}
		if r.Accumulated < prev-1e-9 {
			t.Errorf("step %d: accumulated decreased %v -> %v", i, prev, r.Accumulated)
		}
		prev = r.Accumulated
	}
	if sim.Accumulated() != prev {
		t.Errorf("Accumulated() = %v, want %v", sim.Accumulated(), prev)
	}
}

func TestLoadRaisesPrices(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 2})
	sim := NewSimulator(net, sof.AlgorithmSOFDA, smallConfig())
	// After repricing an unloaded network, marginal link costs are in the
	// linear region: exactly the demand.
	firstCost := net.G.EdgeCost(0)
	if firstCost != 5 {
		t.Fatalf("unloaded marginal cost = %v, want 5", firstCost)
	}
	res := run(t, sim, 12)
	var grew bool
	for e := 0; e < net.G.NumEdges(); e++ {
		if net.G.EdgeCost(graph.EdgeID(e)) > firstCost+1e-9 {
			grew = true
			break
		}
	}
	if !grew {
		accepted := 0
		for _, r := range res {
			if !r.Rejected {
				accepted++
			}
		}
		t.Errorf("no link got more expensive after %d accepted requests", accepted)
	}
}

func TestAllAlgorithmsRunOnline(t *testing.T) {
	for _, algo := range []sof.Algorithm{sof.AlgorithmSOFDA, sof.AlgorithmENEMP, sof.AlgorithmEST, sof.AlgorithmST} {
		net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 3})
		sim := NewSimulator(net, algo, smallConfig())
		res := run(t, sim, 3)
		for _, r := range res {
			if r.Rejected {
				t.Errorf("%s rejected request %d on an empty network", algo, r.Request)
			}
		}
	}
}

func TestUnknownAlgorithmRejects(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 5, Seed: 4})
	sim := NewSimulator(net, "nope", smallConfig())
	res, err := sim.StepCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected || res.Err == nil {
		t.Fatalf("unknown algorithm accepted: %+v", res)
	}
	if !strings.Contains(res.Err.Error(), "unknown algorithm") {
		t.Errorf("rejection error = %v, want unknown-algorithm", res.Err)
	}
}

func TestSimulationCancellable(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 6})
	sim := NewSimulator(net, sof.AlgorithmSOFDA, smallConfig())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.StepCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("StepCtx error = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	done, err := sim.RunCtx(ctx2, 2)
	cancel2()
	if err != nil {
		t.Fatalf("RunCtx before cancel: %v", err)
	}
	if len(done) != 2 {
		t.Fatalf("RunCtx returned %d results, want 2", len(done))
	}
	if more, err := sim.RunCtx(ctx2, 5); err == nil || len(more) != 0 {
		t.Fatalf("RunCtx after cancel = (%d results, %v), want (0, error)", len(more), err)
	}
	// A cancelled step must not count: the next background step continues
	// the sequence.
	r, err := sim.StepCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Request != 3 {
		t.Errorf("step counter = %d after cancelled steps, want 3", r.Request)
	}
}

// TestSOFDAAccumulatesLessThanBaselines mirrors Figure 12's claim on a
// short prefix of the arrival sequence.
func TestSOFDAAccumulatesLessThanBaselines(t *testing.T) {
	totals := map[sof.Algorithm]float64{}
	for _, algo := range []sof.Algorithm{sof.AlgorithmSOFDA, sof.AlgorithmEST, sof.AlgorithmST} {
		net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: 5})
		cfg := smallConfig()
		cfg.Seed = 5    // identical request stream for all algorithms
		cfg.Demand = 20 // push links into the convex region quickly
		sim := NewSimulator(net, algo, cfg)
		run(t, sim, 12)
		totals[algo] = sim.Accumulated()
	}
	t.Logf("accumulated: SOFDA=%.1f eST=%.1f ST=%.1f",
		totals[sof.AlgorithmSOFDA], totals[sof.AlgorithmEST], totals[sof.AlgorithmST])
	// Figure 12 shape: SOFDA's accumulated cost stays below the single-
	// tree baseline once congestion pricing matters (small tolerance for
	// tie-breaking noise on the early flat region).
	if totals[sof.AlgorithmSOFDA] > totals[sof.AlgorithmST]*1.02 {
		t.Errorf("SOFDA accumulated %v exceeds ST %v", totals[sof.AlgorithmSOFDA], totals[sof.AlgorithmST])
	}
}
