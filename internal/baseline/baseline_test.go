package baseline

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sof/internal/core"
	"sof/internal/graph"
	"sof/internal/topology"
)

func twoIslandNet() (*graph.Graph, core.Request) {
	g := graph.New(10, 10)
	s0 := g.AddSwitch("s0")
	a := g.AddVM("a", 2)
	b := g.AddVM("b", 2)
	d0 := g.AddSwitch("d0")
	s1 := g.AddSwitch("s1")
	c := g.AddVM("c", 2)
	e := g.AddVM("e", 2)
	d1 := g.AddSwitch("d1")
	g.MustAddEdge(s0, a, 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, d0, 1)
	g.MustAddEdge(s1, c, 1)
	g.MustAddEdge(c, e, 1)
	g.MustAddEdge(e, d1, 1)
	g.MustAddEdge(b, c, 20)
	return g, core.Request{
		Sources:  []graph.NodeID{s0, s1},
		Dests:    []graph.NodeID{d0, d1},
		ChainLen: 2,
	}
}

func TestAllBaselinesFeasible(t *testing.T) {
	g, req := twoIslandNet()
	for _, kind := range []Kind{KindST, KindEST, KindENEMP} {
		f, err := SolveCtx(context.Background(), g, req, nil, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := f.Validate(req.Sources, req.Dests); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestSTUsesSingleTree(t *testing.T) {
	g, req := twoIslandNet()
	f, err := SolveCtx(context.Background(), g, req, nil, KindST)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 1 {
		t.Fatalf("ST trees = %d, want 1", f.NumTrees())
	}
	// ST must pay the 20-cost bridge; SOFDA's two trees cost 14.
	if f.TotalCost() < 14 {
		t.Fatalf("ST cost = %v, expected to exceed the forest optimum", f.TotalCost())
	}
}

func TestESTAddsSecondTreeWhenProfitable(t *testing.T) {
	g, req := twoIslandNet()
	est, err := SolveCtx(context.Background(), g, req, nil, KindEST)
	if err != nil {
		t.Fatal(err)
	}
	st, err := SolveCtx(context.Background(), g, req, nil, KindST)
	if err != nil {
		t.Fatal(err)
	}
	if est.NumTrees() < 2 {
		t.Errorf("eST trees = %d, want 2 on the two-island network", est.NumTrees())
	}
	if est.TotalCost() > st.TotalCost()+1e-9 {
		t.Errorf("eST (%v) should not exceed ST (%v)", est.TotalCost(), st.TotalCost())
	}
}

func TestENEMPLastVMInsideTree(t *testing.T) {
	// Network where the Steiner tree contains a VM: eNEMP must use it.
	g := graph.New(6, 6)
	s := g.AddSwitch("s")
	v1 := g.AddVM("v1", 1)
	v2 := g.AddVM("v2", 1)
	d := g.AddSwitch("d")
	far := g.AddVM("far", 0.1)
	g.MustAddEdge(s, v1, 1)
	g.MustAddEdge(v1, v2, 1)
	g.MustAddEdge(v2, d, 1)
	g.MustAddEdge(s, far, 30)
	req := core.Request{Sources: []graph.NodeID{s}, Dests: []graph.NodeID{d}, ChainLen: 1}
	f, err := SolveCtx(context.Background(), g, req, nil, KindENEMP)
	if err != nil {
		t.Fatal(err)
	}
	used := f.UsedVMs()
	if len(used) != 1 || (used[0] != v1 && used[0] != v2) {
		t.Fatalf("eNEMP used VMs %v, want one of the on-tree VMs", used)
	}
}

func TestBaselineZeroChain(t *testing.T) {
	g, req := twoIslandNet()
	req.ChainLen = 0
	for _, kind := range []Kind{KindST, KindEST, KindENEMP} {
		f, err := SolveCtx(context.Background(), g, req, nil, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := f.Validate(req.Sources, req.Dests); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(f.UsedVMs()) != 0 {
			t.Fatalf("%v used VMs on zero chain", kind)
		}
	}
}

func TestBaselineErrors(t *testing.T) {
	g, req := twoIslandNet()
	req.ChainLen = 10 // more VNFs than VMs
	if _, err := SolveCtx(context.Background(), g, req, nil, KindEST); err == nil {
		t.Error("infeasible chain accepted")
	}
	bad := req
	bad.Sources = nil
	if _, err := SolveCtx(context.Background(), g, bad, nil, KindEST); err == nil {
		t.Error("empty sources accepted")
	}
}

// TestSOFDABeatsBaselinesOnAverage reproduces the paper's headline
// comparison: over random SoftLayer requests, SOFDA's average cost is
// lower than every baseline's, and every algorithm yields feasible
// forests.
func TestSOFDABeatsBaselinesOnAverage(t *testing.T) {
	sums := map[string]float64{}
	runs := 0
	for seed := int64(0); seed < 12; seed++ {
		net := topology.SoftLayer(topology.Config{NumVMs: 25, Seed: seed})
		rng := rand.New(rand.NewSource(seed * 31))
		req := core.Request{
			Sources:  net.RandomNodes(rng, 8),
			Dests:    net.RandomNodes(rng, 6),
			ChainLen: 3,
		}
		opts := &core.Options{VMs: net.VMs}
		sofda, err := core.SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d SOFDA: %v", seed, err)
		}
		sums["SOFDA"] += sofda.TotalCost()
		for _, kind := range []Kind{KindST, KindEST, KindENEMP} {
			f, err := SolveCtx(context.Background(), net.G, req, opts, kind)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, kind, err)
			}
			if err := f.Validate(req.Sources, req.Dests); err != nil {
				t.Fatalf("seed %d %v: %v", seed, kind, err)
			}
			sums[kind.String()] += f.TotalCost()
		}
		runs++
	}
	t.Logf("average costs over %d runs: SOFDA=%.1f eNEMP=%.1f eST=%.1f ST=%.1f",
		runs, sums["SOFDA"]/float64(runs), sums["eNEMP"]/float64(runs),
		sums["eST"]/float64(runs), sums["ST"]/float64(runs))
	for _, k := range []string{"eNEMP", "eST", "ST"} {
		if sums["SOFDA"] > sums[k]+1e-6 {
			t.Errorf("SOFDA average %.2f exceeds %s average %.2f",
				sums["SOFDA"]/float64(runs), k, sums[k]/float64(runs))
		}
	}
	if math.IsNaN(sums["SOFDA"]) {
		t.Error("NaN cost")
	}
}
