package sof

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
)

func buildLine(t *testing.T) (*Network, NodeID, NodeID) {
	t.Helper()
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v1 := b.AddVM("v1", 2)
	v2 := b.AddVM("v2", 3)
	d := b.AddSwitch("d")
	b.Link(s, v1, 1)
	b.Link(v1, v2, 1)
	b.Link(v2, d, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, s, d
}

func TestPublicAPIQuickstart(t *testing.T) {
	net, s, d := buildLine(t)
	for _, algo := range []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmENEMP, AlgorithmEST, AlgorithmST, AlgorithmExact} {
		f, err := net.Embed(Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		switch algo {
		case AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmExact:
			if math.Abs(f.TotalCost()-8) > 1e-9 {
				t.Errorf("%s cost = %v, want 8", algo, f.TotalCost())
			}
		default:
			// Baselines keep their source-rooted tree branch and may pay
			// more, but never less than the optimum.
			if f.TotalCost() < 8-1e-9 {
				t.Errorf("%s cost = %v, below the optimum 8", algo, f.TotalCost())
			}
		}
		if f.Trees() != 1 || len(f.UsedVMs()) != 2 {
			t.Errorf("%s: trees=%d vms=%d", algo, f.Trees(), len(f.UsedVMs()))
		}
	}
}

func TestPublicAPIEmbedContext(t *testing.T) {
	net, s, d := buildLine(t)
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}

	seq, err := net.Embed(req, AlgorithmSOFDA)
	if err != nil {
		t.Fatal(err)
	}
	par, err := net.EmbedContext(context.Background(), req, AlgorithmSOFDA,
		&EmbedOptions{Parallelism: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalCost() != seq.TotalCost() {
		t.Errorf("parallel embed cost %v != sequential %v", par.TotalCost(), seq.TotalCost())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmENEMP, AlgorithmEST, AlgorithmST, AlgorithmExact} {
		if _, err := net.EmbedContext(ctx, req, algo, nil); err == nil {
			t.Errorf("%s: cancelled context accepted", algo)
		}
	}
}

func TestPublicAPIErrors(t *testing.T) {
	net, s, d := buildLine(t)
	if _, err := net.Embed(Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}, "nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := net.Embed(Request{Sources: []NodeID{s, d}, Destinations: []NodeID{d}, ChainLength: 1}, AlgorithmSOFDASS); err == nil {
		t.Error("SOFDA-SS with two sources accepted")
	}
	b := NewNetworkBuilder()
	a := b.AddSwitch("a")
	b.Link(a, a, 1)
	if _, err := b.Build(); err == nil {
		t.Error("self-loop accepted by builder")
	}
}

func TestPublicAPIDynamics(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v1 := b.AddVM("v1", 1)
	v2 := b.AddVM("v2", 1)
	v3 := b.AddVM("v3", 1)
	mid := b.AddSwitch("mid")
	d1 := b.AddSwitch("d1")
	d2 := b.AddSwitch("d2")
	b.Link(s, v1, 1)
	b.Link(v1, v2, 1)
	b.Link(v2, mid, 1)
	b.Link(mid, d1, 1)
	b.Link(mid, d2, 1)
	b.Link(v1, v3, 1)
	b.Link(v3, mid, 2)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := net.Embed(Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 2}, AlgorithmSOFDA)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := f.Join(d2)
	if err != nil {
		t.Fatal(err)
	}
	if delta <= 0 {
		t.Errorf("join delta = %v", delta)
	}
	if _, err := f.Leave(d1); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Destinations()); got != 1 {
		t.Fatalf("destinations = %d, want 1", got)
	}
}

// TestNetworkCostSettersRejectInvalid: the public cost setters reject
// what Build rejects — an unknown link or node, a switch given a setup
// cost, a negative, NaN or infinite cost — and a rejected call leaves
// every cost and the cost epoch as they were. A valid change still
// advances the epoch and invalidates a session's cached trees.
func TestNetworkCostSettersRejectInvalid(t *testing.T) {
	net, s, d := buildLine(t)
	g := net.Graph()
	costs := func() []float64 {
		var out []float64
		for e := 0; e < g.NumEdges(); e++ {
			out = append(out, g.EdgeCost(EdgeID(e)))
		}
		for v := 0; v < g.NumNodes(); v++ {
			out = append(out, g.NodeCost(NodeID(v)))
		}
		return out
	}
	link, vm := EdgeID(1), NodeID(1)
	for _, tc := range []struct {
		name string
		set  func() error
	}{
		{"link -1", func() error { return net.SetLinkCost(-1, 1) }},
		{"link past the last", func() error { return net.SetLinkCost(EdgeID(g.NumEdges()), 1) }},
		{"negative link cost", func() error { return net.SetLinkCost(link, -1) }},
		{"NaN link cost", func() error { return net.SetLinkCost(link, math.NaN()) }},
		{"+Inf link cost", func() error { return net.SetLinkCost(link, math.Inf(1)) }},
		{"-Inf link cost", func() error { return net.SetLinkCost(link, math.Inf(-1)) }},
		{"node -1", func() error { return net.SetVMCost(-1, 1) }},
		{"node past the last", func() error { return net.SetVMCost(NodeID(g.NumNodes()), 1) }},
		{"switch", func() error { return net.SetVMCost(s, 1) }},
		{"negative VM cost", func() error { return net.SetVMCost(vm, -1) }},
		{"NaN VM cost", func() error { return net.SetVMCost(vm, math.NaN()) }},
		{"+Inf VM cost", func() error { return net.SetVMCost(vm, math.Inf(1)) }},
	} {
		before, epoch := costs(), g.CostEpoch()
		if err := tc.set(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if after := costs(); !slices.Equal(after, before) || g.CostEpoch() != epoch {
			t.Errorf("%s: rejected call changed costs %v -> %v or epoch %d -> %d",
				tc.name, before, after, epoch, g.CostEpoch())
		}
	}

	solver := NewSolver(net)
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}
	ctx := context.Background()
	if _, err := solver.Embed(ctx, req); err != nil {
		t.Fatal(err)
	}
	cold, epoch := solver.CacheStats(), g.CostEpoch()
	if err := net.SetLinkCost(link, 5); err != nil {
		t.Fatalf("valid link cost: %v", err)
	}
	if err := net.SetVMCost(vm, 4); err != nil {
		t.Fatalf("valid VM cost: %v", err)
	}
	if g.EdgeCost(link) != 5 || g.NodeCost(vm) != 4 || g.CostEpoch() == epoch {
		t.Fatalf("valid changes not applied: link %v, VM %v, epoch %d", g.EdgeCost(link), g.NodeCost(vm), g.CostEpoch())
	}
	f, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if treesBuilt(solver.CacheStats()) == treesBuilt(cold) {
		t.Error("a valid cost change did not invalidate the session's trees")
	}
	checkFreshTree(t, solver, s)
	if math.Abs(f.TotalCost()-14) > 1e-9 {
		t.Errorf("cost after the change = %v, want 14", f.TotalCost())
	}
}
