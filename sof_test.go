package sof

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sof/internal/graph"
	"sof/internal/topology"
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
		f, err := NewSolver(net, WithAlgorithm(algo)).Embed(context.Background(),
			Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2})
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

	seq, err := NewSolver(net, WithParallelism(1)).Embed(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewSolver(net, WithParallelism(runtime.NumCPU())).Embed(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if par.TotalCost() != seq.TotalCost() {
		t.Errorf("parallel embed cost %v != sequential %v", par.TotalCost(), seq.TotalCost())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmENEMP, AlgorithmEST, AlgorithmST, AlgorithmExact} {
		if _, err := NewSolver(net, WithAlgorithm(algo)).Embed(ctx, req); err == nil {
			t.Errorf("%s: cancelled context accepted", algo)
		}
	}
}

func TestPublicAPIErrors(t *testing.T) {
	net, s, d := buildLine(t)
	solver := NewSolver(net)
	ctx := context.Background()
	if _, err := solver.EmbedAlgorithm(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}, "nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := solver.EmbedAlgorithm(ctx, Request{Sources: []NodeID{s, d}, Destinations: []NodeID{d}, ChainLength: 1}, AlgorithmSOFDASS); err == nil {
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
	f, err := NewSolver(net).Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 2})
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

// TestRerouteCongestedLink rejects links outside the network, -1 (a
// root clone's missing uplink) and one past the last link, without moving
// anything, and moves the one segment on a used link once SetLinkCost
// has made that link dearer than the detour; the forest's lease then
// charges the detour and leaves the congested link empty.
func TestRerouteCongestedLink(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v1 := b.AddVM("v1", 1)
	v2 := b.AddVM("v2", 1)
	a := b.AddSwitch("a")
	c := b.AddSwitch("c")
	d := b.AddSwitch("d")
	b.Link(s, v1, 1)
	b.Link(v1, v2, 1)
	b.Link(v2, a, 1)
	congested := b.Link(a, d, 1)
	b.Link(v2, c, 2)
	b.Link(c, d, 2)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(net, WithCapacity(10, 4))
	f, err := solver.Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	uses := func(e EdgeID) bool { return slices.Contains(f.shape().Footprint().Edges, e) }
	if !uses(congested) {
		t.Fatalf("forest does not use link %d (a–d)", congested)
	}
	cost := f.TotalCost()
	for _, e := range []EdgeID{-1, EdgeID(net.Graph().NumEdges())} {
		moved, err := f.RerouteCongestedLink(e)
		if want := fmt.Sprintf("sof: no link %d", e); err == nil || err.Error() != want {
			t.Fatalf("RerouteCongestedLink(%d) error = %v, want %q", e, err, want)
		}
		if moved != 0 || f.TotalCost() != cost {
			t.Fatalf("RerouteCongestedLink(%d) moved %d segments, cost %v → %v", e, moved, cost, f.TotalCost())
		}
	}
	if err := net.SetLinkCost(congested, 10); err != nil {
		t.Fatal(err)
	}
	moved, err := f.RerouteCongestedLink(congested)
	if err != nil || moved != 1 {
		t.Fatalf("RerouteCongestedLink(%d) = %d, %v, want 1, nil", congested, moved, err)
	}
	if uses(congested) {
		t.Fatalf("forest still uses link %d after the reroute", congested)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// The lease follows the reroute: it charges the new route, not a–d.
	if err := leaseError(solver, f); err != nil {
		t.Fatal(err)
	}
	if load := solver.LinkLoad(congested); load != 0 {
		t.Fatalf("link %d (a–d) load = %v after the reroute, want 0", congested, load)
	}
	checkConservation(t, solver)
}

// TestNetworkCostSettersRejectInvalid: the public cost setters reject
// what Build rejects — an unknown link or node, a switch given a setup
// cost, a negative, NaN or infinite cost — and a rejected call leaves
// every cost and the cost epoch as they were. A valid change still
// advances the epoch and invalidates a session's cached trees.
// TestForestFootprintAndRoute pins the read-only views of a forest: on a
// capacitated session Footprint is exactly what the lease charges, and
// Route(d) is the uplinks of d's clone path, from the source down, for
// every destination. A node the forest does not serve has no route.
func TestForestFootprintAndRoute(t *testing.T) {
	topo := topology.SoftLayer(topology.Config{NumVMs: 8, Seed: 3})
	g := topo.G
	solver := NewSolver(FromGraph(g), WithCapacity(100, 10))
	nodes := topo.RandomNodes(rand.New(rand.NewSource(5)), 6)
	req := Request{Sources: nodes[:2], Destinations: nodes[2:], ChainLength: 2}
	f, err := solver.Embed(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	edges, vms := f.Footprint()
	leases := solver.Leases()
	if len(leases) != 1 || !slices.Equal(edges, leases[0].Edges) || !slices.Equal(vms, leases[0].VMs) {
		t.Fatalf("Footprint() = %v, %v; leases %+v", edges, vms, leases)
	}
	for _, d := range req.Destinations {
		route, ok := f.Route(d)
		if !ok {
			t.Fatalf("Route(%d) reports destination unserved", d)
		}
		c, _ := f.shape().DestClone(d)
		path := f.shape().PathToRoot(c)
		var want []EdgeID
		for i := len(path) - 1; i >= 0; i-- {
			if e := f.shape().Clone(path[i]).ParentEdge; e != graph.NoEdge {
				want = append(want, e)
			}
		}
		if !slices.Equal(route, want) {
			t.Fatalf("Route(%d) = %v, clone path crosses %v", d, route, want)
		}
		root := f.shape().Clone(path[len(path)-1]).Node
		at := root
		for _, e := range route {
			at = g.Edge(e).Other(at)
		}
		if !slices.Contains(req.Sources, root) || at != d {
			t.Fatalf("Route(%d) = %v walks %d to %d", d, route, root, at)
		}
	}
	if route, ok := f.Route(req.Sources[0]); ok {
		t.Fatalf("Route(%d) of a source the forest does not serve = %v", req.Sources[0], route)
	}
}

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

// TestPublicAPIChecksCallerIDs drives the calls that take node and link
// ids from the caller with ids outside the network, a switch where a VM
// belongs, and repeated VMs. Each must answer as documented, never panic.
func TestPublicAPIChecksCallerIDs(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v1 := b.AddVM("v1", 2)
	v2 := b.AddVM("v2", 3)
	v3 := b.AddVM("v3", 4)
	d := b.AddSwitch("d")
	b.Link(s, v1, 1)
	b.Link(v1, v2, 1)
	b.Link(v2, d, 1)
	b.Link(v2, v3, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}
	algos := []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmENEMP, AlgorithmEST, AlgorithmST, AlgorithmExact}
	embed := func(algo Algorithm, vms ...NodeID) error {
		_, err := NewSolver(net, WithAlgorithm(algo), WithVMs(vms...)).Embed(context.Background(), req)
		return err
	}
	f, err := NewSolver(net).Embed(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	type check struct {
		name string
		call func() error // nil when the call answered as documented
	}
	checks := []check{
		{"LinkLoad(99)", func() error {
			if l := NewSolver(net, WithCapacity(4, 4)).LinkLoad(99); l != 0 {
				return fmt.Errorf("load %v, want 0", l)
			}
			return nil
		}},
		{"VMLoad(99)", func() error {
			if l := NewSolver(net, WithCapacity(4, 4)).VMLoad(99); l != 0 {
				return fmt.Errorf("load %v, want 0", l)
			}
			return nil
		}},
		{"FailVM(99)", func() error {
			if NewSolver(net, WithRecovery()).FailVM(99) {
				return errors.New("reported a state change")
			}
			return nil
		}},
	}
	for _, bad := range []NodeID{99, -1} {
		checks = append(checks, check{fmt.Sprintf("Join(%d)", bad), func() error {
			if _, err := f.Join(bad); err == nil {
				return errors.New("no error")
			}
			return nil
		}})
		checks = append(checks, check{fmt.Sprintf("Route(%d)", bad), func() error {
			if route, ok := f.Route(bad); ok {
				return fmt.Errorf("route %v", route)
			}
			return nil
		}})
	}
	for _, algo := range algos {
		for _, bad := range []NodeID{99, -1, s} {
			checks = append(checks, check{fmt.Sprintf("%s WithVMs(v1, %d)", algo, bad), func() error {
				err := embed(algo, v1, bad)
				if err == nil {
					return errors.New("embedded")
				}
				if !strings.Contains(err.Error(), "WithVMs") {
					return fmt.Errorf("error %q does not blame the restriction", err)
				}
				return nil
			}})
		}
		checks = append(checks, check{fmt.Sprintf("%s WithVMs(v1, v1, v2, v3, v2)", algo), func() error {
			return embed(algo, v1, v1, v2, v3, v2)
		}})
	}
	for _, c := range checks {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic: %v", c.name, r)
				}
			}()
			if err := c.call(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}()
	}
}
