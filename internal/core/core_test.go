package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
)

// paperStyleNet builds a network in the spirit of Fig. 1: two destinations
// whose chain can be served either by one consolidated tree or by two
// cheaper per-source trees.
//
//	s0 - a(2) - b(2) - d0        s1 - c(2) - e(2) - d1
//	       \____________ expensive bridge ____________/
func paperStyleNet() (*graph.Graph, Request) {
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
	g.MustAddEdge(b, c, 20) // expensive bridge between the halves
	return g, Request{
		Sources:  []graph.NodeID{s0, s1},
		Dests:    []graph.NodeID{d0, d1},
		ChainLen: 2,
	}
}

func TestSOFDAForestBeatsSingleTree(t *testing.T) {
	g, req := paperStyleNet()
	forest, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := forest.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	// Two trees, one per source: each costs 3 edges + 2 VMs×2 = 7, total 14.
	if forest.NumTrees() != 2 {
		t.Errorf("NumTrees = %d, want 2", forest.NumTrees())
	}
	if math.Abs(forest.TotalCost()-14) > 1e-9 {
		t.Errorf("forest cost = %v, want 14", forest.TotalCost())
	}
	// The single-source solution must pay the bridge: strictly worse.
	ss, err := SOFDASSCtx(context.Background(), g, req.Sources[0], req.Dests, req.ChainLen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss.TotalCost() <= forest.TotalCost() {
		t.Errorf("single tree %v should exceed forest %v", ss.TotalCost(), forest.TotalCost())
	}
}

func TestSOFDASSLine(t *testing.T) {
	// s - v1(2) - v2(3) - d : chain of 2 → cost = 3 edges + 5 setup = 8.
	g := graph.New(4, 3)
	s := g.AddSwitch("s")
	v1 := g.AddVM("v1", 2)
	v2 := g.AddVM("v2", 3)
	d := g.AddSwitch("d")
	g.MustAddEdge(s, v1, 1)
	g.MustAddEdge(v1, v2, 1)
	g.MustAddEdge(v2, d, 1)
	f, err := SOFDASSCtx(context.Background(), g, s, []graph.NodeID{d}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.TotalCost()-8) > 1e-9 {
		t.Fatalf("cost = %v, want 8", f.TotalCost())
	}
	if len(f.UsedVMs()) != 2 || f.NumTrees() != 1 {
		t.Fatalf("VMs %v in %d trees, want 2 VMs in 1 tree", f.UsedVMs(), f.NumTrees())
	}
}

func TestSOFDASSRevisit(t *testing.T) {
	// Star: both VMs hang off a central switch; the walk must revisit it.
	g := graph.New(5, 4)
	s := g.AddSwitch("s")
	c := g.AddSwitch("c")
	a := g.AddVM("a", 1)
	b := g.AddVM("b", 1)
	d := g.AddSwitch("d")
	g.MustAddEdge(s, c, 1)
	g.MustAddEdge(c, a, 1)
	g.MustAddEdge(c, b, 1)
	g.MustAddEdge(c, d, 1)
	f, err := SOFDASSCtx(context.Background(), g, s, []graph.NodeID{d}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Walk s,c,a,c,b (4 edges) + tree b,c,d (2 edges) + 2 setup = 8.
	if math.Abs(f.TotalCost()-8) > 1e-9 {
		t.Fatalf("cost = %v, want 8", f.TotalCost())
	}
}

func TestSOFDAZeroChain(t *testing.T) {
	g, req := paperStyleNet()
	req.ChainLen = 0
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	// Pure Steiner forest: 3+3 unit edges, no VMs.
	if math.Abs(f.TotalCost()-6) > 1e-9 {
		t.Errorf("cost = %v, want 6", f.TotalCost())
	}
	if len(f.UsedVMs()) != 0 {
		t.Errorf("used VMs = %v, want none", f.UsedVMs())
	}
}

func TestRequestValidate(t *testing.T) {
	g, req := paperStyleNet()
	if err := req.Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := req
	bad.Sources = nil
	if err := bad.Validate(g); err == nil {
		t.Error("empty sources accepted")
	}
	bad = req
	bad.Dests = []graph.NodeID{99}
	if err := bad.Validate(g); err == nil {
		t.Error("out-of-range destination accepted")
	}
	bad = req
	bad.ChainLen = -1
	if err := bad.Validate(g); err == nil {
		t.Error("negative chain accepted")
	}
}

// conflictNet builds the crossing scenario that forces VNF conflicts:
// chains from s1 and s2 naturally claim the shared VMs a and b for
// different VNF indices.
func conflictNet() (*graph.Graph, graph.NodeID, graph.NodeID, graph.NodeID, graph.NodeID, []graph.NodeID) {
	g := graph.New(8, 8)
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	a := g.AddVM("a", 1)
	b := g.AddVM("b", 1)
	d1 := g.AddSwitch("d1")
	d2 := g.AddSwitch("d2")
	g.MustAddEdge(s1, a, 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, d1, 1)
	g.MustAddEdge(s2, b, 1)
	g.MustAddEdge(a, d2, 1)
	return g, s1, s2, d1, d2, []graph.NodeID{a, b}
}

func TestResolverCase1SameIndexSharing(t *testing.T) {
	g, s1, _, _, _, vms := conflictNet()
	oracle := chain.NewOracle(g, chain.Options{})
	f := NewForest(g, 2)
	r := newResolver(f, oracle, vms)

	sc1, err := oracle.Chain(vms, s1, vms[1], 2) // a=f1, b=f2
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddWalk(sc1); err != nil {
		t.Fatal(err)
	}
	// A second identical-plan walk (same chain) should share, not conflict.
	sc1b := sc1.Clone()
	last, err := r.AddWalk(sc1b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.walks) != 2 {
		t.Fatalf("walks = %d, want 2", len(r.walks))
	}
	// Shared prefix means the same VNF clones.
	if r.walks[0].vnfClones[0] != r.walks[1].vnfClones[0] ||
		r.walks[0].vnfClones[1] != r.walks[1].vnfClones[1] {
		t.Error("second walk did not share the first walk's VNF clones")
	}
	if f.clones[last].Node != sc1.LastVM {
		t.Errorf("anchor node = %d, want %d", f.clones[last].Node, sc1.LastVM)
	}
	// Setup cost paid once.
	setup, _ := f.Cost()
	if math.Abs(setup-2) > 1e-9 {
		t.Errorf("setup = %v, want 2 (VMs shared)", setup)
	}
}

func TestResolverConflictingWalks(t *testing.T) {
	g, s1, s2, d1, d2, vms := conflictNet()
	oracle := chain.NewOracle(g, chain.Options{})
	f := NewForest(g, 2)
	r := newResolver(f, oracle, vms)

	sc1, err := oracle.Chain(vms, s1, vms[1], 2) // wants a=f1, b=f2
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := oracle.Chain(vms, s2, vms[0], 2) // wants b=f1, a=f2
	if err != nil {
		t.Fatal(err)
	}
	if sc1.VNFAt(vms[0]) != 1 || sc2.VNFAt(vms[0]) != 2 {
		t.Fatalf("test setup: expected crossing plans, got %v / %v", sc1.VMs, sc2.VMs)
	}
	last1, err := r.AddWalk(sc1)
	if err != nil {
		t.Fatal(err)
	}
	last2, err := r.AddWalk(sc2)
	if err != nil {
		t.Fatal(err)
	}
	// Resolution must leave a consistent owner map: a=f1, b=f2 (walk 1's
	// claims stand; walk 2 attaches or reroutes).
	if f.VNFOf(vms[0]) != 1 || f.VNFOf(vms[1]) != 2 {
		t.Fatalf("owners: a=f%d b=f%d, want f1/f2", f.VNFOf(vms[0]), f.VNFOf(vms[1]))
	}
	// Both anchors must deliver the full chain.
	f.MarkDestination(d1, f.appendClone(last1, d1, g.FindEdge(f.clones[last1].Node, d1)))
	f.MarkDestination(d2, f.appendClone(last2, d2, g.FindEdge(f.clones[last2].Node, d2)))
	if err := f.Validate([]graph.NodeID{s1, s2}, []graph.NodeID{d1, d2}); err != nil {
		t.Fatal(err)
	}
}

// TestResolverLastResortMergesWalk: walks s1–a(f1)–b(f2) and
// s2–c(f1)–e(f2) own every VM. A third walk s3–c–a plans f1 on c, which
// the second walk owns, and f2 on a, which the first owns with f1, so no
// Procedure 4 case applies. reroute finds no free VM for its two VNFs, and
// the last resort shares the whole chain of the walk whose f2 is nearest a
// (b), then bridges b–a. Every destination is then served in chain order.
func TestResolverLastResortMergesWalk(t *testing.T) {
	g := graph.New(10, 12)
	s1, s2, s3 := g.AddSwitch("s1"), g.AddSwitch("s2"), g.AddSwitch("s3")
	a, b, c, e := g.AddVM("a", 1), g.AddVM("b", 1), g.AddVM("c", 1), g.AddVM("e", 1)
	d1, d2, d3 := g.AddSwitch("d1"), g.AddSwitch("d2"), g.AddSwitch("d3")
	g.MustAddEdge(s1, a, 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, d1, 1)
	g.MustAddEdge(s2, c, 1)
	g.MustAddEdge(c, e, 1)
	g.MustAddEdge(e, d2, 1)
	g.MustAddEdge(s3, c, 1)
	g.MustAddEdge(c, a, 1)
	g.MustAddEdge(a, d3, 1)
	vms := []graph.NodeID{a, b, c, e}
	oracle := chain.NewOracle(g, chain.Options{})
	f := NewForest(g, 2)
	r := newResolver(f, oracle, vms)
	var lasts []CloneID
	for _, w := range []struct {
		vms      []graph.NodeID
		src, end graph.NodeID
	}{{[]graph.NodeID{a, b}, s1, b}, {[]graph.NodeID{c, e}, s2, e}, {[]graph.NodeID{c, a}, s3, a}} {
		sc, err := oracle.Chain(w.vms, w.src, w.end, 2)
		if err != nil {
			t.Fatal(err)
		}
		last, err := r.AddWalk(sc)
		if err != nil {
			t.Fatal(err)
		}
		lasts = append(lasts, last)
	}
	if got, want := r.walks[2].vnfClones, r.walks[0].vnfClones; !slices.Equal(got, want) {
		t.Fatalf("third walk runs its VNFs on clones %v, want the first walk's %v", got, want)
	}
	if f.clones[lasts[2]].Node != a {
		t.Fatalf("third walk ends at node %d, want a (%d)", f.clones[lasts[2]].Node, a)
	}
	dests := []graph.NodeID{d1, d2, d3}
	for i, d := range dests {
		f.MarkDestination(d, f.appendClone(lasts[i], d, g.FindEdge(f.clones[lasts[i]].Node, d)))
	}
	if err := f.Validate([]graph.NodeID{s1, s2, s3}, dests); err != nil {
		t.Fatal(err)
	}
	if got := f.Destinations(); !slices.Equal(got, dests) {
		t.Fatalf("forest serves %v, want %v", got, dests)
	}
}

func TestSOFDAConflictScenarioEndToEnd(t *testing.T) {
	g, s1, s2, d1, d2, _ := conflictNet()
	req := Request{Sources: []graph.NodeID{s1, s2}, Dests: []graph.NodeID{d1, d2}, ChainLen: 2}
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() > 10+1e-9 {
		t.Errorf("conflict scenario cost = %v, want <= 10", f.TotalCost())
	}
}

func TestForestPruneRemovesDeadWood(t *testing.T) {
	g, s1, _, d1, _, vms := conflictNet()
	oracle := chain.NewOracle(g, chain.Options{})
	f := NewForest(g, 2)
	r := newResolver(f, oracle, vms)
	sc, err := oracle.Chain(vms, s1, vms[1], 2)
	if err != nil {
		t.Fatal(err)
	}
	last, err := r.AddWalk(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Dangle an unused branch.
	f.appendClone(last, d1, g.FindEdge(f.clones[last].Node, d1))
	dead := f.appendClone(f.roots[0], vms[0], g.FindEdge(s1, vms[0]))
	f.MarkDestination(d1, f.appendClone(last, d1, g.FindEdge(f.clones[last].Node, d1)))
	before := f.TotalCost()
	f.Prune()
	after := f.TotalCost()
	if after >= before {
		t.Fatalf("prune did not reduce cost: %v -> %v", before, after)
	}
	if !f.clones[dead].deleted {
		t.Error("dead branch survived pruning")
	}
	if err := f.Validate([]graph.NodeID{s1}, []graph.NodeID{d1}); err != nil {
		t.Fatal(err)
	}
}

// TestForestValidateRejectsBadForests breaks a valid forest once per
// check Validate makes and requires the message of that check. The forest
// serves d1 from s1 over s1 → a (f1) → b (f2) → d1, as clones 0 to 3; a
// is node 2, b node 3 and d1 node 4.
func TestForestValidateRejectsBadForests(t *testing.T) {
	g, s1, s2, d1, d2, vms := conflictNet()
	a, b := vms[0], vms[1]
	valid := func() *Forest {
		f := NewForest(g, 2)
		c := f.newRoot(s1)
		for i, v := range []graph.NodeID{a, b, d1} {
			c = f.appendClone(c, v, g.FindEdge(f.clones[c].Node, v))
			if i < 2 {
				if err := f.enable(c, i+1); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.MarkDestination(d1, c)
		return f
	}
	if err := valid().Validate([]graph.NodeID{s1}, []graph.NodeID{d1}); err != nil {
		t.Fatalf("the unbroken forest: %v", err)
	}
	for _, tc := range []struct {
		name    string
		breakIt func(f *Forest)
		sources []graph.NodeID // {s1} when nil
		dests   []graph.NodeID // {d1} when nil
		want    string
	}{
		{"deleted parent", func(f *Forest) { f.clones[2].deleted = true }, nil, nil,
			"core: clone 3 has deleted parent 2"},
		{"in-place link across nodes", func(f *Forest) { f.clones[3].ParentEdge = graph.NoEdge }, nil, nil,
			"core: clone 3 in-place link to different node 3"},
		{"parent edge elsewhere", func(f *Forest) { f.clones[3].ParentEdge = g.FindEdge(s1, a) }, nil, nil,
			"core: clone 3 parent edge 0 does not connect 4-3"},
		{"parent cycle", func(f *Forest) { f.clones[1].Parent, f.clones[1].ParentEdge = 2, g.FindEdge(a, b) }, nil, nil,
			"core: parent cycle at clone 1"},
		{"VNF on a switch", func(f *Forest) { f.clones[0].VNF = 1 }, nil, nil,
			"core: non-VM node 0 runs f1"},
		{"VNF out of range", func(f *Forest) { f.clones[2].VNF = 3 }, nil, nil,
			"core: clone 2 runs out-of-range VNF f3"},
		{"VM runs two VNFs", func(f *Forest) { f.clones[f.appendClone(2, a, g.FindEdge(a, b))].VNF = 2 }, nil, nil,
			"core: VM 2 runs two VNFs (f1 and f2)"},
		{"owner record inconsistent", func(f *Forest) { f.owner[a] = vmUse{vnf: 2, clone: 1} }, nil, nil,
			"core: owner record for VM 2 inconsistent"},
		{"owner record extra", func(f *Forest) { f.owner[d1] = vmUse{vnf: 1, clone: 3} }, nil, nil,
			"core: 2 enabled clones but 3 owner records"},
		{"destination not served", func(*Forest) {}, nil, []graph.NodeID{d1, d2},
			"core: destination 5 not served"},
		{"destination at a deleted clone", func(f *Forest) { f.clones[3].deleted = true }, nil, nil,
			"core: destination 4 served by deleted clone 3"},
		{"destination at another node", func(f *Forest) { f.dests[d1] = 2 }, nil, nil,
			"core: destination 4 served by clone of node 3"},
		{"VNFs out of order twice", func(f *Forest) {
			f.clones[1].VNF, f.clones[2].VNF = 2, 1
			f.owner[a], f.owner[b] = vmUse{vnf: 2, clone: 1}, vmUse{vnf: 1, clone: 2}
		}, nil, nil,
			"core: destination 4: core: VNF f2 out of order (expected f1) at clone 1"},
		{"chain cut short", func(f *Forest) { f.disable(2) }, nil, nil,
			"core: destination 4 received 1 of 2 VNFs"},
		{"rooted off the sources", func(*Forest) {}, []graph.NodeID{s2}, nil,
			"core: destination 4 rooted at non-source node 0"},
	} {
		f := valid()
		tc.breakIt(f)
		sources, dests := tc.sources, tc.dests
		if sources == nil {
			sources = []graph.NodeID{s1}
		}
		if dests == nil {
			dests = []graph.NodeID{d1}
		}
		if err := f.Validate(sources, dests); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate returned %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestEnableRejectsConflicts(t *testing.T) {
	g, s1, _, _, _, vms := conflictNet()
	f := NewForest(g, 2)
	root := f.newRoot(s1)
	c1 := f.appendClone(root, vms[0], g.FindEdge(s1, vms[0]))
	if err := f.enable(c1, 1); err != nil {
		t.Fatal(err)
	}
	c2 := f.appendClone(c1, vms[1], g.FindEdge(vms[0], vms[1]))
	c3 := f.appendClone(c2, vms[0], g.FindEdge(vms[0], vms[1]))
	if err := f.enable(c3, 2); err == nil {
		t.Error("double-enable of a VM accepted")
	}
	if err := f.enable(c2, 5); err != nil {
		t.Error("enable on fresh VM refused:", err)
	}
	if err := f.enable(root, 1); err == nil {
		t.Error("enable on switch accepted")
	}
}

// TestSOFDARandomFeasibility is the main property test: on random connected
// networks with random requests, SOFDA and SOFDA-SS always produce feasible
// forests with finite cost >= the trivial VM lower bound.
func TestSOFDARandomFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ok := 0
	for seed := int64(0); seed < 60; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 22, ExtraEdges: 30, VMFraction: 0.45, MaxEdge: 9, MaxSetup: 6,
		}, seed)
		vms := g.VMs()
		sws := g.Switches()
		if len(vms) < 5 || len(sws) < 4 {
			continue
		}
		chainLen := 1 + rng.Intn(3)
		nSrc := 1 + rng.Intn(3)
		nDst := 1 + rng.Intn(3)
		srcs := graph.SampleDistinct(rng, sws, nSrc)
		dsts := graph.SampleDistinct(rng, sws, nDst)
		// Avoid source/dest overlap for clarity.
		overlap := false
		for _, s := range srcs {
			for _, d := range dsts {
				if s == d {
					overlap = true
				}
			}
		}
		if overlap {
			continue
		}
		req := Request{Sources: srcs, Dests: dsts, ChainLen: chainLen}
		f, err := SOFDACtx(context.Background(), g, req, nil)
		if err != nil {
			t.Fatalf("seed %d: SOFDA: %v", seed, err)
		}
		if err := f.Validate(srcs, dsts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lb := lowerBoundCost(g, vms, chainLen)
		if f.TotalCost() < lb-1e-9 {
			t.Fatalf("seed %d: cost %v below lower bound %v", seed, f.TotalCost(), lb)
		}
		ss, err := SOFDASSCtx(context.Background(), g, srcs[0], dsts, chainLen, nil)
		if err != nil {
			t.Fatalf("seed %d: SOFDA-SS: %v", seed, err)
		}
		if err := ss.Validate(srcs[:1], dsts); err != nil {
			t.Fatalf("seed %d: SOFDA-SS validate: %v", seed, err)
		}
		ok++
	}
	if ok < 30 {
		t.Fatalf("only %d random instances were exercised", ok)
	}
	t.Logf("validated %d random instances", ok)
}

func TestSOFDAUsesMultipleSourcesWhenCheaper(t *testing.T) {
	g, req := paperStyleNet()
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	roots := f.Roots()
	rootNodes := make(map[graph.NodeID]bool)
	for _, r := range roots {
		rootNodes[f.Clone(r).Node] = true
	}
	if !rootNodes[req.Sources[0]] || !rootNodes[req.Sources[1]] {
		t.Errorf("expected both sources used, roots = %v", rootNodes)
	}
}

func TestStatsAndAccessors(t *testing.T) {
	g, req := paperStyleNet()
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if setup, conn := f.Cost(); setup+conn != f.TotalCost() {
		t.Error("Cost does not add up to TotalCost")
	}
	if len(f.UsedVMs()) != len(f.owner) {
		t.Error("UsedVMs does not list every owned VM")
	}
	if f.ChainLen() != 2 || f.Graph() != g {
		t.Error("accessors broken")
	}
	ds := f.Destinations()
	if len(ds) != 2 {
		t.Errorf("Destinations = %v", ds)
	}
	if _, ok := f.DestClone(ds[0]); !ok {
		t.Error("DestClone missing")
	}
}
