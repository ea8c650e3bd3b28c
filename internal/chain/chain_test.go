package chain

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sof/internal/graph"
	"sof/internal/kstroll"
)

// lineNet builds s - v1 - v2 - v3 - t with VMs v1..v3 (costs 2,3,4) and unit
// edges.
func lineNet() (*graph.Graph, graph.NodeID, []graph.NodeID, graph.NodeID) {
	g := graph.New(5, 4)
	s := g.AddSwitch("s")
	v1 := g.AddVM("v1", 2)
	v2 := g.AddVM("v2", 3)
	v3 := g.AddVM("v3", 4)
	t := g.AddSwitch("t")
	g.MustAddEdge(s, v1, 1)
	g.MustAddEdge(v1, v2, 1)
	g.MustAddEdge(v2, v3, 1)
	g.MustAddEdge(v3, t, 1)
	return g, s, []graph.NodeID{v1, v2, v3}, t
}

func TestChainOnLine(t *testing.T) {
	g, s, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	sc, err := o.Chain(vms, s, vms[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(g, 3); err != nil {
		t.Fatal(err)
	}
	// Forced order v1,v2,v3: setup 9, connection 3.
	if math.Abs(sc.SetupCost-9) > 1e-9 {
		t.Errorf("setup = %v, want 9", sc.SetupCost)
	}
	if math.Abs(sc.ConnCost-3) > 1e-9 {
		t.Errorf("conn = %v, want 3", sc.ConnCost)
	}
	if sc.VNFAt(vms[0]) != 1 || sc.VNFAt(vms[2]) != 3 || sc.VNFAt(s) != 0 {
		t.Errorf("VNF placement wrong: %v", sc.VMs)
	}
}

func TestChainShorterThanVMCount(t *testing.T) {
	g, s, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	// Only 1 VNF: best last VM v1 gives setup 2, conn 1.
	sc, err := o.Chain(vms, s, vms[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sc.TotalCost()-3) > 1e-9 {
		t.Errorf("total = %v, want 3", sc.TotalCost())
	}
}

func TestChainErrors(t *testing.T) {
	g, s, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	if _, err := o.Chain(vms, s, vms[0], 0); err == nil {
		t.Error("chainLen 0 accepted")
	}
	if _, err := o.Chain(vms, s, s, 1); err == nil {
		t.Error("last VM not in candidates accepted")
	}
	if _, err := o.Chain(vms, s, vms[0], 4); err == nil {
		t.Error("chain longer than VM count accepted")
	}
}

func TestChainDisconnected(t *testing.T) {
	g := graph.New(3, 1)
	s := g.AddSwitch("s")
	v := g.AddVM("v", 1)
	w := g.AddVM("w", 1)
	g.MustAddEdge(s, v, 1)
	o := NewOracle(g, Options{})
	if _, err := o.Chain([]graph.NodeID{v, w}, s, w, 2); err == nil {
		t.Error("disconnected chain accepted")
	}
}

func TestChainWalkRevisitsNodes(t *testing.T) {
	// Star: center c (switch), VMs a,b hang off it. Chain of 2 must go
	// s→c→a→c→b, revisiting c.
	g := graph.New(5, 4)
	s := g.AddSwitch("s")
	c := g.AddSwitch("c")
	a := g.AddVM("a", 1)
	b := g.AddVM("b", 1)
	g.MustAddEdge(s, c, 1)
	g.MustAddEdge(c, a, 1)
	g.MustAddEdge(c, b, 1)
	o := NewOracle(g, Options{})
	sc, err := o.Chain([]graph.NodeID{a, b}, s, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(g, 2); err != nil {
		t.Fatal(err)
	}
	// Walk: s,c,a,c,b — 5 nodes, conn 4, setup 2.
	if math.Abs(sc.ConnCost-4) > 1e-9 || math.Abs(sc.SetupCost-2) > 1e-9 {
		t.Errorf("conn=%v setup=%v, want 4 and 2 (walk %v)", sc.ConnCost, sc.SetupCost, sc.Nodes)
	}
	seen := make(map[graph.NodeID]int)
	for _, n := range sc.Nodes {
		seen[n]++
	}
	if seen[c] != 2 {
		t.Errorf("center visited %d times, want 2 (walk %v)", seen[c], sc.Nodes)
	}
}

// TestInstanceMetricity property-tests Lemma 1: the auxiliary graph 𝒢
// satisfies the triangle inequality on random networks.
func TestInstanceMetricity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 20, ExtraEdges: 25, VMFraction: 0.5, MaxEdge: 8, MaxSetup: 6,
		}, seed)
		vms := g.VMs()
		if len(vms) < 3 {
			continue
		}
		var s graph.NodeID
		for _, sw := range g.Switches() {
			s = sw
			break
		}
		o := NewOracle(g, Options{})
		cand := make([]graph.NodeID, 0, len(vms))
		uIdx := 0
		for _, v := range vms {
			if v != s {
				cand = append(cand, v)
			}
		}
		in, err := o.buildInstance(newVMSet(cand), o.Tree(s), uIdx, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !in.Metric(1e-9) {
			t.Fatalf("seed %d: auxiliary instance is not metric (Lemma 1 violated)", seed)
		}
	}
}

// TestStrollCostEqualsChainCost verifies the Procedure 1 cost identity: the
// stroll cost in 𝒢 equals setup+connection cost of the materialized chain.
func TestStrollCostEqualsChainCost(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for seed := int64(0); seed < 25; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 18, ExtraEdges: 22, VMFraction: 0.5, MaxEdge: 9, MaxSetup: 7,
		}, seed)
		vms := g.VMs()
		sws := g.Switches()
		if len(vms) < 4 || len(sws) == 0 {
			continue
		}
		s := sws[rng.Intn(len(sws))]
		u := vms[rng.Intn(len(vms))]
		chainLen := 2 + rng.Intn(3)
		if chainLen > len(vms) {
			chainLen = len(vms)
		}
		o := NewOracle(g, Options{})
		sc, err := o.Chain(vms, s, u, chainLen)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sc.Validate(g, chainLen); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sc.LastVM != u {
			t.Fatalf("seed %d: last VM %d, want %d", seed, sc.LastVM, u)
		}
		// Recompute the stroll cost through the instance directly.
		cand := make([]graph.NodeID, 0, len(vms))
		uIdx := -1
		for _, v := range vms {
			if v == s {
				continue
			}
			if v == u {
				uIdx = len(cand)
			}
			cand = append(cand, v)
		}
		in, err := o.buildInstance(newVMSet(cand), o.Tree(s), uIdx, chainLen)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w, err := kstroll.Auto().Solve(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(w.Cost-sc.TotalCost()) > 1e-6 {
			t.Fatalf("seed %d: stroll cost %v != chain cost %v", seed, w.Cost, sc.TotalCost())
		}
	}
}

func TestSourceSetupCostVariant(t *testing.T) {
	g := graph.New(3, 2)
	s := g.AddVM("s", 10) // a costed source (Appendix D)
	v := g.AddVM("v", 2)
	u := g.AddVM("u", 3)
	g.MustAddEdge(s, v, 1)
	g.MustAddEdge(v, u, 1)
	plain := NewOracle(g, Options{})
	withSrc := NewOracle(g, Options{SourceSetupCost: true})
	scPlain, err := plain.Chain([]graph.NodeID{v, u}, s, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	scSrc, err := withSrc.Chain([]graph.NodeID{v, u}, s, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scSrc.TotalCost()-(scPlain.TotalCost()+10)) > 1e-9 {
		t.Fatalf("source setup variant: %v, want %v+10", scSrc.TotalCost(), scPlain.TotalCost())
	}
}

func TestExtensionZeroVMs(t *testing.T) {
	g, s, vms, tgt := lineNet()
	o := NewOracle(g, Options{})
	sc, err := o.Extension(vms, s, tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sc.TotalCost()-4) > 1e-9 {
		t.Fatalf("extension cost = %v, want 4 (plain shortest path)", sc.TotalCost())
	}
	if len(sc.VMs) != 0 {
		t.Fatalf("extension enabled VMs %v, want none", sc.VMs)
	}
}

func TestExtensionWithVMs(t *testing.T) {
	g, s, vms, tgt := lineNet()
	o := NewOracle(g, Options{})
	sc, err := o.Extension(vms, s, tgt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.VMs) != 2 {
		t.Fatalf("extension enabled %d VMs, want 2", len(sc.VMs))
	}
	// Cheapest pair is v1 (2) + v2 (3); the walk s→v1→v2→t costs
	// conn 1+1+2 = 4 (v2→v3→t), setup 5, total 9.
	if math.Abs(sc.TotalCost()-9) > 1e-9 {
		t.Fatalf("extension cost = %v, want 9 (VMs %v, walk %v)", sc.TotalCost(), sc.VMs, sc.Nodes)
	}
}

func TestExtensionInfeasible(t *testing.T) {
	g, s, vms, tgt := lineNet()
	o := NewOracle(g, Options{})
	if _, err := o.Extension(vms, s, tgt, 4); err == nil {
		t.Error("infeasible extension accepted")
	}
	if _, err := o.Extension(vms, s, tgt, -1); err == nil {
		t.Error("negative VM count accepted")
	}
}

func TestInvalidateCache(t *testing.T) {
	g, s, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	before, err := o.Chain(vms, s, vms[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	// Make edge (s,v1) expensive; without invalidation the oracle would
	// keep using the stale tree.
	g.SetEdgeCost(0, 100)
	o.InvalidateCache()
	after, err := o.Chain(vms, s, vms[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if after.TotalCost() <= before.TotalCost() {
		t.Fatalf("cost after price hike %v should exceed %v", after.TotalCost(), before.TotalCost())
	}
}

func TestChainClone(t *testing.T) {
	g, s, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	sc, err := o.Chain(vms, s, vms[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	cp := sc.Clone()
	cp.VMs[0] = 99
	cp.Nodes[0] = 99
	if sc.VMs[0] == 99 || sc.Nodes[0] == 99 {
		t.Fatal("Clone shares storage")
	}
}

// TestChainSkipsVMsTheSourceCannotReach cuts one VM off by a link failure:
// chains to the other VMs leave it out, and a chain to it fails with its
// own unreachable error.
func TestChainSkipsVMsTheSourceCannotReach(t *testing.T) {
	g, s, vms, _ := lineNet()
	g.FailEdge(g.FindEdge(vms[1], vms[2]))
	o := NewOracle(g, Options{})
	sc, err := o.Chain(vms, s, vms[1], 2)
	if err != nil {
		t.Fatalf("chain to a reachable VM: %v", err)
	}
	if err := sc.Validate(g, 2); err != nil {
		t.Fatal(err)
	}
	if sc.VNFAt(vms[2]) != 0 {
		t.Fatalf("chain %v uses the cut-off VM %d", sc.VMs, vms[2])
	}
	_, err = o.Chain(vms, s, vms[2], 2)
	want := fmt.Sprintf("chain: VM %d unreachable from source %d: %v", vms[2], s, graph.ErrDisconnected)
	if err == nil || err.Error() != want {
		t.Fatalf("chain to the cut-off VM: error %v, want %s", err, want)
	}
}

// TestExtensionSkipsVMsTheSourceCannotReach cuts one spare VM off by a
// link failure: an extension that needs no more VMs than `from` still
// reaches leaves it out, and one to a cut-off node fails with that pair's
// own error.
func TestExtensionSkipsVMsTheSourceCannotReach(t *testing.T) {
	g, s, vms, tgt := lineNet()
	g.FailEdge(g.FindEdge(vms[1], vms[2]))
	o := NewOracle(g, Options{})
	sc, err := o.Extension(vms, s, vms[1], 1)
	if err != nil {
		t.Fatalf("extension to a reachable node: %v", err)
	}
	if want := []graph.NodeID{s, vms[0], vms[1]}; !slices.Equal(sc.VMs, want[1:2]) || !slices.Equal(sc.Nodes, want) {
		t.Fatalf("extension walk %v with VMs %v, want walk %v through VM %d", sc.Nodes, sc.VMs, want, vms[0])
	}
	_, err = o.Extension(vms, s, tgt, 1)
	want := fmt.Sprintf("chain: %d and %d disconnected: %v", s, tgt, graph.ErrDisconnected)
	if err == nil || err.Error() != want {
		t.Fatalf("extension to the cut-off node: error %v, want %s", err, want)
	}
}
