package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
	"sof/internal/topology"
)

// auxBuilderInstance draws a seeded SoftLayer instance plus its full
// centralized candidate set, in the canonical enumeration order.
func auxBuilderInstance(t *testing.T, seed int64) (*topology.Network, Request, *Options, []*chain.ServiceChain) {
	t.Helper()
	net := topology.SoftLayer(topology.Config{NumVMs: 12, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	req := Request{
		Sources:  net.RandomNodes(rng, 4),
		Dests:    net.RandomNodes(rng, 3),
		ChainLen: 2,
	}
	opts := &Options{VMs: net.VMs}
	oracle := chain.NewOracle(net.G, chain.Options{})
	results, err := oracle.Chains(context.Background(), net.VMs, chain.Pairs(req.Sources, net.VMs), req.ChainLen, 1)
	if err != nil {
		t.Fatalf("seed %d: candidate generation: %v", seed, err)
	}
	var candidates []*chain.ServiceChain
	for _, r := range results {
		if r.Err == nil && r.Chain != nil {
			candidates = append(candidates, r.Chain)
		}
	}
	return net, req, opts, candidates
}

// TestAuxBuilderMatchesBatchPath feeds the centralized candidate set,
// computed on a separate oracle, through the builder one chain at a time —
// with and without pruning — and pins the forest cost to the direct SOFDA
// solve, which builds Ĝ from its own oracle's batch.
func TestAuxBuilderMatchesBatchPath(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		net, req, opts, candidates := auxBuilderInstance(t, seed)
		direct, err := SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: SOFDA: %v", seed, err)
		}
		for _, prune := range []bool{false, true} {
			b, err := NewAuxGraphBuilder(net.G, req, opts)
			if err != nil {
				t.Fatalf("seed %d: builder: %v", seed, err)
			}
			if prune {
				b.EnablePruning(context.Background())
			}
			for _, sc := range candidates {
				if _, err := b.AddCandidate(sc); err != nil {
					t.Fatalf("seed %d prune=%v: AddCandidate: %v", seed, prune, err)
				}
			}
			if b.Added()+b.Pruned() != len(candidates) {
				t.Errorf("seed %d prune=%v: added %d + pruned %d != %d candidates",
					seed, prune, b.Added(), b.Pruned(), len(candidates))
			}
			f, err := b.Complete(context.Background())
			if err != nil {
				t.Fatalf("seed %d prune=%v: Complete: %v", seed, prune, err)
			}
			if f.TotalCost() != direct.TotalCost() {
				t.Errorf("seed %d prune=%v: incremental cost %v != SOFDA %v",
					seed, prune, f.TotalCost(), direct.TotalCost())
			}
		}
	}
}

// TestDominatedPairNeverEntersAuxGraph is the white-box prune pin on a
// hand-built instance where dominance is provable by inspection:
//
//	s — u1(1) — d        (cheap VM right next to the source)
//	 \— x — x — x — u2(1)  (same-setup VM behind a long detour)
//
// With chain length 1, candidate (s,u2) costs strictly more than
// candidate (s,u1) plus the u1→u2 path (its own walk runs through u1's
// neighborhood), and its single-tree rank is strictly worse — so with
// pruning armed it must never allocate an aux-graph edge, while prune-off
// admits both and both land on the same forest.
func TestDominatedPairNeverEntersAuxGraph(t *testing.T) {
	g := graph.New(8, 8)
	s := g.AddSwitch("s")
	u1 := g.AddVM("u1", 1)
	d := g.AddSwitch("d")
	x1 := g.AddSwitch("x1")
	x2 := g.AddSwitch("x2")
	u2 := g.AddVM("u2", 2) // costlier setup keeps the dominance inequality strict
	g.MustAddEdge(s, u1, 1)
	g.MustAddEdge(u1, d, 1)
	g.MustAddEdge(u1, x1, 5)
	g.MustAddEdge(x1, x2, 5)
	g.MustAddEdge(x2, u2, 5)
	req := Request{Sources: []graph.NodeID{s}, Dests: []graph.NodeID{d}, ChainLen: 1}

	oracle := chain.NewOracle(g, chain.Options{})
	chainNear, err := oracle.Chain(g.VMs(), s, u1, 1)
	if err != nil {
		t.Fatal(err)
	}
	chainFar, err := oracle.Chain(g.VMs(), s, u2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the far candidate really is dominated per the rule —
	// strictly costlier than near + dist(u1,u2), and strictly worse in
	// single-tree rank.
	distU1U2 := graph.Dijkstra(g, u1).Dist[u2]
	if !(chainFar.TotalCost() > chainNear.TotalCost()+distU1U2) {
		t.Fatalf("instance not dominated: far %v <= near %v + dist %v",
			chainFar.TotalCost(), chainNear.TotalCost(), distU1U2)
	}

	b, err := NewAuxGraphBuilder(g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.EnablePruning(context.Background())
	edgesBefore := b.aux.g.NumEdges()
	if ok, err := b.AddCandidate(chainNear); err != nil || !ok {
		t.Fatalf("near candidate not admitted: ok=%v err=%v", ok, err)
	}
	if ok, err := b.AddCandidate(chainFar); err != nil || ok {
		t.Fatalf("dominated candidate admitted: ok=%v err=%v", ok, err)
	}
	if b.Pruned() != 1 || b.Added() != 1 {
		t.Fatalf("added=%d pruned=%d, want 1 and 1", b.Added(), b.Pruned())
	}
	if got := b.aux.g.NumEdges(); got != edgesBefore+1 {
		t.Fatalf("aux graph grew %d edges for 1 admitted candidate — the pruned pair allocated state", got-edgesBefore)
	}
	if len(b.aux.chains) != 1 || b.aux.chainOf(graph.EdgeID(edgesBefore)) != chainNear {
		t.Fatalf("chains hold %d entries, want the near candidate's alone", len(b.aux.chains))
	}

	pruned, err := b.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := NewAuxGraphBuilder(g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []*chain.ServiceChain{chainNear, chainFar} {
		if ok, err := unpruned.AddCandidate(sc); err != nil || !ok {
			t.Fatalf("unpruned builder: ok=%v err=%v", ok, err)
		}
	}
	full, err := unpruned.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if pruned.TotalCost() != full.TotalCost() {
		t.Errorf("pruned forest %v != unpruned %v", pruned.TotalCost(), full.TotalCost())
	}
}

// TestAuxBuilderRejectsForeignChains pins the builder's validation: chains
// from sources or to last VMs outside the request error instead of
// silently corrupting Ĝ.
func TestAuxBuilderRejectsForeignChains(t *testing.T) {
	net, req, opts, candidates := auxBuilderInstance(t, 7)
	b, err := NewAuxGraphBuilder(net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	srcSet := make(map[graph.NodeID]bool, len(req.Sources))
	for _, s := range req.Sources {
		srcSet[s] = true
	}
	foreign := candidates[0].Clone()
	foreign.Source = graph.None
	for n := 0; n < net.G.NumNodes(); n++ {
		if !srcSet[graph.NodeID(n)] {
			foreign.Source = graph.NodeID(n)
			break
		}
	}
	if _, err := b.AddCandidate(foreign); err == nil {
		t.Error("chain from a non-source admitted")
	}
	// Wrong-length chains are skipped, not errors (mirrors the batch path).
	short := candidates[0].Clone()
	short.VMs = short.VMs[:1]
	if ok, err := b.AddCandidate(short); err != nil || ok {
		t.Errorf("wrong-length chain: ok=%v err=%v, want skipped", ok, err)
	}
}

// TestAuxBuilderChainLenZero: at chain length 0 the skeleton is the whole
// Ĝ. The builder skips every chain it is fed, a chain without VMs
// included, and completes to SOFDACtx's forest.
func TestAuxBuilderChainLenZero(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		net, req, opts, candidates := auxBuilderInstance(t, seed)
		req.ChainLen = 0
		want, err := SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: SOFDA: %v", seed, err)
		}
		b, err := NewAuxGraphBuilder(net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: builder: %v", seed, err)
		}
		empty := candidates[0].Clone()
		empty.VMs = nil
		for _, sc := range append(candidates, empty) {
			if ok, err := b.AddCandidate(sc); err != nil || ok {
				t.Fatalf("seed %d: chain %d→%d: ok=%v err=%v, want skipped", seed, sc.Source, sc.LastVM, ok, err)
			}
		}
		got, err := b.Complete(context.Background())
		if err != nil {
			t.Fatalf("seed %d: Complete: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: builder forest (cost %v) differs from SOFDACtx's (cost %v)", seed, got.TotalCost(), want.TotalCost())
		}
	}
}
