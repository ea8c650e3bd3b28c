package core

import (
	"context"
	"reflect"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
)

// chainWatch keeps a clone of every chain the oracle's Chains hands out,
// taken when the chain is first returned, so that a write into a shared
// chain shows up as a chain that no longer equals its clone.
type chainWatch struct {
	t      *testing.T
	seen   map[*chain.ServiceChain]bool
	live   []*chain.ServiceChain
	clones []*chain.ServiceChain
}

func (w *chainWatch) record(results []chain.Result) {
	for _, r := range results {
		if r.Chain != nil && !w.seen[r.Chain] {
			w.seen[r.Chain] = true
			w.live = append(w.live, r.Chain)
			w.clones = append(w.clones, r.Chain.Clone())
		}
	}
}

func (w *chainWatch) check(label string) {
	w.t.Helper()
	for i, sc := range w.live {
		if !reflect.DeepEqual(sc, w.clones[i]) {
			w.t.Fatalf("%s: the shared chain %d→%d was written: %+v, was %+v", label, sc.Source, sc.LastVM, sc, w.clones[i])
		}
	}
}

// surgeryNet is a network on which SOFDA's Steiner tree picks crossing
// candidate chains, so conflict resolution has to operate on them. For
// sources {s1, s2} and destinations {d1, d2} it picks s1→[m, y] and
// s2→[x, m]: m hosts f1 on the first and f2 on the second, so the first
// walk is re-rooted onto the second's prefix. Adding d4 adds s1→[m, y2],
// which shares the first walk's f1 clone, so that surgery is unsafe and
// s2's walk is re-routed over the free VMs x and x2.
func surgeryNet() (g *graph.Graph, sources, dests []graph.NodeID) {
	g = graph.New(10, 9)
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	m := g.AddVM("m", 1)
	y := g.AddVM("y", 1)
	y2 := g.AddVM("y2", 1)
	x := g.AddVM("x", 1)
	x2 := g.AddVM("x2", 1)
	d1 := g.AddSwitch("d1")
	d2 := g.AddSwitch("d2")
	d4 := g.AddSwitch("d4")
	g.MustAddEdge(s1, m, 1)
	g.MustAddEdge(m, y, 1)
	g.MustAddEdge(y, d1, 6)
	g.MustAddEdge(m, y2, 1)
	g.MustAddEdge(y2, d4, 6)
	g.MustAddEdge(s2, x, 1.5)
	g.MustAddEdge(x, m, 1)
	g.MustAddEdge(m, d2, 6)
	g.MustAddEdge(s2, x2, 3)
	return g, []graph.NodeID{s1, s2}, []graph.NodeID{d1, d2, d4}
}

// TestChainsResultsStayReadOnly drives SOFDA with overlapping sources (so
// conflict resolution installs, re-roots and re-routes walks), SOFDA-SS
// and the AuxGraphBuilder, pruned and unpruned, over one warm oracle in one
// cost epoch. Chains hands every one of them the memo's own
// chains: a repeated batch must return the same pointers, and no embed may
// write into any chain it was handed.
func TestChainsResultsStayReadOnly(t *testing.T) {
	ctx := context.Background()
	g, sources, dests := surgeryNet()
	vms := g.VMs()
	oracle := chain.NewOracle(g, chain.Options{})
	opts := &Options{Oracle: oracle, VMs: vms, Parallelism: 4}
	w := &chainWatch{t: t, seen: make(map[*chain.ServiceChain]bool)}
	epoch := g.CostEpoch()

	fetch := func(sources []graph.NodeID, chainLen int) []chain.Result {
		t.Helper()
		pairs := chain.Pairs(sources, vms)
		results, err := oracle.Chains(ctx, vms, pairs, chainLen, 4)
		if err != nil {
			t.Fatal(err)
		}
		again, err := oracle.Chains(ctx, vms, pairs, chainLen, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			if results[i].Chain != again[i].Chain {
				t.Fatalf("pair %v: two batches in one epoch returned different chains", pairs[i])
			}
		}
		w.record(results)
		return results
	}

	requests := []Request{
		{Sources: sources, Dests: dests[:2], ChainLen: 2}, // re-roots
		{Sources: sources, Dests: dests, ChainLen: 2},     // re-routes
		{Sources: sources[1:], Dests: dests, ChainLen: 2},
		{Sources: sources, Dests: dests[1:], ChainLen: 3},
		{Sources: []graph.NodeID{sources[1], sources[0]}, Dests: dests, ChainLen: 3},
	}
	for i, req := range requests {
		results := fetch(req.Sources, req.ChainLen)

		if _, err := SOFDACtx(ctx, g, req, opts); err != nil {
			t.Fatalf("request %d: SOFDA: %v", i, err)
		}
		w.check("SOFDA")

		for _, s := range req.Sources {
			if _, err := SOFDASSCtx(ctx, g, s, req.Dests, req.ChainLen, opts); err != nil {
				t.Fatalf("request %d: SOFDA-SS from %d: %v", i, s, err)
			}
			w.check("SOFDA-SS")
		}

		var candidates []*chain.ServiceChain
		for _, r := range results {
			if r.Err == nil {
				candidates = append(candidates, r.Chain)
			}
		}
		for _, prune := range []bool{false, true} {
			b, err := NewAuxGraphBuilder(g, req, opts)
			if err != nil {
				t.Fatal(err)
			}
			if prune {
				b.EnablePruning(ctx)
			}
			for _, sc := range candidates {
				if _, err := b.AddCandidate(sc); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := b.Complete(ctx); err != nil {
				t.Fatalf("request %d: AuxGraphBuilder: %v", i, err)
			}
			w.check("AuxGraphBuilder")
		}
	}
	if g.CostEpoch() != epoch {
		t.Fatal("test setup: the cost epoch moved, so the memo was not shared throughout")
	}
	if len(w.live) == 0 {
		t.Fatal("no chain was handed out")
	}
}
