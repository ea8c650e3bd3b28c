package chain

import (
	"testing"

	"sof/internal/graph"
)

// epochTestGraph is a 4-node diamond with one VM on each branch.
func epochTestGraph() (*graph.Graph, graph.NodeID, graph.NodeID, graph.EdgeID) {
	g := graph.New(4, 4)
	s := g.AddSwitch("s")
	v1 := g.AddVM("v1", 1)
	v2 := g.AddVM("v2", 2)
	d := g.AddSwitch("d")
	e := g.MustAddEdge(s, v1, 1)
	g.MustAddEdge(s, v2, 2)
	g.MustAddEdge(v1, d, 1)
	g.MustAddEdge(v2, d, 1)
	return g, s, d, e
}

func TestOracleEpochKeyedCache(t *testing.T) {
	g, s, d, e := epochTestGraph()
	o := NewOracle(g, Options{})

	if _, _, _, err := o.Path(s, d); err != nil {
		t.Fatal(err)
	}
	st := o.Stats()
	if st.Misses != 1 {
		t.Fatalf("first query: misses = %d, want 1", st.Misses)
	}

	if _, _, _, err := o.Path(s, d); err != nil {
		t.Fatal(err)
	}
	st = o.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("same-epoch re-query: stats = %+v, want 1 miss / 1 hit", st)
	}

	// A same-value write keeps the epoch, and the cache, intact.
	g.SetEdgeCost(e, g.EdgeCost(e))
	if _, _, _, err := o.Path(s, d); err != nil {
		t.Fatal(err)
	}
	if st = o.Stats(); st.Misses != 1 {
		t.Fatalf("same-value write: misses = %d, want 1", st.Misses)
	}

	// A real change makes the cached tree stale; the next query rebuilds
	// it (a full run, a repair or a carry) and must see the new cost.
	g.SetEdgeCost(e, 10)
	_, _, cost, err := o.Path(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if st = o.Stats(); built(st) != 2 || st.Hits != 2 {
		t.Fatalf("post-change query: stats = %+v, want 2 trees built / 2 hits", st)
	}
	if cost != 3 { // s→v2→d once s→v1 costs 10+1
		t.Errorf("post-change path cost = %v, want 3", cost)
	}
	sameTree(t, g, o.Tree(s))

	// InvalidateCache stays a valid explicit flush: one epoch bump that
	// says nothing of what changed, so the tree takes a full run.
	misses := o.Stats().Misses
	o.InvalidateCache()
	if _, _, _, err := o.Path(s, d); err != nil {
		t.Fatal(err)
	}
	if st = o.Stats(); st.Misses != misses+1 || built(st) != 3 {
		t.Fatalf("post-invalidate query: stats = %+v, want one more full run", st)
	}
}
