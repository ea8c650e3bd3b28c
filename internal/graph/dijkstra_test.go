package graph

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randomMultigraph builds a connected multigraph with integer-valued edge
// costs (so path sums are exact in float64), including parallel edges and
// zero-cost links — the cases the flat-heap Dijkstra must get right.
func randomMultigraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(40)
	g := New(n, 4*n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			g.AddVM("", float64(1+rng.Intn(5)))
		} else {
			g.AddSwitch("")
		}
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(rng.Intn(i)), float64(rng.Intn(10)))
	}
	for k := 0; k < 3*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		// Repeating endpoints on purpose: parallel edges with different
		// costs exercise the multigraph path of the CSR layout.
		g.MustAddEdge(NodeID(u), NodeID(v), float64(rng.Intn(10)))
	}
	return g
}

// TestDijkstraMatchesBellmanFordMultigraph pins the flat-heap Dijkstra
// against the independent Bellman–Ford oracle on random multigraphs with
// parallel edges and zero-cost links. Costs are integers, so distances
// must agree exactly, not just within epsilon.
func TestDijkstraMatchesBellmanFordMultigraph(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomMultigraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		for trial := 0; trial < 3; trial++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			got := Dijkstra(g, src)
			want := BellmanFord(g, src)
			for v := 0; v < g.NumNodes(); v++ {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("seed %d src %d: Dist[%d] = %v, BellmanFord says %v",
						seed, src, v, got.Dist[v], want.Dist[v])
				}
			}
			verifyTree(t, g, got)
		}
	}
}

// verifyTree checks the parent structure realizes the claimed distances:
// the ParentEdge chain from the source to any reachable node, summed in
// path order (the order a relaxation accumulates it), is exactly Dist[v].
func verifyTree(t *testing.T, g *Graph, sp *ShortestPaths) {
	t.Helper()
	var chain []EdgeID
	for v := 0; v < g.NumNodes(); v++ {
		if !sp.Reachable(NodeID(v)) {
			if sp.ParentEdge[v] != NoEdge {
				t.Fatalf("unreachable node %d has a parent edge", v)
			}
			continue
		}
		chain = chain[:0]
		for cur := NodeID(v); cur != sp.Source; {
			e := sp.ParentEdge[cur]
			if e == NoEdge {
				t.Fatalf("node %d: parent chain broken at %d", v, cur)
			}
			ed := g.Edge(e)
			if ed.U != cur && ed.V != cur {
				t.Fatalf("node %d: ParentEdge %d of %d does not touch it", v, e, cur)
			}
			if chain = append(chain, e); len(chain) > g.NumNodes() {
				t.Fatalf("node %d: parent chain cycles", v)
			}
			cur = ed.Other(cur)
		}
		var sum float64
		for i := len(chain) - 1; i >= 0; i-- {
			sum += g.EdgeCost(chain[i])
		}
		if sum != sp.Dist[v] {
			t.Fatalf("node %d: parent chain cost %v != Dist %v", v, sum, sp.Dist[v])
		}
	}
}

// TestDijkstraZeroCostComponent covers the all-zero-cost corner: every
// node at distance 0, ties broken deterministically.
func TestDijkstraZeroCostComponent(t *testing.T) {
	g := New(5, 6)
	for i := 0; i < 5; i++ {
		g.AddSwitch("")
	}
	for i := 1; i < 5; i++ {
		g.MustAddEdge(NodeID(i-1), NodeID(i), 0)
	}
	g.MustAddEdge(0, 4, 0)
	sp := Dijkstra(g, 2)
	for v := 0; v < 5; v++ {
		if sp.Dist[v] != 0 {
			t.Fatalf("Dist[%d] = %v, want 0", v, sp.Dist[v])
		}
	}
	again := Dijkstra(g, 2)
	for v := 0; v < 5; v++ {
		if sp.ParentEdge[v] != again.ParentEdge[v] {
			t.Fatalf("tree not deterministic at node %d", v)
		}
	}
}

// TestDijkstraDeterministic asserts run-to-run identical trees (the
// smallest-id tie-break), which downstream cost-equality guarantees
// (centralized vs distributed SOFDA) build on.
func TestDijkstraDeterministic(t *testing.T) {
	g := randomMultigraph(7)
	a := Dijkstra(g, 0)
	b := Dijkstra(g, 0)
	for v := 0; v < g.NumNodes(); v++ {
		if a.ParentEdge[v] != b.ParentEdge[v] || a.Dist[v] != b.Dist[v] {
			t.Fatalf("non-deterministic tree at node %d", v)
		}
	}
}

// TestDijkstraPooledScratchAcrossSizes drives the pooled scratch through
// graphs of very different sizes, in both directions, to catch stale
// heap-position or settled-marker state leaking between runs.
func TestDijkstraPooledScratchAcrossSizes(t *testing.T) {
	sizes := []int64{3, 11, 5, 23, 2, 31, 4}
	for round := 0; round < 3; round++ {
		for _, seed := range sizes {
			g := randomMultigraph(seed)
			got := Dijkstra(g, 0)
			want := BellmanFord(g, 0)
			for v := 0; v < g.NumNodes(); v++ {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("round %d seed %d: Dist[%d] = %v, want %v",
						round, seed, v, got.Dist[v], want.Dist[v])
				}
			}
		}
	}
}

// TestDijkstraConcurrent runs many Dijkstras concurrently over shared
// graphs: the pool must hand every goroutine private scratch, and the
// lazily built CSR view must be safe under concurrent first use.
func TestDijkstraConcurrent(t *testing.T) {
	g := randomMultigraph(13)
	want := make([]*ShortestPaths, g.NumNodes())
	for v := range want {
		want[v] = BellmanFord(g, NodeID(v))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := (w + i) % g.NumNodes()
				sp := Dijkstra(g, NodeID(src))
				for v := 0; v < g.NumNodes(); v++ {
					if sp.Dist[v] != want[src].Dist[v] {
						t.Errorf("concurrent run src %d: Dist[%d] = %v, want %v",
							src, v, sp.Dist[v], want[src].Dist[v])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCSRRebuildAfterGrowth mutates topology after the CSR view exists
// (the aux-graph pattern: clone, then add virtual nodes and edges) and
// checks the rebuilt view is consulted.
func TestCSRRebuildAfterGrowth(t *testing.T) {
	g := New(3, 3)
	g.AddSwitch("a")
	g.AddSwitch("b")
	g.AddSwitch("c")
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 5)
	if d := Dijkstra(g, 0).Dist[2]; d != 10 {
		t.Fatalf("Dist[2] = %v, want 10", d)
	}
	// Add a shortcut; the stale CSR would miss it.
	g.MustAddEdge(0, 2, 1)
	if d := Dijkstra(g, 0).Dist[2]; d != 1 {
		t.Fatalf("after AddEdge: Dist[2] = %v, want 1", d)
	}
	// And a new node hanging off the shortcut.
	n := g.AddSwitch("d")
	g.MustAddEdge(2, n, 2)
	if d := Dijkstra(g, 0).Dist[n]; d != 3 {
		t.Fatalf("after AddSwitch: Dist[%d] = %v, want 3", n, d)
	}
}

// TestIndexedHeap unit-tests the heap directly: ordering, decrease-key,
// id tie-breaks, self-restoring positions, Reset after partial drains.
func TestIndexedHeap(t *testing.T) {
	h := NewIndexedHeap(10)
	h.Update(3, 5)
	h.Update(7, 2)
	h.Update(1, 8)
	h.Update(9, 2) // ties with 7; 7 must pop first (smaller id)
	h.Update(1, 1) // decrease-key
	order := []int32{1, 7, 9, 3}
	keys := []float64{1, 2, 2, 5}
	for i, wantV := range order {
		v, k := h.Pop()
		if v != wantV || k != keys[i] {
			t.Fatalf("pop %d: got (%d,%v), want (%d,%v)", i, v, k, wantV, keys[i])
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty after drain")
	}
	// After a full drain, positions must be restored without Reset.
	for v := int32(0); v < 10; v++ {
		if h.Contains(v) {
			t.Fatalf("drained heap still contains %d", v)
		}
	}
	// Partial drain + Reset.
	h.Update(4, 1)
	h.Update(5, 2)
	if v, _ := h.Pop(); v != 4 {
		t.Fatalf("partial pop got %d", v)
	}
	h.Reset()
	if h.Len() != 0 || h.Contains(5) {
		t.Fatalf("Reset left state behind")
	}
	// Increase-key must reorder too.
	h.Update(2, 1)
	h.Update(6, 3)
	h.Update(2, 9)
	if v, _ := h.Pop(); v != 6 {
		t.Fatalf("increase-key not honored, popped %d", v)
	}
	h.Grow(100)
	h.Update(99, 0.5)
	if v, _ := h.Pop(); v != 99 {
		t.Fatalf("post-Grow pop got %d", v)
	}
}

// TestDijkstraBatchMatchesSingle pins the batched arena path against
// per-source Dijkstra runs: distances, parents, and parent edges must be
// bit-identical, and results must come back in source order with
// duplicates aliased.
func TestDijkstraBatchMatchesSingle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomMultigraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x77aa))
		sources := make([]NodeID, 0, 6)
		for i := 0; i < 5; i++ {
			sources = append(sources, NodeID(rng.Intn(g.NumNodes())))
		}
		sources = append(sources, sources[0]) // duplicate on purpose
		arena := NewArena()
		batch := DijkstraBatch(g, sources, arena)
		if len(batch) != len(sources) {
			t.Fatalf("seed %d: %d results for %d sources", seed, len(batch), len(sources))
		}
		if batch[len(batch)-1] != batch[0] {
			t.Fatalf("seed %d: duplicate source not aliased", seed)
		}
		for i, s := range sources {
			want := Dijkstra(g, s)
			got := batch[i]
			if got.Source != s {
				t.Fatalf("seed %d: result %d has source %d, want %d", seed, i, got.Source, s)
			}
			for v := 0; v < g.NumNodes(); v++ {
				if got.Dist[v] != want.Dist[v] || got.ParentEdge[v] != want.ParentEdge[v] {
					t.Fatalf("seed %d source %d node %d: batch (%v,%d) != single (%v,%d)",
						seed, s, v, got.Dist[v], got.ParentEdge[v], want.Dist[v], want.ParentEdge[v])
				}
			}
		}
	}
}

// BenchmarkDijkstra measures a single-source run on a mid-size graph;
// allocs/op is the pooled-scratch headline (only the three result arrays
// should allocate).
func BenchmarkDijkstra(b *testing.B) {
	g := RandomConnected(RandomConfig{
		Nodes: 1000, ExtraEdges: 2000, VMFraction: 0.2, MaxEdge: 10, MaxSetup: 5,
	}, 1)
	Dijkstra(g, 0) // prime CSR
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sp := Dijkstra(g, NodeID(i%g.NumNodes()))
		sink += sp.Dist[(i+1)%g.NumNodes()]
	}
	if math.IsNaN(sink) {
		b.Fatal("NaN distance")
	}
}

// BellmanFord computes single-source shortest paths by relaxation. It exists
// as an independent oracle for property-testing Dijkstra; it is O(V·E).
func BellmanFord(g *Graph, src NodeID) *ShortestPaths {
	n := g.NumNodes()
	sp := newShortestPaths(src, n)
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.ParentEdge[i] = NoEdge
	}
	fs := g.block.blocked.Load()
	if fs.NodeFailed(src) {
		return sp
	}
	sp.Dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(EdgeID(id))
			if fs != nil && (fs.EdgeFailed(EdgeID(id)) || fs.NodeFailed(e.U) || fs.NodeFailed(e.V)) {
				continue
			}
			if sp.Dist[e.U]+e.Cost < sp.Dist[e.V] {
				sp.Dist[e.V] = sp.Dist[e.U] + e.Cost
				sp.ParentEdge[e.V] = EdgeID(id)
				changed = true
			}
			if sp.Dist[e.V]+e.Cost < sp.Dist[e.U] {
				sp.Dist[e.U] = sp.Dist[e.V] + e.Cost
				sp.ParentEdge[e.U] = EdgeID(id)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sp
}
