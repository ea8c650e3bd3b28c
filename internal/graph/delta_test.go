package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sameTree fails the test unless got and want agree bit for bit on
// every node's distance, parent and parent edge.
func sameTree(t *testing.T, label string, got, want *ShortestPaths) {
	t.Helper()
	for u := range want.Dist {
		if got.Dist[u] != want.Dist[u] || got.Parent[u] != want.Parent[u] || got.ParentEdge[u] != want.ParentEdge[u] {
			t.Fatalf("%s node %d: got (%v,%d,%d) != heap (%v,%d,%d)", label, u,
				got.Dist[u], got.Parent[u], got.ParentEdge[u],
				want.Dist[u], want.Parent[u], want.ParentEdge[u])
		}
	}
}

// absorbedMultigraph builds a random multigraph whose costs mix 1e17 and
// 2e17 with 1, 2 and 3. Added to a distance near 1e17 the small costs
// vanish (D + c == D), so those arcs act as zero-cost arcs though no
// cost is 0.
func absorbedMultigraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	costs := []float64{1e17, 2e17, 1, 2, 3}
	n := 6 + rng.Intn(30)
	g := New(n, 3*n)
	for i := 0; i < n; i++ {
		g.AddSwitch("")
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(rng.Intn(i)), costs[rng.Intn(len(costs))])
	}
	for k := 0; k < 2*n; k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(NodeID(u), NodeID(v), costs[rng.Intn(len(costs))])
		}
	}
	return g
}

// raisedMultigraph is randomMultigraph(seed) with every zero cost raised
// to 1, so that its layout has a bucket width.
func raisedMultigraph(seed int64) *Graph {
	g := randomMultigraph(seed)
	for e := 0; e < g.NumEdges(); e++ {
		g.SetEdgeCost(EdgeID(e), max(g.EdgeCost(EdgeID(e)), 1))
	}
	return g
}

// absorbedRepro is the smallest known absorbed-cost input: from node 0,
// nodes 7, 9, 5 and 8 all sit at 1e17, and the heap reaches 8 from 7,
// then 5 from 8. Delta-stepping's (dist, id) commit rule alone would
// build the parent cycle 8 → 5 → 8 instead, which is why an absorbed arc
// leaves a layout no bucket width.
func absorbedRepro() *Graph {
	g := New(10, 5)
	for i := 0; i < 10; i++ {
		g.AddSwitch("")
	}
	g.MustAddEdge(0, 7, 1e17)
	g.MustAddEdge(0, 9, 1e17)
	g.MustAddEdge(9, 5, 1)
	g.MustAddEdge(5, 8, 1)
	g.MustAddEdge(7, 8, 1)
	return g
}

// TestDeltaSteppingBitIdentical is the core equivalence claim: on random
// multigraphs (parallel edges, zero-cost links), the tree Arena.Dijkstra
// builds — distances, parents, AND parent edges — must be bit-for-bit the
// indexed-heap reference tree (Arena.DijkstraHeap) from every source.
// Distances alone would allow a different (equally short) tree;
// downstream cost-equality guarantees need the same tree. Each input
// states the kernel pick must choose for it. The multigraphs all carry
// zero-cost arcs, so the heap runs on them; each is repeated with its
// zero costs raised to 1, where delta-stepping runs, exact ties are many,
// and only the in-place tie-break can match the heap. The 600-node inputs
// (float costs, then the same rounded up to integers) are the ones whose
// bucket frontiers grow to hundreds of nodes. The absorbed-cost inputs
// have no zero cost, yet arcs whose cost vanishes in the sum, so the heap
// runs on them too.
func TestDeltaSteppingBitIdentical(t *testing.T) {
	// recost returns g with every edge cost mapped through f.
	recost := func(g *Graph, f func(float64) float64) *Graph {
		for e := 0; e < g.NumEdges(); e++ {
			g.SetEdgeCost(EdgeID(e), f(g.EdgeCost(EdgeID(e))))
		}
		return g
	}
	type input struct {
		g     *Graph
		delta bool // whether pick chooses delta-stepping
	}
	var inputs []input
	for seed := int64(0); seed < 40; seed++ {
		inputs = append(inputs, input{randomMultigraph(seed), false})
	}
	for seed := int64(0); seed < 40; seed++ {
		inputs = append(inputs, input{recost(randomMultigraph(seed), func(c float64) float64 { return max(c, 1) }), true})
	}
	big := func() *Graph {
		return RandomConnected(RandomConfig{Nodes: 600, ExtraEdges: 1800, VMFraction: 0.2, MaxEdge: 10, MaxSetup: 5}, 9)
	}
	inputs = append(inputs, input{big(), true}, input{recost(big(), math.Ceil), true}, input{absorbedRepro(), false})
	for seed := int64(0); seed < 300; seed++ {
		inputs = append(inputs, input{absorbedMultigraph(seed), false})
	}
	arena, ref := NewArena(), NewArena()
	for i, in := range inputs {
		if got := pick(in.g) != nil; got != in.delta {
			t.Fatalf("graph %d: delta-stepping = %v, want %v", i, got, in.delta)
		}
		for v := 0; v < in.g.NumNodes(); v++ {
			got := arena.Dijkstra(in.g, NodeID(v))
			sameTree(t, fmt.Sprintf("graph %d src %d", i, v), got, ref.DijkstraHeap(in.g, NodeID(v)))
			verifyTree(t, in.g, got)
		}
	}
}

// TestDeltaSteppingBatch drives both kernels through DijkstraBatch (the
// path the chain oracle's tree warming takes) with duplicate sources:
// each multigraph carries zero-cost arcs, so its batch runs the heap, and
// its copy with zero costs raised to 1 runs delta-stepping.
func TestDeltaSteppingBatch(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, g := range []*Graph{randomMultigraph(seed), raisedMultigraph(seed)} {
			rng := rand.New(rand.NewSource(seed ^ 0x3c3c))
			sources := make([]NodeID, 0, 6)
			for i := 0; i < 5; i++ {
				sources = append(sources, NodeID(rng.Intn(g.NumNodes())))
			}
			sources = append(sources, sources[0]) // duplicate on purpose
			batch := DijkstraBatch(g, sources, NewArena())
			if batch[len(batch)-1] != batch[0] {
				t.Fatalf("seed %d: duplicate source not aliased", seed)
			}
			ref := NewArena()
			for i, s := range sources {
				sameTree(t, fmt.Sprintf("seed %d source %d", seed, s), batch[i], ref.DijkstraHeap(g, s))
			}
		}
	}
}

// TestDeltaSteppingBlockedElements covers the Blocked() consistency
// claim: failed and capacity-masked edges and nodes (both mark layers at
// once) must be invisible to the delta-stepping relaxation exactly as
// they are to the heap's, including a blocked source yielding an
// all-unreachable tree. The arc partition drops blocked arcs at build
// time, so this also pins the epoch-keyed invalidation: every
// fail/mask/restore transition must yield a fresh partition.
func TestDeltaSteppingBlockedElements(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	arena, ref := NewArena(), NewArena()
	for trial := 0; trial < 25; trial++ {
		g := RandomConnected(RandomConfig{Nodes: 40, ExtraEdges: 60, MaxEdge: 5}, int64(trial))
		for i := 0; i < 5; i++ {
			g.FailEdge(EdgeID(rng.Intn(g.NumEdges())))
		}
		for i := 0; i < 3; i++ {
			g.MaskEdge(EdgeID(rng.Intn(g.NumEdges())))
		}
		g.FailNode(NodeID(rng.Intn(g.NumNodes())))
		g.MaskNode(NodeID(rng.Intn(g.NumNodes())))
		for trial2 := 0; trial2 < 3; trial2++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			sameTree(t, fmt.Sprintf("trial %d src %d under blocks", trial, src), arena.Dijkstra(g, src), ref.DijkstraHeap(g, src))
		}
		// Flip some state back and re-check: the partition must not serve
		// the pre-transition epoch.
		g.RestoreAll()
		g.UnmaskAll()
		src := NodeID(rng.Intn(g.NumNodes()))
		sameTree(t, fmt.Sprintf("trial %d after restore", trial), arena.Dijkstra(g, src), ref.DijkstraHeap(g, src))
	}
}

// TestDeltaSteppingBlockedSource: a failed or masked source reaches
// nothing, not even itself — same contract as the heap variant.
func TestDeltaSteppingBlockedSource(t *testing.T) {
	g := RandomConnected(RandomConfig{Nodes: 20, ExtraEdges: 20, MaxEdge: 5}, 3)
	arena := NewArena()
	g.FailNode(4)
	sp := arena.Dijkstra(g, 4)
	for v := range sp.Dist {
		if !math.IsInf(sp.Dist[v], 1) || sp.Parent[v] != None {
			t.Fatalf("failed source: node %d reachable", v)
		}
	}
	g.RestoreNode(4)
	g.MaskNode(4)
	sp = arena.Dijkstra(g, 4)
	for v := range sp.Dist {
		if !math.IsInf(sp.Dist[v], 1) {
			t.Fatalf("masked source: node %d reachable", v)
		}
	}
}

// TestDeltaSteppingZeroCostFallback: an all-zero-cost graph has no
// usable bucket width; runs must fall back to the heap instead of
// dividing by zero, and results must stay correct — for single runs and
// batches alike.
func TestDeltaSteppingZeroCostFallback(t *testing.T) {
	g := New(5, 6)
	for i := 0; i < 5; i++ {
		g.AddSwitch("")
	}
	for i := 1; i < 5; i++ {
		g.MustAddEdge(NodeID(i-1), NodeID(i), 0)
	}
	for _, sp := range []*ShortestPaths{
		Dijkstra(g, 2),
		DijkstraBatch(g, []NodeID{2}, nil)[0],
	} {
		for v := 0; v < 5; v++ {
			if sp.Dist[v] != 0 {
				t.Fatalf("Dist[%d] = %v, want 0", v, sp.Dist[v])
			}
		}
	}
}

// TestDeltaSteppingInfiniteCostFallback: one +Inf edge cost also leaves
// no usable bucket width (it makes the width +Inf), so a run must fall
// back to the heap and return the heap's tree, whether the infinite cost
// came with the edge or was set after a first run (the epoch-keyed
// partition must rebuild into the fallback).
func TestDeltaSteppingInfiniteCostFallback(t *testing.T) {
	path := func(last float64) (*Graph, EdgeID) {
		g := New(4, 3)
		for i := 0; i < 4; i++ {
			g.AddSwitch("")
		}
		g.MustAddEdge(0, 1, 1)
		g.MustAddEdge(1, 2, 2)
		return g, g.MustAddEdge(2, 3, last)
	}
	check := func(label string, g *Graph) {
		t.Helper()
		want := NewArena().DijkstraHeap(g, 0)
		if want.Dist[2] != 3 || !math.IsInf(want.Dist[3], 1) {
			t.Fatalf("%s: heap Dist = %v, want [0 1 3 +Inf]", label, want.Dist)
		}
		for _, got := range []*ShortestPaths{
			Dijkstra(g, 0),
			DijkstraBatch(g, []NodeID{0}, nil)[0],
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: run (%v,%v,%v) != heap (%v,%v,%v)", label,
					got.Dist, got.Parent, got.ParentEdge, want.Dist, want.Parent, want.ParentEdge)
			}
		}
	}
	g, _ := path(math.Inf(1))
	check("AddEdge +Inf", g)

	g, last := path(4)
	Dijkstra(g, 0) // builds a finite-width partition first
	g.SetEdgeCost(last, math.Inf(1))
	check("SetEdgeCost +Inf", g)
}

// TestDeltaSteppingArenaReuseAcrossGraphs drives one arena through
// graphs of different sizes and widths (so the calendar, dedup stamps,
// and partition all change between runs), catching stale scratch leaking
// across runs — the reuse pattern of pooled arenas and batch callers.
func TestDeltaSteppingArenaReuseAcrossGraphs(t *testing.T) {
	arena := NewArena()
	for round := 0; round < 3; round++ {
		for _, seed := range []int64{3, 11, 5, 23, 2, 31, 4} {
			g := randomMultigraph(seed)
			got := arena.Dijkstra(g, 0)
			want := BellmanFord(g, 0)
			for v := 0; v < g.NumNodes(); v++ {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("round %d seed %d: Dist[%d] = %v, want %v",
						round, seed, v, got.Dist[v], want.Dist[v])
				}
			}
			verifyTree(t, g, got)
		}
	}
}

// TestDeltaLayoutEpochInvalidation pins the partition memo key: a cost
// change must yield a fresh partition (arc moves between light and
// heavy), and an unchanged-epoch re-fetch must serve the same one.
func TestDeltaLayoutEpochInvalidation(t *testing.T) {
	g := New(3, 2)
	g.AddSwitch("")
	g.AddSwitch("")
	g.AddSwitch("")
	e0 := g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 100)
	lay := g.deltaLayoutFor()
	if again := g.deltaLayoutFor(); again != lay {
		t.Fatal("same-epoch re-fetch rebuilt the partition")
	}
	if lay.lrow[1]-lay.lrow[0] != 1 || lay.hrow[1]-lay.hrow[0] != 0 {
		t.Fatalf("cheap arc not light: lrow=%v hrow=%v", lay.lrow[:2], lay.hrow[:2])
	}
	// Raising the cheap edge past the width must move it to heavy in the
	// rebuilt partition.
	g.SetEdgeCost(e0, 1000)
	lay2 := g.deltaLayoutFor()
	if lay2 == lay {
		t.Fatal("cost change did not invalidate the partition")
	}
	if lay2.hrow[1]-lay2.hrow[0] != 1 {
		t.Fatalf("re-priced arc not heavy: hrow=%v", lay2.hrow[:2])
	}
}

// TestPickNeedsWidth pins the one kernel choice every run follows: a run
// takes delta-stepping when the costs admit a bucket width, however small
// the graph, and the heap when they do not — all-zero costs, one +Inf
// cost, or an unblocked arc that costs 0 or vanishes when added to a
// distance. A blocked arc is not in the layout, so failing the only
// zero-cost link gives the width back, and restoring it takes the width
// away again. Rows run in order; the last two edit one graph.
func TestPickNeedsWidth(t *testing.T) {
	pair := func(cost float64) *Graph {
		g := New(2, 1)
		g.AddSwitch("")
		g.AddSwitch("")
		g.MustAddEdge(0, 1, cost)
		return g
	}
	inf := randomMultigraph(5)
	inf.SetEdgeCost(0, math.Inf(1))
	// line is the path 0–1–2–3 with costs 1, 0, 2.
	line := New(4, 3)
	for i := 0; i < 4; i++ {
		line.AddSwitch("")
	}
	line.MustAddEdge(0, 1, 1)
	zero := line.MustAddEdge(1, 2, 0)
	line.MustAddEdge(2, 3, 2)
	cases := []struct {
		name  string
		g     *Graph
		edit  func() // runs just before the row is checked
		delta bool
	}{
		{name: "two-nodes", g: pair(1), delta: true},
		{name: "multigraph", g: raisedMultigraph(5), delta: true},
		{name: "all-zero", g: pair(0), delta: false},
		{name: "infinite-cost", g: inf, delta: false},
		{name: "zero-cost-arc", g: randomMultigraph(5), delta: false},
		{name: "absorbed-arc", g: absorbedRepro(), delta: false},
		{name: "zero-cost-link-failed", g: line, edit: func() { line.FailEdge(zero) }, delta: true},
		{name: "zero-cost-link-restored", g: line, edit: func() { line.RestoreEdge(zero) }, delta: false},
	}
	for _, tc := range cases {
		if tc.edit != nil {
			tc.edit()
		}
		if got := pick(tc.g) != nil; got != tc.delta {
			t.Errorf("%s: delta-stepping = %v, want %v", tc.name, got, tc.delta)
		}
	}
}
