package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// deltaArena pins the delta-stepping variant on, regardless of graph
// size, on a private arena, so no test mutates the package default.
func deltaArena() *Arena {
	return NewArenaWith(Config{DeltaSteppingMinNodes: 1})
}

// TestDeltaSteppingBitIdentical is the core equivalence claim: on random
// multigraphs (parallel edges, zero-cost links), the delta-stepping tree
// — distances, parents, AND parent edges — must be bit-for-bit the
// indexed-heap tree from every source. Distances alone would allow a
// different (equally short) tree; downstream cost-equality guarantees
// need the same tree. The multigraphs almost all carry zero-cost arcs, so
// their parents come from the plateau replay; each is repeated with its
// zero costs raised to 1, where exact ties are many and only the in-place
// tie-break can match the heap. The 600-node inputs (float costs, then
// the same rounded up to integers) are the ones whose bucket frontiers
// grow to hundreds of nodes.
func TestDeltaSteppingBitIdentical(t *testing.T) {
	// recost returns g with every edge cost mapped through f.
	recost := func(g *Graph, f func(float64) float64) *Graph {
		for e := 0; e < g.NumEdges(); e++ {
			g.SetEdgeCost(EdgeID(e), f(g.EdgeCost(EdgeID(e))))
		}
		return g
	}
	var graphs []*Graph
	for seed := int64(0); seed < 40; seed++ {
		graphs = append(graphs, randomMultigraph(seed))
	}
	for seed := int64(0); seed < 40; seed++ {
		graphs = append(graphs, recost(randomMultigraph(seed), func(c float64) float64 { return max(c, 1) }))
	}
	big := func() *Graph {
		return RandomConnected(RandomConfig{Nodes: 600, ExtraEdges: 1800, VMFraction: 0.2, MaxEdge: 10, MaxSetup: 5}, 9)
	}
	graphs = append(graphs, big(), recost(big(), math.Ceil))
	for i, g := range graphs {
		arena := deltaArena()
		for v := 0; v < g.NumNodes(); v++ {
			want := Dijkstra(g, NodeID(v)) // heap path: graph far below gates
			got := arena.Dijkstra(g, NodeID(v))
			for u := 0; u < g.NumNodes(); u++ {
				if got.Dist[u] != want.Dist[u] || got.Parent[u] != want.Parent[u] || got.ParentEdge[u] != want.ParentEdge[u] {
					t.Fatalf("graph %d src %d node %d: delta (%v,%d,%d) != heap (%v,%d,%d)",
						i, v, u, got.Dist[u], got.Parent[u], got.ParentEdge[u],
						want.Dist[u], want.Parent[u], want.ParentEdge[u])
				}
			}
			verifyTree(t, g, got)
		}
	}
}

// TestDeltaSteppingBatch drives the variant through DijkstraBatch (the
// path the chain oracle's tree warming takes) with duplicate sources.
func TestDeltaSteppingBatch(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomMultigraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x3c3c))
		sources := make([]NodeID, 0, 6)
		for i := 0; i < 5; i++ {
			sources = append(sources, NodeID(rng.Intn(g.NumNodes())))
		}
		sources = append(sources, sources[0]) // duplicate on purpose
		batch := DijkstraBatch(g, sources, deltaArena())
		if batch[len(batch)-1] != batch[0] {
			t.Fatalf("seed %d: duplicate source not aliased", seed)
		}
		for i, s := range sources {
			want := Dijkstra(g, s)
			got := batch[i]
			for u := 0; u < g.NumNodes(); u++ {
				if got.Dist[u] != want.Dist[u] || got.Parent[u] != want.Parent[u] || got.ParentEdge[u] != want.ParentEdge[u] {
					t.Fatalf("seed %d source %d node %d: batch delta differs from heap", seed, s, u)
				}
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
	arena := deltaArena()
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
			want := Dijkstra(g, src)
			got := arena.Dijkstra(g, src)
			for u := 0; u < g.NumNodes(); u++ {
				if got.Dist[u] != want.Dist[u] || got.Parent[u] != want.Parent[u] || got.ParentEdge[u] != want.ParentEdge[u] {
					t.Fatalf("trial %d src %d node %d: delta (%v,%d,%d) != heap (%v,%d,%d) under blocks",
						trial, src, u, got.Dist[u], got.Parent[u], got.ParentEdge[u],
						want.Dist[u], want.Parent[u], want.ParentEdge[u])
				}
			}
		}
		// Flip some state back and re-check: the partition must not serve
		// the pre-transition epoch.
		g.RestoreAll()
		g.UnmaskAll()
		src := NodeID(rng.Intn(g.NumNodes()))
		want := Dijkstra(g, src)
		got := arena.Dijkstra(g, src)
		for u := 0; u < g.NumNodes(); u++ {
			if got.Dist[u] != want.Dist[u] {
				t.Fatalf("trial %d: stale partition after restore: Dist[%d] = %v, want %v",
					trial, u, got.Dist[u], want.Dist[u])
			}
		}
	}
}

// TestDeltaSteppingBlockedSource: a failed or masked source reaches
// nothing, not even itself — same contract as the heap variant.
func TestDeltaSteppingBlockedSource(t *testing.T) {
	g := RandomConnected(RandomConfig{Nodes: 20, ExtraEdges: 20, MaxEdge: 5}, 3)
	arena := deltaArena()
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
// usable bucket width; the gate must fall back to the heap instead of
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
		deltaArena().Dijkstra(g, 2),
		DijkstraBatch(g, []NodeID{2}, deltaArena())[0],
	} {
		for v := 0; v < 5; v++ {
			if sp.Dist[v] != 0 {
				t.Fatalf("Dist[%d] = %v, want 0", v, sp.Dist[v])
			}
		}
	}
}

// TestDeltaSteppingInfiniteCostFallback: one +Inf edge cost also leaves
// no usable bucket width (it makes the width +Inf), so a forced delta
// run must fall back to the heap and return the heap's tree, whether the
// infinite cost came with the edge or was set after a first run (the
// epoch-keyed partition must rebuild into the fallback).
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
		want := NewArenaWith(Config{DeltaSteppingMinNodes: -1}).Dijkstra(g, 0)
		if want.Dist[2] != 3 || !math.IsInf(want.Dist[3], 1) {
			t.Fatalf("%s: heap Dist = %v, want [0 1 3 +Inf]", label, want.Dist)
		}
		for _, got := range []*ShortestPaths{
			deltaArena().Dijkstra(g, 0),
			DijkstraBatch(g, []NodeID{0}, deltaArena())[0],
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: forced delta (%v,%v,%v) != heap (%v,%v,%v)", label,
					got.Dist, got.Parent, got.ParentEdge, want.Dist, want.Parent, want.ParentEdge)
			}
		}
	}
	g, _ := path(math.Inf(1))
	check("AddEdge +Inf", g)

	g, last := path(4)
	deltaArena().Dijkstra(g, 0) // builds a finite-width partition first
	g.SetEdgeCost(last, math.Inf(1))
	check("SetEdgeCost +Inf", g)
}

// TestDeltaSteppingArenaReuseAcrossGraphs drives one arena through
// graphs of different sizes and widths (so the calendar, dedup stamps,
// and partition all change between runs), catching stale scratch leaking
// across runs — the reuse pattern of pooled arenas and batch callers.
func TestDeltaSteppingArenaReuseAcrossGraphs(t *testing.T) {
	arena := deltaArena()
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

// TestConfigGateResolution pins the per-arena gate semantics: zero
// defers to the package default, positive overrides, negative disables
// — whether the negative value sits in the Config or in the default it
// defers to — exercised through pick, the single decision point every
// entry path shares. Not parallel: it sets the package default.
func TestConfigGateResolution(t *testing.T) {
	g := randomMultigraph(5) // 8–48 nodes, positive finite costs
	n := g.NumNodes()
	inf := randomMultigraph(5)
	inf.SetEdgeCost(0, math.Inf(1))
	saved := DeltaSteppingMinNodes
	t.Cleanup(func() { DeltaSteppingMinNodes = saved })
	cases := []struct {
		name   string
		global int
		g      *Graph
		cfg    Config
		want   ssspVariant
	}{
		{"defaults-small-graph", saved, g, Config{}, variantHeap},
		{"delta-forced", saved, g, Config{DeltaSteppingMinNodes: 1}, variantDelta},
		{"delta-disabled", saved, g, Config{DeltaSteppingMinNodes: -1}, variantHeap},
		{"threshold-above-n", saved, g, Config{DeltaSteppingMinNodes: n + 1}, variantHeap},
		{"infinite-cost", saved, inf, Config{DeltaSteppingMinNodes: 1}, variantHeap},
		{"global-forced", 1, g, Config{}, variantDelta},
		{"global-disabled", -1, g, Config{}, variantHeap},
		{"config-overrides-disabled-global", -1, g, Config{DeltaSteppingMinNodes: 1}, variantDelta},
	}
	for _, tc := range cases {
		DeltaSteppingMinNodes = tc.global
		a := NewArenaWith(tc.cfg)
		if got, _ := a.pick(tc.g, tc.g.NumNodes()); got != tc.want {
			t.Errorf("%s: pick = %d, want %d", tc.name, got, tc.want)
		}
	}
}
