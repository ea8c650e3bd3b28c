package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// growPair appends the same random nodes and edges to a clone of g and to
// an overlay over g: unnamed switches, edges between appended and base
// nodes alike, zero-cost edges, and parallel copies of equal cost, so arc
// order decides parents on ties. It fails the test if the two assign
// different ids.
func growPair(t *testing.T, g *Graph, rng *rand.Rand) (*Graph, *Overlay) {
	t.Helper()
	c, ov := g.Clone(), NewOverlay(g)
	for k := 0; k < 1+rng.Intn(6); k++ {
		if want, got := c.AddSwitch(""), ov.AddSwitch(); got != want {
			t.Fatalf("appended node id %d, clone gave %d", got, want)
		}
	}
	n := c.NumNodes()
	for k := 0; k < 4+rng.Intn(24); k++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		cost := float64(rng.Intn(4))
		for copies := 1 + rng.Intn(2); copies > 0; copies-- {
			if want, got := c.MustAddEdge(u, v, cost), ov.MustAddEdge(u, v, cost); got != want {
				t.Fatalf("appended edge id %d, clone gave %d", got, want)
			}
		}
	}
	return c, ov
}

// checkSameStructure requires the overlay to answer every node and edge
// query exactly as the clone does.
func checkSameStructure(t *testing.T, c *Graph, ov *Overlay) {
	t.Helper()
	if ov.NumNodes() != c.NumNodes() || ov.NumEdges() != c.NumEdges() {
		t.Fatalf("overlay has %d nodes, %d edges; clone %d, %d", ov.NumNodes(), ov.NumEdges(), c.NumNodes(), c.NumEdges())
	}
	for id := 0; id < c.NumEdges(); id++ {
		if got, want := ov.Edge(EdgeID(id)), c.Edge(EdgeID(id)); got != want {
			t.Fatalf("edge %d: overlay %+v, clone %+v", id, got, want)
		}
	}
	for v := 0; v < c.NumNodes(); v++ {
		got, want := ov.Adj(NodeID(v)), c.Adj(NodeID(v))
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("node %d: overlay arcs %v, clone arcs %v", v, got, want)
		}
	}
}

// TestOverlayMatchesClone pins overlay runs to heap runs over the clone
// grown the same way: full runs are bit-identical, truncated runs settle
// the clone's Dist, Parent and ParentEdge, over random multigraphs with
// failed and masked base elements and sources on both sides of the
// overlay. The base keeps its adjacency, its counts, its cost epoch and
// its cached CSR view.
func TestOverlayMatchesClone(t *testing.T) {
	truncated := 0
	for seed := int64(0); seed < 40; seed++ {
		g := blockedMultigraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x0f0f))
		csr := g.csr()
		adj, n0, m0, epoch := adjSnapshot(g), g.NumNodes(), g.NumEdges(), g.CostEpoch()
		c, ov := growPair(t, g, rng)
		checkSameStructure(t, c, ov)
		n := c.NumNodes()
		for trial := 0; trial < 8; trial++ {
			src := NodeID(rng.Intn(n))
			if trial%2 == 0 {
				src = NodeID(n0 + rng.Intn(n-n0))
			}
			full := NewArena().DijkstraHeap(c, src)
			if got := ov.DijkstraTo(src, nil); !reflect.DeepEqual(got, full) {
				t.Fatalf("seed %d src %d: full overlay run differs from the clone's", seed, src)
			}
			targets := []NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
			if checkTruncated(t, c, ov.DijkstraTo(src, targets), full, targets) {
				truncated++
			}
		}
		if g.csrCache.Load() != csr || g.NumNodes() != n0 || g.NumEdges() != m0 || g.CostEpoch() != epoch {
			t.Fatalf("seed %d: the base's CSR, counts or epoch changed", seed)
		}
		if !reflect.DeepEqual(adjSnapshot(g), adj) {
			t.Fatalf("seed %d: the base's adjacency changed", seed)
		}
	}
	if truncated < 50 {
		t.Fatalf("only %d runs stopped early; the truncation is barely exercised", truncated)
	}
}

// TestOverlayReadsLiveBase covers the run-time reads: cost changes and
// failures on the base after the overlay was built show up in the next
// run, as they would in a clone taken after them.
func TestOverlayReadsLiveBase(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomMultigraph(seed)
		rng := rand.New(rand.NewSource(seed))
		_, ov := growPair(t, g, rand.New(rand.NewSource(seed)))
		for k := 0; k < 5; k++ {
			g.SetEdgeCost(EdgeID(rng.Intn(g.NumEdges())), float64(rng.Intn(10)))
		}
		g.FailEdge(EdgeID(rng.Intn(g.NumEdges())))
		g.MaskNode(NodeID(rng.Intn(g.NumNodes())))
		c, _ := growPair(t, g, rand.New(rand.NewSource(seed)))
		for src := 0; src < c.NumNodes(); src += 4 {
			want := NewArena().DijkstraHeap(c, NodeID(src))
			if got := ov.DijkstraTo(NodeID(src), nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d src %d: overlay run missed a base change", seed, src)
			}
		}
	}
}

// TestOverlayGrownBasePanics: only a bug grows the base under a live
// overlay, so a run after it refuses to read stale counts.
func TestOverlayGrownBasePanics(t *testing.T) {
	for name, grow := range map[string]func(g *Graph){
		"node": func(g *Graph) { g.AddSwitch("") },
		"edge": func(g *Graph) { g.MustAddEdge(0, 1, 1) },
	} {
		g := randomMultigraph(1)
		ov := NewOverlay(g)
		ov.MustAddEdge(ov.AddSwitch(), 0, 0)
		grow(g)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: run over a grown base did not panic", name)
				}
			}()
			ov.DijkstraTo(0, nil)
		}()
	}
}

// TestOverlayArenaReuse alternates overlay runs, which address more nodes
// than their base and stop early, with plain heap, delta-stepping and
// batch runs on one arena: every run equals the same run on a fresh
// arena.
func TestOverlayArenaReuse(t *testing.T) {
	arena := NewArena()
	for seed := int64(0); seed < 20; seed++ {
		g := blockedMultigraph(seed)
		_, ov := growPair(t, g, rand.New(rand.NewSource(seed)))
		n := ov.NumNodes()
		for src := 0; src < n; src += 3 {
			targets := []NodeID{NodeID((src + 1) % n)}
			if got, want := ov.dijkstraTo(arena, NodeID(src), targets), ov.dijkstraTo(NewArena(), NodeID(src), targets); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: overlay run on a reused arena differs", seed)
			}
			next := NodeID(src % g.NumNodes())
			if got, want := arena.DijkstraHeap(g, next), NewArena().DijkstraHeap(g, next); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: heap run after an overlay run differs", seed)
			}
			if got, want := arena.Dijkstra(g, next), NewArena().Dijkstra(g, next); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: delta run after an overlay run differs", seed)
			}
			batch := []NodeID{next, 0}
			got, want := DijkstraBatch(g, batch, arena), DijkstraBatch(g, batch, NewArena())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: batch after an overlay run differs", seed)
			}
		}
	}
}

// TestOverlayMustAddEdgeRejects: the overlay refuses what Graph.AddEdge
// rejects, and a refused edge appends nothing.
func TestOverlayMustAddEdgeRejects(t *testing.T) {
	g := randomMultigraph(2)
	ov := NewOverlay(g)
	s := ov.AddSwitch()
	for _, bad := range []struct {
		u, v NodeID
		cost float64
	}{
		{s, s + 1, 0}, {-1, s, 0}, {s, s, 0}, {s, 0, -1}, {s, 0, math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustAddEdge(%d, %d, %v) accepted", bad.u, bad.v, bad.cost)
				}
			}()
			ov.MustAddEdge(bad.u, bad.v, bad.cost)
		}()
	}
	if ov.NumEdges() != g.NumEdges() || len(ov.Adj(s)) != 0 {
		t.Fatal("a refused edge was appended")
	}
}
