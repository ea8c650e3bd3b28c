package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// blockedMultigraph is randomMultigraph plus two isolated nodes (targets
// no run can reach) and, on most seeds, failed and capacity-masked edges
// and nodes.
func blockedMultigraph(seed int64) *Graph {
	g := randomMultigraph(seed)
	g.AddSwitch("")
	g.AddSwitch("")
	if seed%4 != 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x7e7e))
		for i := 0; i < 3; i++ {
			g.FailEdge(EdgeID(rng.Intn(g.NumEdges())))
			g.MaskEdge(EdgeID(rng.Intn(g.NumEdges())))
		}
		g.FailNode(NodeID(rng.Intn(g.NumNodes())))
		g.MaskNode(NodeID(rng.Intn(g.NumNodes())))
	}
	return g
}

// growPair appends the same random nodes and edges to a clone of g and to
// an overlay over g: unnamed switches, edges between appended and base
// nodes alike, zero-cost edges, and parallel copies of equal cost, so arc
// order decides parents on ties. On half the draws an appended hub then
// links to many base nodes in descending id order, so the overlay's list
// of base nodes with appended arcs grows at its front. It fails the test
// if the two assign different ids.
func growPair(t *testing.T, g *Graph, rng *rand.Rand) (*Graph, *Overlay) {
	t.Helper()
	c, ov := g.Clone(), NewOverlay(g)
	addSwitch := func() NodeID {
		want, got := c.AddSwitch(""), ov.AddSwitch()
		if got != want {
			t.Fatalf("appended node id %d, clone gave %d", got, want)
		}
		return got
	}
	addEdge := func(u, v NodeID, cost float64) {
		if want, got := c.MustAddEdge(u, v, cost), ov.MustAddEdge(u, v, cost); got != want {
			t.Fatalf("appended edge id %d, clone gave %d", got, want)
		}
	}
	for k := 0; k < 1+rng.Intn(6); k++ {
		addSwitch()
	}
	n := c.NumNodes()
	for k := 0; k < 4+rng.Intn(24); k++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		cost := float64(rng.Intn(4))
		for copies := 1 + rng.Intn(2); copies > 0; copies-- {
			addEdge(u, v, cost)
		}
	}
	if rng.Intn(2) == 0 {
		hub := addSwitch()
		for v := g.NumNodes() - 1; v >= 0; v -= 1 + rng.Intn(3) {
			addEdge(hub, NodeID(v), float64(rng.Intn(4)))
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
		got, want := slices.Collect(ov.Arcs(NodeID(v))), c.Adj(NodeID(v))
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("node %d: overlay arcs %v, clone arcs %v", v, got, want)
		}
	}
}

// TestOverlayMatchesClone pins overlay runs to heap runs over the clone
// grown the same way, bit for bit, over random multigraphs with failed
// and masked base elements and sources on both sides of the overlay. The
// base keeps its adjacency, its counts, its cost epoch and its cached CSR
// view.
func TestOverlayMatchesClone(t *testing.T) {
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
			if got := ov.Dijkstra(src); !reflect.DeepEqual(got, NewArena().DijkstraHeap(c, src)) {
				t.Fatalf("seed %d src %d: overlay run differs from the clone's", seed, src)
			}
		}
		if g.csrCache.Load() != csr || g.NumNodes() != n0 || g.NumEdges() != m0 || g.CostEpoch() != epoch {
			t.Fatalf("seed %d: the base's CSR, counts or epoch changed", seed)
		}
		if !reflect.DeepEqual(adjSnapshot(g), adj) {
			t.Fatalf("seed %d: the base's adjacency changed", seed)
		}
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
			if got := ov.Dijkstra(NodeID(src)); !reflect.DeepEqual(got, want) {
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
			ov.Dijkstra(0)
		}()
	}
}

// TestOverlayArenaReuse alternates overlay runs, which address more nodes
// than their base, with plain heap, delta-stepping and batch runs on one
// arena: every run equals the same run on a fresh arena.
func TestOverlayArenaReuse(t *testing.T) {
	arena := NewArena()
	for seed := int64(0); seed < 20; seed++ {
		g := blockedMultigraph(seed)
		_, ov := growPair(t, g, rand.New(rand.NewSource(seed)))
		n := ov.NumNodes()
		for src := 0; src < n; src += 3 {
			if got, want := ov.dijkstra(arena, NodeID(src)), ov.dijkstra(NewArena(), NodeID(src)); !reflect.DeepEqual(got, want) {
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
	if ov.NumEdges() != g.NumEdges() || len(slices.Collect(ov.Arcs(s))) != 0 {
		t.Fatal("a refused edge was appended")
	}
}

// adjSnapshot copies every adjacency list of g.
func adjSnapshot(g *Graph) [][]Arc {
	out := make([][]Arc, g.NumNodes())
	for v := range out {
		out[v] = append([]Arc(nil), g.Adj(NodeID(v))...)
	}
	return out
}

// checkAdj requires g's adjacency lists and its CSR view to hold exactly
// want, and g to validate.
func checkAdj(t *testing.T, label string, g *Graph, want [][]Arc) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(adjSnapshot(g), want) {
		t.Fatalf("%s: adjacency changed", label)
	}
	c := g.csr()
	for v, arcs := range want {
		row := c.to[c.row[v]:c.row[v+1]]
		if len(row) != len(arcs) {
			t.Fatalf("%s: CSR row %d has %d arcs, want %d", label, v, len(row), len(arcs))
		}
		for i, a := range arcs {
			if NodeID(row[i]) != a.To || EdgeID(c.eid[int(c.row[v])+i]) != a.Edge {
				t.Fatalf("%s: CSR row %d arc %d differs from the adjacency", label, v, i)
			}
		}
	}
}

// TestCloneSharedAdjacencyIsolated pins the shared-adjacency clone: the
// clone starts out sharing every adjacency slice, capacity-clipped, and
// edges added on either side afterwards — onto existing and new nodes,
// including the appends that fit the original's spare capacity — never
// show up in the other graph's Adj or CSR.
func TestCloneSharedAdjacencyIsolated(t *testing.T) {
	grow := func(g *Graph, rng *rand.Rand) {
		fresh := g.AddSwitch("")
		g.MustAddEdge(fresh, NodeID(rng.Intn(int(fresh))), 0)
		for k := 0; k < 12; k++ {
			u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
			if u != v {
				g.MustAddEdge(NodeID(u), NodeID(v), float64(rng.Intn(10)))
			}
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomMultigraph(seed)
		g.csr()
		orig := adjSnapshot(g)
		c := g.Clone()
		checkAdj(t, "fresh clone", c, orig)

		grow(c, rng)
		checkAdj(t, "original after the clone grew", g, orig)
		cloned := adjSnapshot(c)
		grow(g, rng)
		checkAdj(t, "clone after the original grew", c, cloned)
		grown := adjSnapshot(g)
		grow(c, rng)
		checkAdj(t, "original after both grew", g, grown)
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: clone: %v", seed, err)
		}
	}
}

// TestOverlayDijkstraWithin confines overlay runs to a ball of the
// unconfined run, every base node at most a random radius from the
// source, plus a few base nodes outside it. A ball holds every neighbour
// that offers one of its nodes its final distance, so the confined run
// must give every base node of the ball the unconfined row, bit for bit,
// and must never enter a base node left out. Each row is released before
// the next run, and the pooled row must then hold +Inf/NoEdge throughout.
func TestOverlayDijkstraWithin(t *testing.T) {
	arena := NewArena()
	for seed := int64(0); seed < 40; seed++ {
		g := blockedMultigraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x3c3c))
		_, ov := growPair(t, g, rng)
		n0 := g.NumNodes()
		for src := 0; src < ov.NumNodes(); src += 2 {
			full := ov.dijkstra(arena, NodeID(src))
			if want := ov.Dijkstra(NodeID(src)); !reflect.DeepEqual(full, want) {
				t.Fatalf("seed %d src %d: a run on a reused arena differs from Dijkstra", seed, src)
			}
			radius := float64(rng.Intn(8))
			in := make([]bool, n0)
			var within []NodeID
			for v := range in {
				if in[v] = full.Dist[v] <= radius || rng.Intn(8) == 0; in[v] {
					within = append(within, NodeID(v))
				}
			}
			rng.Shuffle(len(within), func(i, j int) { within[i], within[j] = within[j], within[i] })
			got, release := ov.DijkstraWithin(NodeID(src), within)
			for v := 0; v < n0; v++ {
				switch {
				case full.Dist[v] <= radius:
					if math.Float64bits(got.Dist[v]) != math.Float64bits(full.Dist[v]) || got.ParentEdge[v] != full.ParentEdge[v] {
						t.Fatalf("seed %d src %d: node %d inside the ball is (%v,%d), unconfined (%v,%d)",
							seed, src, v, got.Dist[v], got.ParentEdge[v], full.Dist[v], full.ParentEdge[v])
					}
				case !in[v] && v != src:
					if got.Reachable(NodeID(v)) || got.ParentEdge[v] != NoEdge {
						t.Fatalf("seed %d src %d: the confined run entered node %d, which it leaves out", seed, src, v)
					}
				}
			}
			release()
			checkPooledRowClean(t, fmt.Sprintf("seed %d src %d", seed, src))
		}
	}
}

// checkPooledRowClean draws a row from DijkstraWithin's pool and requires
// every entry to hold +Inf/NoEdge and its mask to be clear.
func checkPooledRowClean(t *testing.T, label string) {
	t.Helper()
	r := rowPool.Get().(*confinedRow)
	defer rowPool.Put(r)
	for v := range r.dist {
		if !math.IsInf(r.dist[v], 1) || r.pedge[v] != NoEdge {
			t.Fatalf("%s: pooled row entry %d is (%v,%d) after release", label, v, r.dist[v], r.pedge[v])
		}
	}
	if i := slices.Index(r.in, true); i >= 0 {
		t.Fatalf("%s: pooled mask still marks node %d after release", label, i)
	}
}

// TestOverlayDijkstraWithinReleaseTwicePanics: a second release of one
// row, before or after the pool hands it out again, would reset a row
// someone else holds, so it panics.
func TestOverlayDijkstraWithinReleaseTwicePanics(t *testing.T) {
	g := randomMultigraph(3)
	ov := NewOverlay(g)
	ov.MustAddEdge(ov.AddSwitch(), 0, 1)
	_, release := ov.DijkstraWithin(0, []NodeID{0, 1})
	release()
	_, again := ov.DijkstraWithin(0, nil)
	for name, f := range map[string]func(){"stale": release, "twice": func() { again(); again() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s release did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestOverlayDijkstraWithinConcurrent runs confined runs from several
// goroutines over one overlay nobody mutates, each on its own pooled row:
// every row must equal the same run made alone, entry for entry.
func TestOverlayDijkstraWithinConcurrent(t *testing.T) {
	type run struct {
		src    NodeID
		within []NodeID
		want   *ShortestPaths
	}
	for seed := int64(0); seed < 8; seed++ {
		g := blockedMultigraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		_, ov := growPair(t, g, rng)
		var runs []run
		for src := 0; src < ov.NumNodes(); src++ {
			var within []NodeID
			for v := 0; v < g.NumNodes(); v++ {
				if rng.Intn(3) > 0 {
					within = append(within, NodeID(v))
				}
			}
			sp, release := ov.DijkstraWithin(NodeID(src), within)
			runs = append(runs, run{NodeID(src), within, &ShortestPaths{Source: sp.Source, Dist: slices.Clone(sp.Dist), ParentEdge: slices.Clone(sp.ParentEdge)}})
			release()
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < 3*len(runs); k++ {
					r := runs[(k*(w+1))%len(runs)]
					sp, release := ov.DijkstraWithin(r.src, r.within)
					same := slices.Equal(sp.ParentEdge, r.want.ParentEdge) &&
						slices.EqualFunc(sp.Dist, r.want.Dist, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
					release()
					if !same {
						errs <- fmt.Sprintf("seed %d worker %d: the run from %d differs from the sequential one", seed, w, r.src)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}
