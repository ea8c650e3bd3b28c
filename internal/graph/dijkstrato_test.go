package graph

import (
	"math"
	"math/rand"
	"reflect"
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

// checkTruncated pins a truncated result against the full run from the
// same source. Every node the truncated run settled carries the full
// run's Dist, Parent and ParentEdge; every other node reads
// +Inf/None/NoEdge. Every reachable target is settled, and the settled
// set is a Dijkstra prefix: it holds every node strictly closer than the
// farthest target and nothing farther. It reports whether the run
// stopped before settling everything reachable.
func checkTruncated(t *testing.T, g *Graph, got, full *ShortestPaths, targets []NodeID) bool {
	t.Helper()
	stop := math.Inf(-1)
	for _, tg := range targets {
		if full.Reachable(tg) && !got.Reachable(tg) {
			t.Fatalf("src %d: reachable target %d left unsettled", full.Source, tg)
		}
		if full.Dist[tg] > stop {
			stop = full.Dist[tg]
		}
	}
	truncated := false
	for v := 0; v < g.NumNodes(); v++ {
		if got.Reachable(NodeID(v)) {
			if got.Dist[v] != full.Dist[v] || got.Parent[v] != full.Parent[v] || got.ParentEdge[v] != full.ParentEdge[v] {
				t.Fatalf("src %d node %d: truncated (%v,%d,%d) != full (%v,%d,%d)", full.Source, v,
					got.Dist[v], got.Parent[v], got.ParentEdge[v], full.Dist[v], full.Parent[v], full.ParentEdge[v])
			}
			if full.Dist[v] > stop {
				t.Fatalf("src %d: node %d at %v settled past the farthest target at %v", full.Source, v, full.Dist[v], stop)
			}
			continue
		}
		if got.Parent[v] != None || got.ParentEdge[v] != NoEdge {
			t.Fatalf("src %d: unsettled node %d kept parent data (%d,%d)", full.Source, v, got.Parent[v], got.ParentEdge[v])
		}
		if full.Reachable(NodeID(v)) {
			truncated = true
			if full.Dist[v] < stop {
				t.Fatalf("src %d: node %d at %v left unsettled below the farthest target at %v", full.Source, v, full.Dist[v], stop)
			}
		}
	}
	verifyTree(t, g, got)
	return truncated
}

// TestDijkstraToMatchesFullRun drives the truncated kernel, through an
// overlay with nothing appended, over random multigraphs (parallel and
// zero-cost edges) with failed and masked elements, blocked sources,
// unreachable and duplicate targets, all through one arena so every run
// starts from the previous run's abandoned heap and target stamps.
func TestDijkstraToMatchesFullRun(t *testing.T) {
	arena := NewArena()
	truncated, blockedSources := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		g := blockedMultigraph(seed)
		ov := NewOverlay(g)
		rng := rand.New(rand.NewSource(seed ^ 0x1d1d))
		n := g.NumNodes()
		for trial := 0; trial < 8; trial++ {
			src := NodeID(rng.Intn(n))
			targets := make([]NodeID, 1+rng.Intn(4))
			for i := range targets {
				targets[i] = NodeID(rng.Intn(n))
			}
			switch trial % 4 {
			case 1:
				targets = append(targets, targets[0]) // duplicate
			case 2:
				targets = append(targets, NodeID(n-1)) // isolated: runs to completion
			}
			full := NewArena().Dijkstra(g, src)
			got := ov.dijkstraTo(arena, src, targets)
			if checkTruncated(t, g, got, full, targets) {
				truncated++
			}
			if g.Blocked().NodeFailed(src) {
				blockedSources++
				if !reflect.DeepEqual(got, full) {
					t.Fatalf("seed %d: blocked source %d: truncated run differs from the all-unreachable tree", seed, src)
				}
			}
			if trial%4 == 2 && !reflect.DeepEqual(got, full) {
				t.Fatalf("seed %d src %d: run with an unreachable target differs from the full run", seed, src)
			}
		}
		if pooled := ov.DijkstraTo(0, []NodeID{1}); !reflect.DeepEqual(pooled, ov.dijkstraTo(arena, 0, []NodeID{1})) {
			t.Fatalf("seed %d: pooled DijkstraTo differs from the arena form", seed)
		}
	}
	if truncated < 100 {
		t.Fatalf("only %d runs stopped early; the truncation is barely exercised", truncated)
	}
	if blockedSources == 0 {
		t.Fatal("no run started from a blocked source")
	}
}

// TestDijkstraToSourceAndEmptyTargets covers the edges of the target
// contract: the source as its own only target settles nothing else, and
// an empty target list is a full run.
func TestDijkstraToSourceAndEmptyTargets(t *testing.T) {
	g := randomMultigraph(3)
	ov := NewOverlay(g)
	full := Dijkstra(g, 2)
	if got := ov.DijkstraTo(2, nil); !reflect.DeepEqual(got, full) {
		t.Fatal("empty target list is not a full run")
	}
	got := ov.DijkstraTo(2, []NodeID{2})
	for v := 0; v < g.NumNodes(); v++ {
		if v != 2 && got.Reachable(NodeID(v)) {
			t.Fatalf("node %d settled by a run targeting only its source", v)
		}
	}
	if got.Dist[2] != 0 || got.Parent[2] != None {
		t.Fatalf("source entry = (%v,%d), want (0,None)", got.Dist[2], got.Parent[2])
	}
}

// TestDijkstraToLeavesArenaClean is the abandoned-drain reset: after a
// truncated run stops with entries still queued, the same arena's next
// full run — heap or delta — is bit-identical to one on a fresh arena.
func TestDijkstraToLeavesArenaClean(t *testing.T) {
	for _, cfg := range []Config{
		{DeltaSteppingMinNodes: -1},
		{DeltaSteppingMinNodes: 1},
	} {
		arena := NewArenaWith(cfg)
		for seed := int64(0); seed < 20; seed++ {
			g := blockedMultigraph(seed)
			n := g.NumNodes()
			for src := 0; src < n; src += 3 {
				NewOverlay(g).dijkstraTo(arena, NodeID(src), []NodeID{NodeID((src + 1) % n)})
				next := NodeID((src + 5) % n)
				got := arena.Dijkstra(g, next)
				want := NewArenaWith(cfg).Dijkstra(g, next)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("config %+v seed %d: full run after a truncated one differs from a fresh arena's", cfg, seed)
				}
			}
		}
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
