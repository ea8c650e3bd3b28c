package graph

import (
	"math"
	"math/rand"
	"testing"
)

// line builds a path graph 0-1-2-...-n with unit edge costs and returns
// the edge ids in order.
func lineGraph(n int) (*Graph, []EdgeID) {
	g := New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddSwitch("")
	}
	edges := make([]EdgeID, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, g.MustAddEdge(NodeID(i), NodeID(i+1), 1))
	}
	return g, edges
}

func TestFailEdgeRoutesAround(t *testing.T) {
	// Triangle with a cheap direct edge and an expensive detour.
	g := New(3, 3)
	a, b, c := g.AddSwitch("a"), g.AddSwitch("b"), g.AddSwitch("c")
	direct := g.MustAddEdge(a, b, 1)
	g.MustAddEdge(a, c, 2)
	g.MustAddEdge(c, b, 2)

	sp := Dijkstra(g, a)
	if sp.Dist[b] != 1 {
		t.Fatalf("pre-failure dist a→b = %v, want 1", sp.Dist[b])
	}
	epoch := g.CostEpoch()
	if !g.FailEdge(direct) {
		t.Fatal("FailEdge reported no change")
	}
	if g.CostEpoch() == epoch {
		t.Fatal("FailEdge did not advance the cost epoch")
	}
	if !g.EdgeFailed(direct) {
		t.Fatal("EdgeFailed(direct) = false after FailEdge")
	}
	sp = Dijkstra(g, a)
	if sp.Dist[b] != 4 {
		t.Fatalf("post-failure dist a→b = %v, want 4 via detour", sp.Dist[b])
	}
	// Failing again is a no-op: no epoch churn.
	epoch = g.CostEpoch()
	if g.FailEdge(direct) || g.CostEpoch() != epoch {
		t.Fatal("re-failing a failed edge must be a no-op")
	}
	if !g.RestoreEdge(direct) {
		t.Fatal("RestoreEdge reported no change")
	}
	if g.CostEpoch() == epoch {
		t.Fatal("RestoreEdge did not advance the cost epoch")
	}
	sp = Dijkstra(g, a)
	if sp.Dist[b] != 1 {
		t.Fatalf("post-restore dist a→b = %v, want 1", sp.Dist[b])
	}
}

func TestFailNodeSeversComponent(t *testing.T) {
	g, _ := lineGraph(5)
	g.FailNode(2)
	sp := Dijkstra(g, 0)
	if sp.Dist[1] != 1 {
		t.Fatalf("dist 0→1 = %v, want 1", sp.Dist[1])
	}
	for _, v := range []NodeID{2, 3, 4} {
		if !math.IsInf(sp.Dist[v], 1) {
			t.Fatalf("node %d reachable (%v) across failed node 2", v, sp.Dist[v])
		}
	}
	// A failed source reaches nothing, itself included.
	sp = Dijkstra(g, 2)
	for v := range sp.Dist {
		if !math.IsInf(sp.Dist[v], 1) {
			t.Fatalf("failed source reaches node %d (dist %v)", v, sp.Dist[v])
		}
	}
	g.RestoreNode(2)
	sp = Dijkstra(g, 0)
	if sp.Dist[4] != 4 {
		t.Fatalf("post-restore dist 0→4 = %v, want 4", sp.Dist[4])
	}
}

func TestFailStateSnapshots(t *testing.T) {
	g, edges := lineGraph(70) // >64 elements exercises the second bitset word
	if g.Failures() != nil {
		t.Fatal("fresh graph has a non-nil failure snapshot")
	}
	g.FailEdge(edges[0])
	g.FailEdge(edges[68])
	g.FailNode(67)
	snap := g.Failures()
	fe, fn := snap.Counts()
	if fe != 2 || fn != 1 {
		t.Fatalf("Counts() = (%d,%d), want (2,1)", fe, fn)
	}
	if got := snap.FailedEdges(); len(got) != 2 || got[0] != edges[0] || got[1] != edges[68] {
		t.Fatalf("FailedEdges() = %v", got)
	}
	if got := snap.FailedNodes(); len(got) != 1 || got[0] != 67 {
		t.Fatalf("FailedNodes() = %v", got)
	}
	// Snapshots are immutable: restores publish a new one.
	g.RestoreAll()
	if fe, fn = snap.Counts(); fe != 2 || fn != 1 {
		t.Fatal("old snapshot mutated by RestoreAll")
	}
	if g.Failures() != nil {
		t.Fatal("RestoreAll left a non-nil snapshot")
	}
	if e, n := g.RestoreAll(); e != 0 || n != 0 {
		t.Fatalf("second RestoreAll restored (%d,%d), want (0,0)", e, n)
	}
}

func TestFailCloneShares(t *testing.T) {
	g, edges := lineGraph(4)
	g.FailEdge(edges[1])
	c := g.Clone()
	if !c.EdgeFailed(edges[1]) {
		t.Fatal("clone lost the failure mark")
	}
	c.RestoreEdge(edges[1])
	if g.EdgeFailed(edges[1]) != true {
		t.Fatal("restoring on the clone leaked into the original")
	}
}

// TestFailDijkstraMatchesBellmanFord cross-checks the SSSP cores under
// random failure patterns: the heap reference, and the default batch
// path, which takes delta-stepping.
func TestFailDijkstraMatchesBellmanFord(t *testing.T) {
	variants := []struct {
		name string
		run  func(g *Graph, src NodeID) *ShortestPaths
	}{
		{"heap", NewArena().DijkstraHeap},
		{"delta", func(g *Graph, src NodeID) *ShortestPaths { return DijkstraBatch(g, []NodeID{src}, nil)[0] }},
	}
	for _, variant := range variants {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 20; trial++ {
			g := RandomConnected(RandomConfig{Nodes: 30, ExtraEdges: 40, MaxEdge: 5}, int64(trial))
			for i := 0; i < 5; i++ {
				g.FailEdge(EdgeID(rng.Intn(g.NumEdges())))
			}
			for i := 0; i < 2; i++ {
				g.FailNode(NodeID(rng.Intn(g.NumNodes())))
			}
			src := NodeID(rng.Intn(g.NumNodes()))
			want := BellmanFord(g, src)
			got := variant.run(g, src)
			for v := range want.Dist {
				if want.Dist[v] != got.Dist[v] && !(math.IsInf(want.Dist[v], 1) && math.IsInf(got.Dist[v], 1)) {
					t.Fatalf("%s trial %d: dist[%d] = %v, want %v", variant.name, trial, v, got.Dist[v], want.Dist[v])
				}
			}
		}
	}
}

// TestFailBatchConsistent pins DijkstraBatch to the single-source runs
// under failures (shared arena, shared failure snapshot).
func TestFailBatchConsistent(t *testing.T) {
	g := RandomConnected(RandomConfig{Nodes: 40, ExtraEdges: 60, MaxEdge: 5}, 11)
	g.FailEdge(3)
	g.FailNode(5)
	sources := []NodeID{0, 5, 9, 21}
	batch := DijkstraBatch(g, sources, nil)
	for i, s := range sources {
		single := Dijkstra(g, s)
		for v := range single.Dist {
			bd, sd := batch[i].Dist[v], single.Dist[v]
			if bd != sd && !(math.IsInf(bd, 1) && math.IsInf(sd, 1)) {
				t.Fatalf("source %d: batch dist[%d] = %v, single = %v", s, v, bd, sd)
			}
		}
	}
}
