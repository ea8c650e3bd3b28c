package graph

import (
	"math"
	"slices"
	"testing"
)

func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4, 5)
	a := g.AddSwitch("a")
	b := g.AddVM("b", 5)
	c := g.AddVM("c", 7)
	d := g.AddSwitch("d")
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(a, c, 4)
	g.MustAddEdge(b, c, 2)
	g.MustAddEdge(b, d, 6)
	g.MustAddEdge(c, d, 1)
	return g
}

func TestAddAndQuery(t *testing.T) {
	g := buildDiamond(t)
	if got, want := g.NumNodes(), 4; got != want {
		t.Fatalf("NumNodes = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 5; got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	if !g.IsVM(1) || g.IsVM(0) {
		t.Fatalf("IsVM mis-kinded nodes")
	}
	if got := g.NodeCost(2); got != 7 {
		t.Fatalf("NodeCost(2) = %v, want 7", got)
	}
	if got := len(g.VMs()); got != 2 {
		t.Fatalf("VMs count = %d, want 2", got)
	}
	if got := len(g.Switches()); got != 2 {
		t.Fatalf("Switches count = %d, want 2", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(2, 2)
	a := g.AddSwitch("a")
	g.AddSwitch("b")
	if _, err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddEdge(a, 9, 1); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if _, err := g.AddEdge(a, 1, -1); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := g.AddEdge(a, 1, math.NaN()); err == nil {
		t.Error("NaN cost accepted")
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 8}
	if e.Other(3) != 8 || e.Other(8) != 3 {
		t.Fatalf("Other mismatch: %v %v", e.Other(3), e.Other(8))
	}
}

func TestFindEdgePicksCheapest(t *testing.T) {
	g := New(2, 2)
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	g.MustAddEdge(a, b, 5)
	want := g.MustAddEdge(a, b, 2)
	if got := g.FindEdge(a, b); got != want {
		t.Fatalf("FindEdge = %v, want %v", got, want)
	}
	if got := g.FindEdge(b, a); got != want {
		t.Fatalf("FindEdge reversed = %v, want %v", got, want)
	}
}

func TestFindEdgeMissing(t *testing.T) {
	g := New(3, 1)
	a := g.AddSwitch("a")
	g.AddSwitch("b")
	c := g.AddSwitch("c")
	if got := g.FindEdge(a, c); got != NoEdge {
		t.Fatalf("FindEdge = %v, want NoEdge", got)
	}
}

func TestClone(t *testing.T) {
	g := buildDiamond(t)
	c := g.Clone()
	c.SetEdgeCost(0, 99)
	c.SetNodeCost(1, 42)
	if g.EdgeCost(0) == 99 {
		t.Error("Clone shares edge storage")
	}
	if g.NodeCost(1) == 42 {
		t.Error("Clone shares node storage")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone Validate: %v", err)
	}
}

func TestConnected(t *testing.T) {
	g := buildDiamond(t)
	if !g.Connected() {
		t.Fatal("diamond should be connected")
	}
	g.AddSwitch("island")
	if g.Connected() {
		t.Fatal("island should disconnect")
	}
	var empty Graph
	if !empty.Connected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestDijkstraDiamond(t *testing.T) {
	g := buildDiamond(t)
	sp := Dijkstra(g, 0)
	want := []float64{0, 1, 3, 4}
	for i, w := range want {
		if got := sp.Dist[i]; math.Abs(got-w) > 1e-9 {
			t.Errorf("Dist[%d] = %v, want %v", i, got, w)
		}
	}
}

// TestPath walks trees through Path: a diamond, the source itself, an
// unreachable node, and a multigraph whose tree reaches each node over
// the later, cheaper of two parallel edges, so a walk that took the first
// edge between two nodes instead of the recorded one would differ. The
// edges always sum to the target's distance.
func TestPath(t *testing.T) {
	multi := New(3, 4)
	for i := 0; i < 3; i++ {
		multi.AddSwitch("")
	}
	multi.MustAddEdge(0, 1, 5)
	multi.MustAddEdge(0, 1, 2)
	multi.MustAddEdge(1, 2, 4)
	multi.MustAddEdge(1, 2, 1)
	isolated := New(2, 0)
	isolated.AddSwitch("")
	isolated.AddSwitch("")
	for _, c := range []struct {
		name   string
		g      *Graph
		src, t NodeID
		nodes  []NodeID // nil when t is unreachable
		edges  []EdgeID
	}{
		{"diamond", buildDiamond(t), 0, 3, []NodeID{0, 1, 2, 3}, []EdgeID{0, 2, 4}},
		{"source", buildDiamond(t), 2, 2, []NodeID{2}, nil},
		{"unreachable", isolated, 0, 1, nil, nil},
		{"parallel edges", multi, 0, 2, []NodeID{0, 1, 2}, []EdgeID{1, 3}},
	} {
		sp := Dijkstra(c.g, c.src)
		nodes, edges := sp.Path(c.g, c.t)
		if !slices.Equal(nodes, c.nodes) || !slices.Equal(edges, c.edges) {
			t.Fatalf("%s: Path = %v, %v, want %v, %v", c.name, nodes, edges, c.nodes, c.edges)
		}
		if (nodes == nil) != (c.nodes == nil) {
			t.Fatalf("%s: Path nodes = %#v, want nil exactly when unreachable", c.name, nodes)
		}
		sum := 0.0
		for _, e := range edges {
			sum += c.g.EdgeCost(e)
		}
		if nodes != nil && sum != sp.Dist[c.t] {
			t.Fatalf("%s: edges sum to %v, Dist is %v", c.name, sum, sp.Dist[c.t])
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(2, 0)
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	sp := Dijkstra(g, a)
	if sp.Reachable(b) {
		t.Fatal("b should be unreachable")
	}
	if sp.ParentEdge[b] != NoEdge {
		t.Fatalf("unreachable b has parent edge %d", sp.ParentEdge[b])
	}
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := RandomConnected(RandomConfig{
			Nodes: 40, ExtraEdges: 60, VMFraction: 0.3, MaxEdge: 10, MaxSetup: 5,
		}, seed)
		d := Dijkstra(g, 0)
		b := BellmanFord(g, 0)
		for v := 0; v < g.NumNodes(); v++ {
			if math.Abs(d.Dist[v]-b.Dist[v]) > 1e-6 {
				t.Fatalf("seed %d node %d: dijkstra %v bellman-ford %v", seed, v, d.Dist[v], b.Dist[v])
			}
		}
	}
}

// TestDijkstraAllSourceOrderAndDedup: DijkstraBatch without an arena
// returns one tree per source, in source order, with duplicates aliased.
func TestDijkstraAllSourceOrderAndDedup(t *testing.T) {
	g := buildDiamond(t)
	trees := DijkstraBatch(g, []NodeID{0, 0, 2}, nil)
	if len(trees) != 3 {
		t.Fatalf("got %d trees, want 3 (source order)", len(trees))
	}
	if trees[0].Source != 0 || trees[1].Source != 0 || trees[2].Source != 2 {
		t.Fatalf("trees out of source order: %d, %d, %d",
			trees[0].Source, trees[1].Source, trees[2].Source)
	}
	if trees[0] != trees[1] {
		t.Fatal("duplicate sources should share one tree")
	}
	if trees[0] == trees[2] {
		t.Fatal("distinct sources aliased")
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d, want 5", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("fresh unions should succeed")
	}
	if uf.Union(0, 2) {
		t.Fatal("redundant union should fail")
	}
	if !uf.Same(0, 2) || uf.Same(0, 3) {
		t.Fatal("Same gave wrong answer")
	}
	if uf.Sets() != 3 {
		t.Fatalf("Sets = %d, want 3", uf.Sets())
	}
}

// TestMetricClosureTriangleInequality (Lemma 1): the shortest-path
// distances between terminals, read from their DijkstraBatch rows, form a
// metric.
func TestMetricClosureTriangleInequality(t *testing.T) {
	terms := []NodeID{0, 1, 2, 3, 4, 5, 6, 7}
	for seed := int64(0); seed < 10; seed++ {
		g := RandomConnected(RandomConfig{
			Nodes: 25, ExtraEdges: 40, VMFraction: 0.4, MaxEdge: 7, MaxSetup: 4,
		}, seed)
		rows := DijkstraBatch(g, terms, nil)
		for a := range terms {
			for b := range terms {
				for c, tc := range terms {
					if rows[a].Dist[tc] > rows[a].Dist[terms[b]]+rows[b].Dist[tc]+1e-9 {
						t.Fatalf("seed %d: triangle inequality violated at (%d,%d,%d)", seed, terms[a], terms[b], terms[c])
					}
				}
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := buildDiamond(t)
	g.nodes[0].Cost = 3 // switch with nonzero cost
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject switch with nonzero cost")
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := RandomConnected(RandomConfig{
			Nodes: 15, ExtraEdges: 5, VMFraction: 0.5, MaxEdge: 5, MaxSetup: 5,
		}, seed)
		if !g.Connected() {
			t.Fatalf("seed %d: not connected", seed)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTotalEdgeCost(t *testing.T) {
	g := buildDiamond(t)
	if got := g.TotalEdgeCost(); math.Abs(got-14) > 1e-9 {
		t.Fatalf("TotalEdgeCost = %v, want 14", got)
	}
}
