package steiner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sof/internal/graph"
)

// gridGraph builds an r×c grid of switches with unit edge costs.
func gridGraph(r, c int) *graph.Graph {
	g := graph.New(r*c, 2*r*c)
	for i := 0; i < r*c; i++ {
		g.AddSwitch("")
	}
	id := func(i, j int) graph.NodeID { return graph.NodeID(i*c + j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.MustAddEdge(id(i, j), id(i, j+1), 1)
			}
			if i+1 < r {
				g.MustAddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return g
}

func TestKMBTrivialCases(t *testing.T) {
	g := gridGraph(3, 3)
	tr, err := KMB(g, nil)
	if err != nil || len(tr.Nodes) != 0 || tr.Cost != 0 {
		t.Fatalf("empty terminals: %v %+v", err, tr)
	}
	tr, err = KMB(g, []graph.NodeID{4})
	if err != nil || len(tr.Nodes) != 1 || tr.Cost != 0 {
		t.Fatalf("single terminal: %v %+v", err, tr)
	}
	tr, err = KMB(g, []graph.NodeID{4, 4, 4})
	if err != nil || len(tr.Nodes) != 1 {
		t.Fatalf("duplicate terminals: %v %+v", err, tr)
	}
}

func TestKMBPath(t *testing.T) {
	g := gridGraph(1, 5)
	tr, err := KMB(g, []graph.NodeID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Cost-4) > 1e-9 {
		t.Fatalf("cost = %v, want 4", tr.Cost)
	}
	if err := Verify(g, tr, []graph.NodeID{0, 4}); err != nil {
		t.Fatal(err)
	}
}

func TestKMBCross(t *testing.T) {
	// 3x3 grid, terminals at the four corners. The optimum is an H shape:
	// top row + bottom row + middle column, cost 6.
	g := gridGraph(3, 3)
	terms := []graph.NodeID{0, 2, 6, 8}
	tr, err := KMB(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, tr, terms); err != nil {
		t.Fatal(err)
	}
	if tr.Cost < 6-1e-9 || tr.Cost > 12+1e-9 {
		t.Fatalf("cost = %v, want within [6,12]", tr.Cost)
	}
	ex, err := Exact(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ex.Cost-6) > 1e-9 {
		t.Fatalf("exact cost = %v, want 6", ex.Cost)
	}
}

func TestKMBDisconnected(t *testing.T) {
	g := graph.New(2, 0)
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	if _, err := KMB(g, []graph.NodeID{a, b}); err == nil {
		t.Fatal("expected error for disconnected terminals")
	}
	if _, err := Exact(g, []graph.NodeID{a, b}); err == nil {
		t.Fatal("expected exact error for disconnected terminals")
	}
}

func TestExactTrivial(t *testing.T) {
	g := gridGraph(2, 2)
	tr, err := Exact(g, []graph.NodeID{1})
	if err != nil || tr.Cost != 0 || len(tr.Nodes) != 1 {
		t.Fatalf("single terminal exact: %v %+v", err, tr)
	}
}

func TestExactTooManyTerminals(t *testing.T) {
	g := gridGraph(5, 5)
	terms := make([]graph.NodeID, MaxExactTerminals+1)
	for i := range terms {
		terms[i] = graph.NodeID(i)
	}
	if _, err := Exact(g, terms); err == nil {
		t.Fatal("expected terminal-limit error")
	}
}

func TestExactSteinerPoint(t *testing.T) {
	// Star: center 0, leaves 1,2,3 with unit edges; terminals are the
	// leaves. Optimum uses the non-terminal center, cost 3.
	g := graph.New(4, 3)
	c := g.AddSwitch("c")
	var leaves []graph.NodeID
	for i := 0; i < 3; i++ {
		l := g.AddSwitch("")
		g.MustAddEdge(c, l, 1)
		leaves = append(leaves, l)
	}
	// Expensive direct edges between the leaves.
	g.MustAddEdge(leaves[0], leaves[1], 10)
	g.MustAddEdge(leaves[1], leaves[2], 10)
	tr, err := Exact(g, leaves)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Cost-3) > 1e-9 {
		t.Fatalf("exact cost = %v, want 3", tr.Cost)
	}
	if !tr.Contains(c) {
		t.Fatal("exact tree should include the Steiner point")
	}
	if err := Verify(g, tr, leaves); err != nil {
		t.Fatal(err)
	}
}

// TestKMBWithinRhoOfExact is the core property test: on random instances,
// KMB must produce feasible trees within ρST=2 of Dreyfus–Wagner.
func TestKMBWithinRhoOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 30; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 25, ExtraEdges: 35, VMFraction: 0.3, MaxEdge: 10, MaxSetup: 5,
		}, seed)
		nterm := 2 + rng.Intn(5)
		pool := make([]graph.NodeID, g.NumNodes())
		for i := range pool {
			pool[i] = graph.NodeID(i)
		}
		terms := graph.SampleDistinct(rng, pool, nterm)

		kmb, err := KMB(g, terms)
		if err != nil {
			t.Fatalf("seed %d: KMB: %v", seed, err)
		}
		if err := Verify(g, kmb, terms); err != nil {
			t.Fatalf("seed %d: KMB verify: %v", seed, err)
		}
		ex, err := Exact(g, terms)
		if err != nil {
			t.Fatalf("seed %d: Exact: %v", seed, err)
		}
		if err := Verify(g, ex, terms); err != nil {
			t.Fatalf("seed %d: Exact verify: %v", seed, err)
		}
		if ex.Cost > kmb.Cost+1e-9 {
			t.Fatalf("seed %d: exact %v > KMB %v", seed, ex.Cost, kmb.Cost)
		}
		if kmb.Cost > Rho*ex.Cost+1e-9 {
			t.Fatalf("seed %d: KMB %v exceeds %v×exact %v", seed, kmb.Cost, Rho, ex.Cost)
		}
	}
}

func TestExactMatchesBruteForceOnTinyGraphs(t *testing.T) {
	// On tiny graphs, enumerate all edge subsets as a brute-force oracle.
	for seed := int64(0); seed < 15; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 7, ExtraEdges: 5, VMFraction: 0.3, MaxEdge: 8, MaxSetup: 5,
		}, seed)
		terms := []graph.NodeID{0, graph.NodeID(g.NumNodes() - 1), graph.NodeID(g.NumNodes() / 2)}
		ex, err := Exact(g, terms)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceSteiner(g, terms)
		if math.Abs(ex.Cost-want) > 1e-9 {
			t.Fatalf("seed %d: exact %v, brute force %v", seed, ex.Cost, want)
		}
	}
}

// bruteForceSteiner enumerates all 2^E edge subsets and returns the cheapest
// one connecting all terminals. Exponential; only for tiny test graphs.
func bruteForceSteiner(g *graph.Graph, terms []graph.NodeID) float64 {
	m := g.NumEdges()
	best := math.Inf(1)
	for mask := 0; mask < 1<<m; mask++ {
		var cost float64
		uf := graph.NewUnionFind(g.NumNodes())
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				e := g.Edge(graph.EdgeID(i))
				uf.Union(int(e.U), int(e.V))
				cost += e.Cost
			}
		}
		if cost >= best {
			continue
		}
		ok := true
		for _, t := range terms[1:] {
			if !uf.Same(int(terms[0]), int(t)) {
				ok = false
				break
			}
		}
		if ok {
			best = cost
		}
	}
	return best
}

func TestVerifyRejectsBadTrees(t *testing.T) {
	g := gridGraph(2, 3)
	terms := []graph.NodeID{0, 5}
	tr, err := KMB(g, terms)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Tree{Nodes: tr.Nodes, Edges: tr.Edges, Cost: tr.Cost + 5}
	if err := Verify(g, bad, terms); err == nil {
		t.Error("Verify should reject wrong cost")
	}
	bad2 := &Tree{Nodes: tr.Nodes[:len(tr.Nodes)-1], Edges: tr.Edges, Cost: tr.Cost}
	if err := Verify(g, bad2, terms); err == nil {
		t.Error("Verify should reject missing node")
	}
}

func TestTreeContains(t *testing.T) {
	tr := &Tree{Nodes: []graph.NodeID{1, 3, 5}}
	if !tr.Contains(3) || tr.Contains(2) {
		t.Fatal("Contains gave wrong answer")
	}
}

// Verify checks that tree is a valid Steiner tree for terminals in g: it is
// connected, acyclic, spans all terminals, and its recorded cost matches its
// edges.
func Verify(g *graph.Graph, tree *Tree, terminals []graph.NodeID) error {
	terminals = dedupeTerminals(terminals)
	if len(terminals) == 0 {
		return nil
	}
	inTree := make(map[graph.NodeID]bool, len(tree.Nodes))
	for _, n := range tree.Nodes {
		inTree[n] = true
	}
	for _, t := range terminals {
		if !inTree[t] {
			return fmt.Errorf("steiner: terminal %d not spanned", t)
		}
	}
	if len(tree.Edges) != len(tree.Nodes)-1 {
		return fmt.Errorf("steiner: %d edges for %d nodes (not a tree)", len(tree.Edges), len(tree.Nodes))
	}
	uf := graph.NewUnionFind(g.NumNodes())
	var cost float64
	for _, id := range tree.Edges {
		e := g.Edge(id)
		if !inTree[e.U] || !inTree[e.V] {
			return fmt.Errorf("steiner: edge %d leaves the node set", id)
		}
		if !uf.Union(int(e.U), int(e.V)) {
			return fmt.Errorf("steiner: edge %d closes a cycle", id)
		}
		cost += e.Cost
	}
	for _, t := range terminals[1:] {
		if !uf.Same(int(terminals[0]), int(t)) {
			return fmt.Errorf("steiner: terminals %d and %d disconnected in tree", terminals[0], t)
		}
	}
	if math.Abs(cost-tree.Cost) > 1e-6 {
		return fmt.Errorf("steiner: recorded cost %v != edge sum %v", tree.Cost, cost)
	}
	return nil
}
