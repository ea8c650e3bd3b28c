package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sof/internal/graph"
)

// mapComponent is mapComponentsOf's component: its node set and its edges
// in input order.
type mapComponent struct {
	nodes map[graph.NodeID]bool
	edges []graph.EdgeID
}

// mapComponentsOf is the map-based componentsOf that componentsOf
// replaced, kept as its reference: a union-find over a node map that links
// the first edge end's root under the second's, with components ordered by
// their root node.
func mapComponentsOf(g *graph.Graph, edges []graph.EdgeID) []*mapComponent {
	parent := make(map[graph.NodeID]graph.NodeID)
	var find func(x graph.NodeID) graph.NodeID
	find = func(x graph.NodeID) graph.NodeID {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		return parent[x]
	}
	for _, id := range edges {
		e := g.Edge(id)
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
		}
	}
	byRoot := make(map[graph.NodeID]*mapComponent)
	for _, id := range edges {
		e := g.Edge(id)
		r := find(e.U)
		c, ok := byRoot[r]
		if !ok {
			c = &mapComponent{nodes: make(map[graph.NodeID]bool)}
			byRoot[r] = c
		}
		c.edges = append(c.edges, id)
		c.nodes[e.U] = true
		c.nodes[e.V] = true
	}
	out := make([]*mapComponent, 0, len(byRoot))
	roots := make([]graph.NodeID, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// mapAttachTree is the map-based Forest.AttachTree that the local CSR
// replaced, kept as its reference: a breadth-first walk from the anchor
// over a node map of each node's edges in input order.
func mapAttachTree(f *Forest, anchor CloneID, edges []graph.EdgeID, dests map[graph.NodeID]bool) (int, error) {
	anchorNode := f.clones[anchor].Node
	adj := make(map[graph.NodeID][]graph.EdgeID)
	for _, id := range edges {
		e := f.g.Edge(id)
		adj[e.U] = append(adj[e.U], id)
		adj[e.V] = append(adj[e.V], id)
	}
	if len(edges) > 0 {
		if _, ok := adj[anchorNode]; !ok {
			return 0, fmt.Errorf("core: anchor node %d not in attached tree", anchorNode)
		}
	}
	served := 0
	if dests[anchorNode] {
		f.MarkDestination(anchorNode, anchor)
		served++
	}
	type item struct {
		node  graph.NodeID
		clone CloneID
	}
	visited := map[graph.NodeID]bool{anchorNode: true}
	queue := []item{{node: anchorNode, clone: anchor}}
	usedEdges := 0
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, id := range adj[it.node] {
			other := f.g.Edge(id).Other(it.node)
			if visited[other] {
				continue
			}
			visited[other] = true
			usedEdges++
			c := f.appendClone(it.clone, other, id)
			if dests[other] {
				f.MarkDestination(other, c)
				served++
			}
			queue = append(queue, item{node: other, clone: c})
		}
	}
	if usedEdges != len(edges) {
		return served, fmt.Errorf("core: attached tree used %d of %d edges (not a connected tree at anchor %d)",
			usedEdges, len(edges), anchorNode)
	}
	return served, nil
}

// Shape bits of an assembly input.
const (
	shapeCycle         = 1 << iota // a triangle closes a cycle on a tree edge
	shapeParallel                  // a tree edge gets a parallel twin
	shapeAnchorOutside             // the anchor is a node no edge touches
	shapeDestAnchor                // the anchor is a destination
)

// assemblyInput is one input of the map-reference checks: an edge list on
// a random multigraph, in random order and orientation, an anchor and a
// destination set.
type assemblyInput struct {
	g      *graph.Graph
	edges  []graph.EdgeID
	anchor graph.NodeID
	dests  map[graph.NodeID]bool
}

// newAssemblyInput draws a random forest of 1–16 nodes, each node past the
// first joining an earlier one with probability 3/4, so there are often
// several trees, then adds what shape asks for.
func newAssemblyInput(seed int64, shape uint8) assemblyInput {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(16)
	g := graph.New(n+2, 2*n+4)
	for range n + 2 {
		g.AddSwitch("")
	}
	in := assemblyInput{g: g, dests: make(map[graph.NodeID]bool)}
	link := func(u, v graph.NodeID) {
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		in.edges = append(in.edges, g.MustAddEdge(u, v, 1))
	}
	for v := 1; v < n; v++ {
		if rng.Intn(4) > 0 {
			link(graph.NodeID(v), graph.NodeID(rng.Intn(v)))
		}
	}
	if shape&shapeParallel != 0 && len(in.edges) > 0 {
		e := g.Edge(in.edges[rng.Intn(len(in.edges))])
		link(e.U, e.V)
	}
	if shape&shapeCycle != 0 && len(in.edges) > 0 {
		e := g.Edge(in.edges[rng.Intn(len(in.edges))])
		link(e.U, graph.NodeID(n))
		link(graph.NodeID(n), e.V)
	}
	rng.Shuffle(len(in.edges), func(i, j int) { in.edges[i], in.edges[j] = in.edges[j], in.edges[i] })
	switch {
	case shape&shapeAnchorOutside != 0 || len(in.edges) == 0:
		in.anchor = graph.NodeID(n + 1)
	default:
		e := g.Edge(in.edges[rng.Intn(len(in.edges))])
		in.anchor = e.U
	}
	for k := rng.Intn(5); k > 0; k-- {
		in.dests[graph.NodeID(rng.Intn(n+2))] = true
	}
	if shape&shapeDestAnchor != 0 {
		in.dests[in.anchor] = true
	}
	return in
}

// assemblyOutcome counts what one input exercised.
type assemblyOutcome struct {
	components    int
	anchorOutside bool // AttachTree refused an anchor outside the edges
	notTree       bool // a component had a cycle or a parallel edge
	destAtAnchor  bool // AttachTree served a destination at its anchor
}

// checkAssembly requires componentsOf to equal mapComponentsOf on in's
// edges — the components in order, each one's edges in order and its node
// set — and AttachTree to equal mapAttachTree, clone for clone, with equal
// served counts, destinations and errors, from the anchor over all the
// edges and over each component's edges, the anchor's component from the
// anchor and every other from its smallest node. AttachTree must refuse
// a component as not a connected tree exactly when it has a cycle or a
// parallel edge.
func checkAssembly(t *testing.T, in assemblyInput) assemblyOutcome {
	t.Helper()
	got, want := componentsOf(in.g, in.edges), mapComponentsOf(in.g, in.edges)
	if len(got) != len(want) {
		t.Fatalf("edges %v: %d components, reference %d", in.edges, len(got), len(want))
	}
	for i := range got {
		wantNodes := slices.Sorted(maps.Keys(want[i].nodes))
		if !slices.Equal(got[i].edges, want[i].edges) || !slices.Equal(got[i].nodes, wantNodes) {
			t.Fatalf("edges %v: component %d has edges %v and nodes %v, reference %v and %v",
				in.edges, i, got[i].edges, got[i].nodes, want[i].edges, wantNodes)
		}
	}
	// attach runs both on fresh forests, the anchor a second root of
	// anchor's node, requires equal outcomes and returns AttachTree's error.
	attach := func(anchor graph.NodeID, edges []graph.EdgeID) error {
		var served [2]int
		var errs [2]error
		var forests [2]*Forest
		for k := range forests {
			f := NewForest(in.g, 0)
			f.newRoot(anchor)
			a := f.newRoot(anchor)
			if k == 0 {
				served[k], errs[k] = f.AttachTree(a, edges, in.dests)
			} else {
				served[k], errs[k] = mapAttachTree(f, a, edges, in.dests)
			}
			forests[k] = f
		}
		if served[0] != served[1] || fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("anchor %d, edges %v: AttachTree served %d (%v), reference %d (%v)",
				anchor, edges, served[0], errs[0], served[1], errs[1])
		}
		if !slices.Equal(forests[0].clones, forests[1].clones) || !maps.Equal(forests[0].dests, forests[1].dests) {
			t.Fatalf("anchor %d, edges %v: AttachTree laid %+v serving %v, reference %+v serving %v",
				anchor, edges, forests[0].clones, forests[0].dests, forests[1].clones, forests[1].dests)
		}
		return errs[0]
	}
	out := assemblyOutcome{components: len(got)}
	err := attach(in.anchor, in.edges)
	out.anchorOutside = strings.Contains(fmt.Sprint(err), "not in attached tree")
	out.destAtAnchor = err == nil && in.dests[in.anchor]
	for _, c := range got {
		from := c.nodes[0]
		if slices.Contains(c.nodes, in.anchor) {
			from = in.anchor
		}
		// A connected component is a tree exactly when it has one edge
		// fewer than nodes, and AttachTree must refuse any other.
		err := attach(from, c.edges)
		cyclic := len(c.edges) >= len(c.nodes)
		if cyclic != strings.Contains(fmt.Sprint(err), "not a connected tree") || !cyclic && err != nil {
			t.Fatalf("component %v over %v (cyclic %v) from %d: AttachTree returned %v", c.edges, c.nodes, cyclic, from, err)
		}
		out.notTree = out.notTree || cyclic
		out.destAtAnchor = out.destAtAnchor || err == nil && in.dests[from]
	}
	return out
}

// TestAssemblyMatchesMapReference runs checkAssembly over 2,000 inputs,
// every shape 125 times, and requires each case the map reference has to
// agree on to occur: several components, an anchor outside the edges, a
// component with a cycle or a parallel edge, and a destination at the
// anchor.
func TestAssemblyMatchesMapReference(t *testing.T) {
	var several, outside, notTree, destAtAnchor int
	for seed := int64(0); seed < 2000; seed++ {
		out := checkAssembly(t, newAssemblyInput(seed, uint8(seed%16)))
		if out.components >= 2 {
			several++
		}
		if out.anchorOutside {
			outside++
		}
		if out.notTree {
			notTree++
		}
		if out.destAtAnchor {
			destAtAnchor++
		}
	}
	t.Logf("of 2000 inputs: %d with several components, %d anchors outside, %d components not a tree, %d destinations at the anchor",
		several, outside, notTree, destAtAnchor)
	if several < 200 || outside < 200 || notTree < 200 || destAtAnchor < 200 {
		t.Fatal("a case the reference must agree on occurred fewer than 200 times")
	}
}

// FuzzAssemblyMatchesMapReference pins componentsOf and AttachTree to
// their map-based references on random edge sets (see checkAssembly).
func FuzzAssemblyMatchesMapReference(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		checkAssembly(t, newAssemblyInput(seed, shape))
	})
}
