// Package steiner provides Steiner tree solvers over the graph substrate:
// the classic Kou–Markowsky–Berman (KMB) 2-approximation used as the ρST
// building block of SOFDA, and the Dreyfus–Wagner exact dynamic program used
// for small instances and as a test oracle.
//
// The paper invokes the LP-based 1.39-approximation of Byrka et al. [20] as
// a black box; KMB is the standard practical stand-in. All algorithms in
// this repository share the same solver, so comparative results are
// unaffected by the substitution.
package steiner

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"sof/internal/graph"
)

// Rho is the approximation ratio of the Steiner solver used throughout the
// repository (ρST in the paper). KMB guarantees 2·(1−1/t) < 2.
const Rho = 2.0

// Tree is a Steiner tree in the original graph.
type Tree struct {
	// Nodes are the tree's vertices (terminals plus Steiner points),
	// in ascending order.
	Nodes []graph.NodeID
	// Edges are the tree's edge IDs in the original graph.
	Edges []graph.EdgeID
	// Cost is the total edge connection cost of the tree.
	Cost float64
}

// Contains reports whether n is a vertex of the tree.
func (t *Tree) Contains(n graph.NodeID) bool {
	i := sort.Search(len(t.Nodes), func(i int) bool { return t.Nodes[i] >= n })
	return i < len(t.Nodes) && t.Nodes[i] == n
}

// dedupeTerminals returns the unique terminals, preserving first-seen order.
func dedupeTerminals(terminals []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(terminals))
	out := make([]graph.NodeID, 0, len(terminals))
	for _, t := range terminals {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// PathProvider supplies single-source shortest-path trees over the graph
// a Steiner instance runs on. chain.Oracle satisfies it, which lets every
// KMB call over the real network reuse the session's epoch-keyed Dijkstra
// cache instead of recomputing a private metric closure.
type PathProvider interface {
	// Tree returns the shortest-path tree rooted at n. The result must be
	// valid for the graph passed alongside the provider: a true
	// shortest-path tree wherever KMB reads it (see KMBWith).
	Tree(n graph.NodeID) *graph.ShortestPaths
}

// EdgeSource is the one graph query KMB makes once it has its trees: an
// edge record by id. *graph.Graph and *graph.Overlay satisfy it.
type EdgeSource interface {
	Edge(id graph.EdgeID) graph.Edge
}

// KMBOptions carry KMBWith's shortest-path source.
type KMBOptions struct {
	// Provider answers the per-terminal shortest-path queries of the
	// metric-closure phase. It is required.
	Provider PathProvider
}

// KMB computes a Steiner tree spanning terminals with the
// Kou–Markowsky–Berman algorithm: metric closure over terminals → MST of the
// closure → expansion into shortest paths → MST of the expansion → prune
// non-terminal leaves. Every terminal's shortest-path tree comes from one
// graph.DijkstraBatch. Returns an error if the terminals are not mutually
// reachable.
func KMB(g *graph.Graph, terminals []graph.NodeID) (*Tree, error) {
	terminals = dedupeTerminals(terminals)
	if len(terminals) < 2 {
		return trivialTree(terminals), nil
	}
	return closureTree(g, terminals, graph.DijkstraBatch(g, terminals, nil))
}

// KMBWith is KMB with the terminals' shortest-path trees taken from
// opts.Provider, one Tree call per distinct terminal, in terminal order,
// before the closure is built. The computed tree is KMB's for any
// provider that answers with true shortest-path trees: the closure MST
// breaks ties deterministically and the expansion depends only on the
// trees.
//
// A provider may answer with less than full trees. The closure reads the
// first terminal's tree at every other terminal, and each later
// terminal's tree only at the terminals still unconnected when Prim
// connects it; the expansion reads a tree along the paths to the
// terminals it was chosen to reach. A tree that is exact there — a
// truncated run, or a tree over a subgraph that provably holds those
// paths — gives the same Steiner tree. SOFDA's Steiner phase relies on
// this (see core's completeForestWith).
func KMBWith(g EdgeSource, terminals []graph.NodeID, opts *KMBOptions) (*Tree, error) {
	terminals = dedupeTerminals(terminals)
	if len(terminals) < 2 {
		return trivialTree(terminals), nil
	}
	trees := make([]*graph.ShortestPaths, len(terminals))
	for i, tm := range terminals {
		trees[i] = opts.Provider.Tree(tm)
	}
	return closureTree(g, terminals, trees)
}

// trivialTree is the Steiner tree of fewer than two distinct terminals.
func trivialTree(terminals []graph.NodeID) *Tree {
	if len(terminals) == 0 {
		return &Tree{}
	}
	return &Tree{Nodes: []graph.NodeID{terminals[0]}}
}

// Unreachable returns KMB's disconnection error for the first terminal
// after terminals[0] that sp, terminals[0]'s tree, does not reach, or nil
// when it reaches them all. The error wraps graph.ErrDisconnected.
func Unreachable(sp *graph.ShortestPaths, terminals []graph.NodeID) error {
	for _, tm := range terminals[1:] {
		if !sp.Reachable(tm) {
			return fmt.Errorf("steiner: terminal %d unreachable from %d: %w",
				tm, terminals[0], graph.ErrDisconnected)
		}
	}
	return nil
}

// closureTree is KMB's body over two or more distinct terminals and their
// shortest-path trees, in the same order.
func closureTree(g EdgeSource, terminals []graph.NodeID, trees []*graph.ShortestPaths) (*Tree, error) {
	if err := Unreachable(trees[0], terminals); err != nil {
		return nil, err
	}
	// Prim's MST on the dense closure, selecting through the indexed heap
	// (smallest-id tie-break matches the linear scan it replaced, so the
	// chosen closure edges are unchanged — only the selection cost drops).
	t := len(terminals)
	settled := make([]bool, t)
	minFrom := make([]int32, t)
	for i := range minFrom {
		minFrom[i] = -1
	}
	h := graph.NewIndexedHeap(t)
	h.Update(0, 0)
	closureEdges := make([]closureEdge, 0, t-1)
	for h.Len() > 0 {
		best, _ := h.Pop()
		settled[best] = true
		if minFrom[best] >= 0 {
			closureEdges = append(closureEdges, closureEdge{a: minFrom[best], b: best})
		}
		dist := trees[best].Dist
		for i := int32(0); i < int32(t); i++ {
			if settled[i] {
				continue
			}
			if d := dist[terminals[i]]; !h.Contains(i) || d < h.Key(i) {
				h.Update(i, d)
				minFrom[i] = best
			}
		}
	}
	return expand(g, terminals, trees, closureEdges), nil
}

// closureEdge is an edge of the closure MST between terminals[a] and
// terminals[b], expanded along the shortest path in terminals[a]'s tree.
type closureEdge struct{ a, b int32 }

// expand turns the closure MST into KMB's tree: each closure edge becomes
// its shortest path, then the MST of the union of those paths is pruned
// of non-terminal leaves.
func expand(g EdgeSource, terminals []graph.NodeID, trees []*graph.ShortestPaths, closureEdges []closureEdge) *Tree {
	// Expand closure edges into real paths, deduping edges.
	edgeSet := make(map[graph.EdgeID]bool)
	nodeSet := make(map[graph.NodeID]bool)
	for _, tm := range terminals {
		nodeSet[tm] = true
	}
	for _, ce := range closureEdges {
		b := terminals[ce.b]
		for _, e := range trees[ce.a].EdgesTo(b) {
			edgeSet[e] = true
		}
		for _, n := range trees[ce.a].PathTo(b) {
			nodeSet[n] = true
		}
	}

	// MST of the expansion subgraph, then prune.
	subNodes := make([]graph.NodeID, 0, len(nodeSet))
	for n := range nodeSet {
		subNodes = append(subNodes, n)
	}
	sort.Slice(subNodes, func(i, j int) bool { return subNodes[i] < subNodes[j] })
	tree := mstOfSubgraph(g, subNodes, edgeSet)
	prune(g, tree, terminals)
	normalize(tree)
	recost(g, tree)
	return tree
}

// mstOfSubgraph computes an MST over exactly the given nodes and the
// candidate edges in edgeSet (all with both endpoints in nodes). Each
// edge record is read once, before the sort. Kruskal takes the candidates
// by (cost, id), a total order, so the map's order never reaches the
// tree.
func mstOfSubgraph(g EdgeSource, nodes []graph.NodeID, edgeSet map[graph.EdgeID]bool) *Tree {
	type candidate struct {
		id graph.EdgeID
		e  graph.Edge
	}
	cs := make([]candidate, 0, len(edgeSet))
	for id := range edgeSet {
		cs = append(cs, candidate{id: id, e: g.Edge(id)})
	}
	slices.SortFunc(cs, func(a, b candidate) int {
		if a.e.Cost != b.e.Cost {
			return cmp.Compare(a.e.Cost, b.e.Cost)
		}
		return cmp.Compare(a.id, b.id)
	})
	uf := graph.NewSparseUnionFind()
	tree := &Tree{Nodes: nodes}
	for _, c := range cs {
		if uf.Union(int(c.e.U), int(c.e.V)) {
			tree.Edges = append(tree.Edges, c.id)
		}
	}
	return tree
}

// prune repeatedly removes non-terminal leaves from the tree in place.
func prune(g EdgeSource, tree *Tree, terminals []graph.NodeID) {
	isTerminal := make(map[graph.NodeID]bool, len(terminals))
	for _, t := range terminals {
		isTerminal[t] = true
	}
	deg := make(map[graph.NodeID]int)
	incident := make(map[graph.NodeID][]graph.EdgeID)
	for _, id := range tree.Edges {
		e := g.Edge(id)
		deg[e.U]++
		deg[e.V]++
		incident[e.U] = append(incident[e.U], id)
		incident[e.V] = append(incident[e.V], id)
	}
	removedEdge := make(map[graph.EdgeID]bool)
	removedNode := make(map[graph.NodeID]bool)
	var queue []graph.NodeID
	for _, n := range tree.Nodes {
		if !isTerminal[n] && deg[n] <= 1 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if removedNode[n] || isTerminal[n] || deg[n] > 1 {
			continue
		}
		removedNode[n] = true
		for _, id := range incident[n] {
			if removedEdge[id] {
				continue
			}
			removedEdge[id] = true
			other := g.Edge(id).Other(n)
			deg[other]--
			deg[n]--
			if !isTerminal[other] && deg[other] <= 1 {
				queue = append(queue, other)
			}
		}
	}
	var keptEdges []graph.EdgeID
	for _, id := range tree.Edges {
		if !removedEdge[id] {
			keptEdges = append(keptEdges, id)
		}
	}
	var keptNodes []graph.NodeID
	for _, n := range tree.Nodes {
		if !removedNode[n] {
			keptNodes = append(keptNodes, n)
		}
	}
	tree.Edges = keptEdges
	tree.Nodes = keptNodes
}

func normalize(t *Tree) {
	sort.Slice(t.Nodes, func(i, j int) bool { return t.Nodes[i] < t.Nodes[j] })
	sort.Slice(t.Edges, func(i, j int) bool { return t.Edges[i] < t.Edges[j] })
}

func recost(g EdgeSource, t *Tree) {
	t.Cost = 0
	for _, e := range t.Edges {
		t.Cost += g.Edge(e).Cost
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
	uf := graph.NewSparseUnionFind()
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
