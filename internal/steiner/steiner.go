// Package steiner provides the Steiner tree solver over the graph
// substrate: the classic Kou–Markowsky–Berman (KMB) 2-approximation used as
// the ρST building block of SOFDA. Its tests carry the Dreyfus–Wagner exact
// dynamic program as an oracle.
//
// The paper invokes the LP-based 1.39-approximation of Byrka et al. [20] as
// a black box; KMB is the standard practical stand-in. All algorithms in
// this repository share the same solver, so comparative results are
// unaffected by the substitution.
package steiner

import (
	"cmp"
	"fmt"
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
	out := make([]graph.NodeID, 0, len(terminals))
	for _, t := range terminals {
		if !slices.Contains(out, t) {
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
// terminals it was chosen to reach. A tree that is exact there — a run
// truncated once the terminals are settled, or a tree over a subgraph
// that provably holds those paths — gives the same Steiner tree. SOFDA's
// Steiner phase relies on this: its first terminal's tree is a seeded
// run truncated at the destinations (see core's sourceRow and
// completeForest).
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
// of non-terminal leaves. It runs on slices: a node's local index is its
// position in the union's sorted node list, and Kruskal and the pruning
// work on those indices. Kruskal takes the edges by (cost, id), a total
// order, and the pruned tree is the unique minimal subtree of the MST
// spanning the terminals, so the tree depends only on the paths. Nodes
// and Edges come out ascending, and Cost is summed in edge-id order.
func expand(g EdgeSource, terminals []graph.NodeID, trees []*graph.ShortestPaths, closureEdges []closureEdge) *Tree {
	nodes, ids := pathUnion(terminals, trees, closureEdges)
	local := func(n graph.NodeID) int32 {
		i, _ := slices.BinarySearch(nodes, n)
		return int32(i)
	}

	// One record read per edge, then Kruskal by (cost, id). edges stays in
	// id order; byCost is the Kruskal order over its indices.
	edges := make([]pathEdge, len(ids))
	byCost := make([]int32, len(ids))
	for i, id := range ids {
		e := g.Edge(id)
		edges[i] = pathEdge{cost: e.Cost, u: local(e.U), v: local(e.V)}
		byCost[i] = int32(i)
	}
	slices.SortFunc(byCost, func(a, b int32) int {
		if c := cmp.Compare(edges[a].cost, edges[b].cost); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	uf := graph.NewUnionFind(len(nodes))
	deg := make([]int32, len(nodes))
	for _, i := range byCost {
		e := &edges[i]
		if uf.Union(int(e.u), int(e.v)) {
			e.inTree = true
			deg[e.u]++
			deg[e.v]++
		}
	}

	isTerminal := make([]bool, len(nodes))
	for _, tm := range terminals {
		isTerminal[local(tm)] = true
	}
	peelLeaves(edges, deg, isTerminal)

	// A node stays while it is a terminal or keeps a tree edge. Both
	// filters run in ascending order, in place.
	tree := &Tree{Nodes: nodes[:0], Edges: ids[:0]}
	for n, v := range nodes {
		if isTerminal[n] || deg[n] > 0 {
			tree.Nodes = append(tree.Nodes, v)
		}
	}
	for i, id := range ids {
		if edges[i].inTree {
			tree.Edges = append(tree.Edges, id)
			tree.Cost += edges[i].cost
		}
	}
	return tree
}

// pathEdge is an edge of expand's path union: its cost, its endpoints'
// local indices, and whether it is in the tree (the MST, then the pruned
// tree).
type pathEdge struct {
	cost   float64
	u, v   int32
	inTree bool
}

// pathUnion returns the nodes and edge ids of the closure edges' paths,
// read from the trees' Parent and ParentEdge arrays, with the terminals
// among the nodes. Both come back sorted and free of duplicates.
func pathUnion(terminals []graph.NodeID, trees []*graph.ShortestPaths, closureEdges []closureEdge) ([]graph.NodeID, []graph.EdgeID) {
	hops := 0
	for _, ce := range closureEdges {
		sp := trees[ce.a]
		for v := terminals[ce.b]; sp.Parent[v] != graph.None; v = sp.Parent[v] {
			hops++
		}
	}
	nodes := append(make([]graph.NodeID, 0, len(terminals)+hops), terminals...)
	ids := make([]graph.EdgeID, 0, hops)
	for _, ce := range closureEdges {
		sp := trees[ce.a]
		for v := terminals[ce.b]; sp.Parent[v] != graph.None; v = sp.Parent[v] {
			nodes = append(nodes, sp.Parent[v])
			ids = append(ids, sp.ParentEdge[v])
		}
	}
	slices.Sort(nodes)
	slices.Sort(ids)
	return slices.Compact(nodes), slices.Compact(ids)
}

// peelLeaves repeatedly removes non-terminal leaves from the tree formed
// by the edges marked inTree, clearing their marks and updating deg, the
// nodes' tree degrees. It walks each node's tree edges through a local
// CSR: node n's edges are inc[off[n]:off[n+1]].
func peelLeaves(edges []pathEdge, deg []int32, isTerminal []bool) {
	off := make([]int32, len(deg)+1)
	for n, d := range deg {
		off[n+1] = off[n] + d
	}
	inc := make([]int32, off[len(deg)])
	next := slices.Clone(off[:len(deg)])
	for i, e := range edges {
		if e.inTree {
			inc[next[e.u]] = int32(i)
			next[e.u]++
			inc[next[e.v]] = int32(i)
			next[e.v]++
		}
	}
	var leaves []int32
	for n, d := range deg {
		if !isTerminal[n] && d == 1 {
			leaves = append(leaves, int32(n))
		}
	}
	for len(leaves) > 0 {
		n := leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		for _, i := range inc[off[n]:off[n+1]] {
			e := &edges[i]
			if !e.inTree {
				continue
			}
			e.inTree = false
			other := e.u
			if other == n {
				other = e.v
			}
			deg[n]--
			deg[other]--
			if !isTerminal[other] && deg[other] == 1 {
				leaves = append(leaves, other)
			}
		}
	}
}
