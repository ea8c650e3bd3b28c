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
	"sync"

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
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if s.dedupe(terminals) < 2 {
		return trivialTree(s.terms), nil
	}
	s.trees = append(s.trees, graph.DijkstraBatch(g, s.terms, nil)...)
	return s.closureTree(g)
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
// terminals it was chosen to reach. A tree that is exact there, such as
// a run over a subgraph that provably holds those paths, gives the same
// Steiner tree. SOFDA's Steiner phase relies on this: its first
// terminal's tree is a run confined to the nodes within rounding of a
// shortest path to a destination (see core's sourceRow and
// completeForest).
func KMBWith(g EdgeSource, terminals []graph.NodeID, opts *KMBOptions) (*Tree, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.kmbWith(g, terminals, opts.Provider)
}

// kmbWith is KMBWith's run on s.
func (s *scratch) kmbWith(g EdgeSource, terminals []graph.NodeID, p PathProvider) (*Tree, error) {
	if s.dedupe(terminals) < 2 {
		return trivialTree(s.terms), nil
	}
	for _, tm := range s.terms {
		s.trees = append(s.trees, p.Tree(tm))
	}
	return s.closureTree(g)
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

// scratch is the working state of one KMB run, kept across runs in
// scratchPool so that a run allocates only the Tree it returns. Every
// array is grown, never shrunk, and reset by the run that uses it.
//
// A node's local index, its position in nodes, lives in slot while its
// stamp equals gen. A run takes the next generation, so the slots of
// earlier runs go stale without a reset; only a wrap of gen clears them.
type scratch struct {
	// terms are the distinct terminals in first-seen order, local indices
	// 0 to len(terms)-1, and trees their shortest-path trees.
	terms []graph.NodeID
	trees []*graph.ShortestPaths

	// Prim's MST over the closure: the heap over terminal indices, the
	// settled marks, each terminal's closest settled terminal, and the
	// chosen closure edges.
	heap    graph.IndexedHeap
	settled []bool
	minFrom []int32
	closure []closureEdge

	// The expansion: node ids by local index and the paths' edge ids;
	// for a union with a cycle, its edge records, the union-find of
	// Kruskal and the tree degrees.
	slot  []int32
	stamp []uint32
	gen   uint32
	nodes []graph.NodeID
	ids   []graph.EdgeID
	edges []pathEdge
	uf    graph.UnionFind
	deg   []int32

	// peelLeaves' CSR of the tree edges by node, its fill cursors and its
	// stack of leaves.
	off, inc, next, leaves []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// dedupe starts a run: it takes a new generation and makes terms the
// distinct terminals in first-seen order, each stamped with its local
// index. It returns how many there are.
func (s *scratch) dedupe(terminals []graph.NodeID) int {
	if s.gen++; s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
	top := graph.NodeID(-1)
	for _, tm := range terminals {
		top = max(top, tm)
	}
	s.cover(int(top) + 1)
	s.terms, s.trees = s.terms[:0], s.trees[:0]
	for _, tm := range terminals {
		if s.stamp[tm] != s.gen {
			s.stamp[tm] = s.gen
			s.slot[tm] = int32(len(s.terms))
			s.terms = append(s.terms, tm)
		}
	}
	return len(s.terms)
}

// cover grows slot and stamp to address node ids below n.
func (s *scratch) cover(n int) {
	if n > len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
		s.slot = append(s.slot, make([]int32, n-len(s.slot))...)
	}
}

// local returns n's local index, giving it the next one the first time
// the run meets it.
func (s *scratch) local(n graph.NodeID) int32 {
	if s.stamp[n] != s.gen {
		s.stamp[n] = s.gen
		s.slot[n] = int32(len(s.nodes))
		s.nodes = append(s.nodes, n)
	}
	return s.slot[n]
}

// closureTree is KMB's body over two or more distinct terminals and their
// shortest-path trees, in s.terms and s.trees. It drops the trees when it
// returns, so a pooled scratch keeps none alive.
func (s *scratch) closureTree(g EdgeSource) (*Tree, error) {
	defer clear(s.trees)
	if err := Unreachable(s.trees[0], s.terms); err != nil {
		return nil, err
	}
	// Prim's MST on the dense closure, selecting through the indexed heap
	// (smallest-id tie-break matches the linear scan it replaced, so the
	// chosen closure edges are unchanged — only the selection cost drops).
	t := len(s.terms)
	s.heap.Grow(t)
	settled := grow(&s.settled, t)
	clear(settled)
	minFrom := grow(&s.minFrom, t)
	for i := range minFrom {
		minFrom[i] = -1
	}
	h := &s.heap
	h.Update(0, 0)
	s.closure = s.closure[:0]
	for h.Len() > 0 {
		best, _ := h.Pop()
		settled[best] = true
		if minFrom[best] >= 0 {
			s.closure = append(s.closure, closureEdge{a: minFrom[best], b: best})
		}
		dist := s.trees[best].Dist
		for i := int32(0); i < int32(t); i++ {
			if settled[i] {
				continue
			}
			if d := dist[s.terms[i]]; !h.Contains(i) || d < h.Key(i) {
				h.Update(i, d)
				minFrom[i] = best
			}
		}
	}
	return s.expand(g), nil
}

// grow returns (*buf)[:n], reallocating *buf when it is too short. The
// contents are not cleared.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// closureEdge is an edge of the closure MST between terminals[a] and
// terminals[b], expanded along the shortest path in terminals[a]'s tree.
type closureEdge struct{ a, b int32 }

// pathEdge is an edge of a cyclic path union: its id and cost, its
// endpoints' local indices, and whether it is in the tree (the MST, then
// the pruned tree).
type pathEdge struct {
	id     graph.EdgeID
	cost   float64
	u, v   int32
	inTree bool
}

// expand turns the closure MST into KMB's tree. Each closure edge becomes
// its shortest path, read from the trees' ParentEdge arrays one record
// per hop, whose other end is the next hop. A node's local index is the
// order the run met it in, so the terminals are 0 to t-1. One sort of the
// path edge ids drops the edges two paths share.
//
// The union of the paths is connected, since the closure MST spans the
// terminals and each of its edges becomes a path between its two ends.
// So a union of exactly |nodes| − 1 edges is a tree, which Kruskal would
// keep whole, and each of its leaves ends a simple path, so it is a
// terminal, which the peel would keep: the union is KMB's tree. Only a
// union with a cycle goes through spanTree. Nodes and Edges come out
// ascending, and Cost is summed in edge-id order.
func (s *scratch) expand(g EdgeSource) *Tree {
	top := 0
	for _, sp := range s.trees {
		top = max(top, len(sp.ParentEdge))
	}
	s.cover(top)
	s.nodes = append(s.nodes[:0], s.terms...)
	ids := s.ids[:0]
	for _, ce := range s.closure {
		sp := s.trees[ce.a]
		for v := s.terms[ce.b]; sp.ParentEdge[v] != graph.NoEdge; {
			id := sp.ParentEdge[v]
			ids = append(ids, id)
			v = g.Edge(id).Other(v)
			s.local(v)
		}
	}
	slices.Sort(ids)
	s.ids = slices.Compact(ids)
	if len(s.ids) != len(s.nodes)-1 {
		s.spanTree(g)
	}
	tree := &Tree{Nodes: slices.Clone(s.nodes), Edges: slices.Clone(s.ids)}
	slices.Sort(tree.Nodes)
	for _, id := range tree.Edges {
		tree.Cost += g.Edge(id).Cost
	}
	return tree
}

// spanTree cuts a path union with a cycle down to KMB's tree: Kruskal
// over its edges in (cost, id) order, a total order, then the peel of
// non-terminal leaves. The result is the unique minimal subtree of the
// MST spanning the terminals, so it depends only on the union. It leaves
// the tree's edges in s.ids, ascending, and its nodes in s.nodes.
func (s *scratch) spanTree(g EdgeSource) {
	s.edges = s.edges[:0]
	for _, id := range s.ids {
		e := g.Edge(id)
		s.edges = append(s.edges, pathEdge{id: id, cost: e.Cost, u: s.local(e.U), v: s.local(e.V)})
	}
	slices.SortFunc(s.edges, func(a, b pathEdge) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})

	n := len(s.nodes)
	s.uf.Reset(n)
	deg := grow(&s.deg, n)
	clear(deg)
	for i := range s.edges {
		e := &s.edges[i]
		if s.uf.Union(int(e.u), int(e.v)) {
			e.inTree = true
			deg[e.u]++
			deg[e.v]++
		}
	}
	t := int32(len(s.terms))
	s.peelLeaves(t)

	// A node stays while it is a terminal or keeps a tree edge.
	kept := 0
	for i, v := range s.nodes {
		if int32(i) < t || deg[i] > 0 {
			s.nodes[kept] = v
			kept++
		}
	}
	s.nodes = s.nodes[:kept]
	s.ids = s.ids[:0]
	for _, e := range s.edges {
		if e.inTree {
			s.ids = append(s.ids, e.id)
		}
	}
	slices.Sort(s.ids)
}

// peelLeaves repeatedly removes non-terminal leaves from the tree formed
// by the edges marked inTree, clearing their marks and updating deg, the
// nodes' tree degrees. Local indices below t are the terminals. It walks
// each node's tree edges through a local CSR: node n's edges are
// inc[off[n]:off[n+1]].
func (s *scratch) peelLeaves(t int32) {
	deg := s.deg
	off := grow(&s.off, len(deg)+1)
	off[0] = 0
	for n, d := range deg {
		off[n+1] = off[n] + d
	}
	inc := grow(&s.inc, int(off[len(deg)]))
	next := grow(&s.next, len(deg))
	copy(next, off)
	for i, e := range s.edges {
		if e.inTree {
			inc[next[e.u]] = int32(i)
			next[e.u]++
			inc[next[e.v]] = int32(i)
			next[e.v]++
		}
	}
	leaves := s.leaves[:0]
	for n, d := range deg {
		if int32(n) >= t && d == 1 {
			leaves = append(leaves, int32(n))
		}
	}
	for len(leaves) > 0 {
		n := leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		for _, i := range inc[off[n]:off[n+1]] {
			e := &s.edges[i]
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
			if other >= t && deg[other] == 1 {
				leaves = append(leaves, other)
			}
		}
	}
	s.leaves = leaves
}
