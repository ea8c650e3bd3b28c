package graph

import (
	"math"
	"slices"
	"sync"
)

// ShortestPaths holds the single-source shortest-path tree computed by
// Dijkstra. Distances are in total edge connection cost; node costs are not
// included (the chain package layers setup costs on top).
type ShortestPaths struct {
	Source NodeID
	// Dist[v] is the cost of the shortest path Source→v, +Inf if
	// unreachable.
	Dist []float64
	// ParentEdge[v] is the edge that reaches v on its shortest path, NoEdge
	// for the source and unreachable nodes. Its other end is v's parent.
	ParentEdge []EdgeID
	// built records the layout that built the tree, which RepairTree
	// reads to decide whether the tree can be its base.
	built treeStamp
}

// Reachable reports whether t is reachable from the source.
func (sp *ShortestPaths) Reachable(t NodeID) bool {
	return !math.IsInf(sp.Dist[t], 1)
}

// Path returns the shortest path Source…t as its nodes, Source and t
// inclusive, and its edges, one fewer; both are nil when t is
// unreachable. It walks the recorded parent edges back from t, reading
// each hop's other end from g, the graph the tree was built over.
func (sp *ShortestPaths) Path(g *Graph, t NodeID) ([]NodeID, []EdgeID) {
	if !sp.Reachable(t) {
		return nil, nil
	}
	nodes := []NodeID{t}
	var edges []EdgeID
	for v := t; sp.ParentEdge[v] != NoEdge; {
		e := sp.ParentEdge[v]
		v = g.Edge(e).Other(v)
		nodes = append(nodes, v)
		edges = append(edges, e)
	}
	slices.Reverse(nodes)
	slices.Reverse(edges)
	return nodes, edges
}

// Arena is the reusable scratch state of the SSSP core: the
// delta-stepping calendar, staging lists and run parents, the indexed
// heap (whose position index self-restores on drain), and a
// generation-stamped settled marker, so one arena is ready for the next
// run without any O(n) reset. The package-level entry points borrow
// arenas from an internal pool; a caller running many batches back to
// back may hold its own instead. The result arrays are NOT part of the
// arena — callers (the chain oracle in particular) retain ShortestPaths
// indefinitely.
//
// An Arena is not safe for concurrent use; concurrent runs take separate
// arenas (or pass nil and share the pool).
type Arena struct {
	h    IndexedHeap
	done []uint64
	// tgt stamps the nodes whose parent RepairTree re-derived with the
	// repair's generation, as done stamps the heap's settled nodes and the
	// repair's invalidated ones.
	tgt []uint64
	gen uint64
	ds  deltaScratch
	rs  repairScratch
}

// NewArena returns an empty arena. Passing nil to DijkstraBatch borrows
// one from an internal pool instead, so an explicit arena is only worth
// holding across several batches.
func NewArena() *Arena { return new(Arena) }

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

func (a *Arena) ensure(n int) {
	a.h.Grow(n)
	if len(a.done) < n {
		done := make([]uint64, n)
		copy(done, a.done)
		a.done = done
		tgt := make([]uint64, n)
		copy(tgt, a.tgt)
		a.tgt = tgt
	}
}

// pick returns the arc partition a run over g takes with delta-stepping,
// or nil when the heap must run instead. It is the one place that
// decides: a layout has no bucket width (delta 0) when g's costs are all
// zero or one is +Inf, or when a kept arc costs 0 or vanishes when added
// to a distance (see buildDeltaLayout). Full runs, batches and tree
// repairs all follow it.
func pick(g *Graph) *deltaLayout {
	if lay := g.deltaLayoutFor(); lay.delta > 0 {
		return lay
	}
	return nil
}

// newShortestPaths allocates the result arrays of one run from src over
// n nodes; the kernels initialize them.
func newShortestPaths(src NodeID, n int) *ShortestPaths {
	return &ShortestPaths{
		Source:     src,
		Dist:       make([]float64, n),
		ParentEdge: make([]EdgeID, n),
	}
}

// Dijkstra computes shortest paths from src over edge connection costs.
// The traversal runs with a pooled arena, so a run allocates only its
// result arrays. Ties are settled toward the smaller node id, making the
// returned tree (not just the distances) deterministic: it is bit for bit
// the tree of Arena.DijkstraHeap.
func Dijkstra(g *Graph, src NodeID) *ShortestPaths {
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	return a.Dijkstra(g, src)
}

// Dijkstra is the per-arena form of the package-level Dijkstra, reusing
// a's scratch. The run takes delta-stepping whenever g's costs admit a
// bucket width (see pick), and the indexed heap otherwise.
func (a *Arena) Dijkstra(g *Graph, src NodeID) *ShortestPaths {
	n := g.NumNodes()
	sp := newShortestPaths(src, n)
	a.ensure(n)
	if lay := pick(g); lay != nil {
		dijkstraDelta(g, lay, a, sp)
	} else {
		dijkstraHeap(g, nil, nil, a, sp)
	}
	return sp
}

// DijkstraHeap computes the same tree as Dijkstra with the indexed heap
// alone. It is the reference the delta-stepping kernel is pinned to, the
// way BellmanFord is for Dijkstra: the equivalence suites and the
// heap/delta benchmark call it, and no library path does.
func (a *Arena) DijkstraHeap(g *Graph, src NodeID) *ShortestPaths {
	n := g.NumNodes()
	sp := newShortestPaths(src, n)
	a.ensure(n)
	dijkstraHeap(g, nil, nil, a, sp)
	return sp
}

// DijkstraBatch runs Dijkstra from every source through one shared arena
// and one partition fetch, with the per-source result arrays carved from
// two batch-wide backing allocations, so k trees take 3 allocations
// instead of 3k. Results are returned in source order; duplicate sources
// share one tree (the same *ShortestPaths pointer). A nil arena borrows
// one from the internal pool for the whole batch, which is the right
// choice for a one-off batch.
func DijkstraBatch(g *Graph, sources []NodeID, a *Arena) []*ShortestPaths {
	if len(sources) == 0 {
		return nil
	}
	if a == nil {
		a = arenaPool.Get().(*Arena)
		defer arenaPool.Put(a)
	}
	n := g.NumNodes()
	a.ensure(n)
	lay := pick(g)

	out := make([]*ShortestPaths, len(sources))
	firstIdx := make(map[NodeID]int, len(sources))
	uniq := make([]NodeID, 0, len(sources))
	for _, s := range sources {
		if _, ok := firstIdx[s]; !ok {
			firstIdx[s] = len(uniq)
			uniq = append(uniq, s)
		}
	}
	k := len(uniq)
	sps := make([]ShortestPaths, k)
	dist := make([]float64, k*n)
	pedge := make([]EdgeID, k*n)
	for i, s := range uniq {
		sp := &sps[i]
		sp.Source = s
		sp.Dist = dist[i*n : (i+1)*n : (i+1)*n]
		sp.ParentEdge = pedge[i*n : (i+1)*n : (i+1)*n]
		if lay != nil {
			dijkstraDelta(g, lay, a, sp)
		} else {
			dijkstraHeap(g, nil, nil, a, sp)
		}
	}
	for i, s := range sources {
		out[i] = &sps[firstIdx[s]]
	}
	return out
}

// dijkstraHeap is the indexed-heap SSSP core: it fills sp (whose Source
// and result arrays the caller prepared) in place. Blocked elements
// (failed or capacity-masked) are skipped: no relaxation crosses a
// blocked edge or enters a blocked node, and a blocked source yields an
// all-unreachable tree (its own distance included — a dead node reaches
// nothing, not even itself).
//
// A non-nil ov runs over that overlay of g: a popped node's appended arcs
// are relaxed after its CSR arcs, in insertion order, which is the arc
// order of g's clone with the same elements added. Appended edges are
// never blocked; a base node they enter still is. A non-nil in confines
// the run to the appended nodes and the base nodes v with in[v]: every
// arc into another base node is skipped, as if blocked.
func dijkstraHeap(g *Graph, ov *Overlay, in []bool, a *Arena, sp *ShortestPaths) {
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.ParentEdge[i] = NoEdge
	}
	settleHeap(g, ov, in, a, sp)
}

// settleHeap is dijkstraHeap's run over a row whose every entry already
// holds +Inf/NoEdge. It writes only the source's entry and those of the
// nodes it reaches.
func settleHeap(g *Graph, ov *Overlay, in []bool, a *Arena, sp *ShortestPaths) {
	c := g.csr()
	fs := g.block.blocked.Load()
	if fs.NodeFailed(sp.Source) {
		return
	}
	sp.Dist[sp.Source] = 0
	a.gen++
	gen, done := a.gen, a.done
	h := &a.h
	h.Update(int32(sp.Source), 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		done[u] = gen
		if int(u) < c.nodes {
			for i := c.row[u]; i < c.row[u+1]; i++ {
				v := c.to[i]
				if done[v] == gen || in != nil && !in[v] {
					continue
				}
				if fs != nil && (fs.EdgeFailed(EdgeID(c.eid[i])) || fs.NodeFailed(NodeID(v))) {
					continue
				}
				nd := du + g.edges[c.eid[i]].Cost
				if nd < sp.Dist[v] {
					sp.Dist[v] = nd
					sp.ParentEdge[v] = EdgeID(c.eid[i])
					h.Update(v, nd)
				}
			}
		}
		if ov == nil {
			continue
		}
		for k := ov.firstArc(NodeID(u)); k >= 0; k = ov.next[k] {
			arc := ov.arc(k)
			v := arc.To
			if done[v] == gen || fs.NodeFailed(v) || in != nil && int(v) < c.nodes && !in[v] {
				continue
			}
			nd := du + ov.edges[k>>1].Cost
			if nd < sp.Dist[v] {
				sp.Dist[v] = nd
				sp.ParentEdge[v] = arc.Edge
				h.Update(int32(v), nd)
			}
		}
	}
}
