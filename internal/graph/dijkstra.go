package graph

import (
	"cmp"
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
	// Parent[v] is the predecessor of v on the shortest path, None for the
	// source and unreachable nodes.
	Parent []NodeID
	// ParentEdge[v] is the edge used to reach v from Parent[v].
	ParentEdge []EdgeID
	// built records the layout that built the tree, which RepairTree
	// reads to decide whether the tree can be its base.
	built treeStamp
}

// Reachable reports whether t is reachable from the source.
func (sp *ShortestPaths) Reachable(t NodeID) bool {
	return !math.IsInf(sp.Dist[t], 1)
}

// PathTo returns the node sequence Source…t inclusive, or nil if t is
// unreachable.
func (sp *ShortestPaths) PathTo(t NodeID) []NodeID {
	if !sp.Reachable(t) {
		return nil
	}
	var rev []NodeID
	for v := t; v != None; v = sp.Parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// EdgesTo returns the edge sequence of the shortest path Source…t, or nil if
// t is unreachable. The result has len(PathTo(t))-1 entries.
func (sp *ShortestPaths) EdgesTo(t NodeID) []EdgeID {
	if !sp.Reachable(t) {
		return nil
	}
	var rev []EdgeID
	for v := t; sp.Parent[v] != None; v = sp.Parent[v] {
		rev = append(rev, sp.ParentEdge[v])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Arena is the reusable scratch state of the SSSP core: the
// delta-stepping calendar and staging lists, the indexed heap (whose
// position index self-restores on drain), and a generation-stamped
// settled marker, so one arena is ready for the next run without any
// O(n) reset. The package-level entry points borrow arenas from an
// internal pool; a caller running many batches back to back may hold its
// own instead. The result arrays are NOT part of the arena — callers (the
// chain oracle in particular) retain ShortestPaths indefinitely.
//
// An Arena is not safe for concurrent use; concurrent runs take separate
// arenas (or pass nil and share the pool).
type Arena struct {
	h    IndexedHeap
	done []uint64
	// tgt stamps the targets of a truncated seeded run (DijkstraSeeded)
	// with the run's generation, like done stamps the heap's settled
	// nodes. RepairTree stamps its invalidated nodes in done and its
	// re-derived ones in tgt.
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
// to a distance (see buildDeltaLayout). Full runs, batches, seeded runs
// and tree repairs all follow it.
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
		Parent:     make([]NodeID, n),
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
		dijkstraHeap(g, nil, a, sp)
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
	dijkstraHeap(g, nil, a, sp)
	return sp
}

// DijkstraBatch runs Dijkstra from every source through one shared arena
// and one partition fetch, with the per-source result arrays carved from
// three batch-wide backing allocations, so k trees take 4 allocations
// instead of 4k. Results are returned in source order; duplicate sources
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
	parent := make([]NodeID, k*n)
	pedge := make([]EdgeID, k*n)
	for i, s := range uniq {
		sp := &sps[i]
		sp.Source = s
		sp.Dist = dist[i*n : (i+1)*n : (i+1)*n]
		sp.Parent = parent[i*n : (i+1)*n : (i+1)*n]
		sp.ParentEdge = pedge[i*n : (i+1)*n : (i+1)*n]
		if lay != nil {
			dijkstraDelta(g, lay, a, sp)
		} else {
			dijkstraHeap(g, nil, a, sp)
		}
	}
	for i, s := range sources {
		out[i] = &sps[firstIdx[s]]
	}
	return out
}

// DijkstraSeeded settles g from several seeds at once, through a pooled
// arena; see Arena.DijkstraSeeded.
func DijkstraSeeded(g *Graph, sp *ShortestPaths, seeds, targets []NodeID) bool {
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	return a.DijkstraSeeded(g, sp, seeds, targets)
}

// DijkstraSeeded runs delta-stepping over g from seeds whose rows the
// caller wrote into sp, and reports whether it ran. It returns false,
// touching nothing, when g's costs admit no bucket width (see pick), when
// some distance of the run, the seeds' distances included, absorbs the
// cost of an arc of g (D + c == D), or when a distance of the run would
// put its bucket index at 2^52 or past; the caller then runs the heap
// instead.
//
// It computes the rows of a heap run over an overlay of g whose appended
// nodes reach the network only through zero-cost arcs into the seeds.
// Each seed's row holds its finite distance and its parent and parent
// edge: the appended node above it, or None for a plain source. Every
// other row of g's nodes holds +Inf/None/NoEdge. sp's arrays may be
// longer than g's node count, and the rows past it, the appended nodes',
// must hold their final distances: the run reads them, to rank a seed
// below its parent, and never writes them. A blocked seed is reset to
// +Inf/None/NoEdge, as the heap never enters a blocked node.
//
// Non-empty targets, all nodes of g, truncate the run once every one of
// them is settled. Every node the run settled then carries the full
// run's Dist, Parent and ParentEdge, each reachable target and every node
// on its path included; every other row of g's nodes reads
// +Inf/None/NoEdge, as if unreachable. Duplicate targets are allowed.
func (a *Arena) DijkstraSeeded(g *Graph, sp *ShortestPaths, seeds, targets []NodeID) bool {
	lay := pick(g)
	if lay == nil {
		return false
	}
	fs := g.block.blocked.Load()
	maxSeed := 0.0
	for _, s := range seeds {
		if !fs.NodeFailed(s) {
			maxSeed = max(maxSeed, sp.Dist[s])
		}
	}
	// The layout's bound covers distances from a source at 0, not from a
	// seed far out: a seed at D = 1e17 absorbs a unit arc, ties with its
	// neighbour, and the two would take each other as parents. Every
	// distance of this run is at most maxSeed + lay.bound, which must
	// absorb no arc and must keep every bucket index, distance/Δ, exact
	// in float64 and in int64.
	if b := maxSeed + lay.bound; absorbs(b, lay.minCost) || !(b/lay.delta < 1<<52) {
		return false
	}
	a.ensure(lay.nodes)
	ss := a.ds.seeds[:0]
	for _, s := range seeds {
		if fs.NodeFailed(s) {
			sp.Dist[s], sp.Parent[s], sp.ParentEdge[s] = math.Inf(1), None, NoEdge
			continue
		}
		ss = append(ss, deltaSeed{d: sp.Dist[s], v: int32(s)})
	}
	slices.SortFunc(ss, func(x, y deltaSeed) int {
		if c := cmp.Compare(x.d, y.d); c != 0 {
			return c
		}
		return cmp.Compare(x.v, y.v)
	})
	a.ds.seeds = ss
	a.settleDelta(lay, sp, targets, true)
	return true
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
// never blocked; a base node they enter still is.
func dijkstraHeap(g *Graph, ov *Overlay, a *Arena, sp *ShortestPaths) {
	c := g.csr()
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.Parent[i] = None
		sp.ParentEdge[i] = NoEdge
	}
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
				if done[v] == gen {
					continue
				}
				if fs != nil && (fs.EdgeFailed(EdgeID(c.eid[i])) || fs.NodeFailed(NodeID(v))) {
					continue
				}
				nd := du + g.edges[c.eid[i]].Cost
				if nd < sp.Dist[v] {
					sp.Dist[v] = nd
					sp.Parent[v] = NodeID(u)
					sp.ParentEdge[v] = EdgeID(c.eid[i])
					h.Update(v, nd)
				}
			}
		}
		if ov == nil {
			continue
		}
		for _, arc := range ov.appended(NodeID(u)) {
			v := arc.To
			if done[v] == gen || fs.NodeFailed(v) {
				continue
			}
			nd := du + ov.edges[int(arc.Edge)-ov.m0].Cost
			if nd < sp.Dist[v] {
				sp.Dist[v] = nd
				sp.Parent[v] = NodeID(u)
				sp.ParentEdge[v] = arc.Edge
				h.Update(int32(v), nd)
			}
		}
	}
}

// BellmanFord computes single-source shortest paths by relaxation. It exists
// as an independent oracle for property-testing Dijkstra; it is O(V·E).
func BellmanFord(g *Graph, src NodeID) *ShortestPaths {
	n := g.NumNodes()
	sp := newShortestPaths(src, n)
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.Parent[i] = None
		sp.ParentEdge[i] = NoEdge
	}
	fs := g.block.blocked.Load()
	if fs.NodeFailed(src) {
		return sp
	}
	sp.Dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(EdgeID(id))
			if fs != nil && (fs.EdgeFailed(EdgeID(id)) || fs.NodeFailed(e.U) || fs.NodeFailed(e.V)) {
				continue
			}
			if sp.Dist[e.U]+e.Cost < sp.Dist[e.V] {
				sp.Dist[e.V] = sp.Dist[e.U] + e.Cost
				sp.Parent[e.V] = e.U
				sp.ParentEdge[e.V] = EdgeID(id)
				changed = true
			}
			if sp.Dist[e.V]+e.Cost < sp.Dist[e.U] {
				sp.Dist[e.U] = sp.Dist[e.V] + e.Cost
				sp.Parent[e.U] = e.V
				sp.ParentEdge[e.U] = EdgeID(id)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sp
}
