package graph

import (
	"math"
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

// Config selects the SSSP variant for runs through one arena. Configs
// travel with an Arena (NewArenaWith), so concurrent tests and batch
// callers pin variants without mutating process-wide state. Every run,
// whichever variant it takes, stays on the calling goroutine.
type Config struct {
	// DeltaSteppingMinNodes gates the delta-stepping variant by graph
	// size: runs over graphs with at least this many nodes use it (when
	// the maximum edge cost admits a bucket width), smaller runs keep the
	// indexed heap. 0 means the package default (DeltaSteppingMinNodes),
	// a positive value overrides it, and a negative value disables the
	// variant.
	DeltaSteppingMinNodes int
}

// resolveGate maps a Config gate field to an effective node threshold:
// 0 defers to the package default, and a negative value — from the field
// or the default it deferred to — disables (a threshold no graph
// reaches).
func resolveGate(v, def int) int {
	if v == 0 {
		v = def
	}
	if v < 0 {
		return math.MaxInt
	}
	return v
}

// Arena is the reusable scratch state of the SSSP core: the indexed heap
// (whose position index self-restores on drain), the delta-stepping
// scratch for large graphs, and a generation-stamped settled marker, so
// one arena is ready for the next run without any O(n) reset. Batch
// callers that fan many runs out (the chain oracle's tree warming, KMB's
// closure phase) hold one Arena across the whole batch instead of a pool
// round-trip per source. The result arrays are NOT part of the arena —
// callers (the chain oracle in particular) retain ShortestPaths
// indefinitely.
//
// An Arena is not safe for concurrent use; concurrent runs take separate
// arenas (or pass nil and share the pool).
type Arena struct {
	h    IndexedHeap
	done []uint64
	// tgt stamps the targets of a truncated run (Overlay.DijkstraTo) with
	// the run's generation, like done stamps its settled nodes.
	tgt []uint64
	gen uint64
	cfg Config
	ds  deltaScratch
}

// NewArena returns an empty arena using the package-default Config.
// Passing nil to DijkstraBatch borrows one from an internal pool instead,
// so an explicit arena is only worth holding across several batches.
func NewArena() *Arena { return new(Arena) }

// NewArenaWith returns an arena whose runs resolve the delta-stepping
// gate from cfg instead of the package default, so each test or batch
// pins its variant on its own arena without touching process-wide
// state.
func NewArenaWith(cfg Config) *Arena { return &Arena{cfg: cfg} }

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

// DeltaSteppingMinNodes is the process-wide default that a zero
// Config.DeltaSteppingMinNodes resolves to: runs over graphs with at
// least this many nodes use delta-stepping, smaller runs keep the indexed
// heap, whose constants win on small frontiers. Both produce the
// bit-identical tree, so the threshold tunes speed only. A negative
// value disables delta-stepping wherever the Config defers to it.
// Callers that hold an arena should pin the variant with NewArenaWith;
// the global is for code that builds its own arenas out of reach, and
// writing it races with concurrent runs.
var DeltaSteppingMinNodes = 8192

// ssspVariant names the queue discipline one run will use.
type ssspVariant uint8

const (
	variantHeap ssspVariant = iota
	variantDelta
)

// pick selects the SSSP variant for runs over g with n nodes under a's
// Config, returning the arc partition for variantDelta. Delta-stepping
// needs a positive finite maximum edge cost for its bucket width; a graph
// without one (all-zero or some +Inf cost) builds a layout with delta 0
// and falls back to the heap.
func (a *Arena) pick(g *Graph, n int) (ssspVariant, *deltaLayout) {
	if n >= resolveGate(a.cfg.DeltaSteppingMinNodes, DeltaSteppingMinNodes) {
		if lay := g.deltaLayoutFor(); lay.delta > 0 {
			return variantDelta, lay
		}
	}
	return variantHeap, nil
}

// Dijkstra computes shortest paths from src over edge connection costs.
// The traversal runs on the graph's flat CSR adjacency with a pooled
// arena, so a run allocates only its result arrays. Ties are settled
// toward the smaller node id, making the returned tree (not just the
// distances) deterministic — with either variant (see Config).
func Dijkstra(g *Graph, src NodeID) *ShortestPaths {
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	return a.Dijkstra(g, src)
}

// Dijkstra is the per-arena form of the package-level Dijkstra: the run
// resolves its variant gate from a's Config (see NewArenaWith) and
// reuses a's scratch.
func (a *Arena) Dijkstra(g *Graph, src NodeID) *ShortestPaths {
	n := g.NumNodes()
	sp := &ShortestPaths{
		Source:     src,
		Dist:       make([]float64, n),
		Parent:     make([]NodeID, n),
		ParentEdge: make([]EdgeID, n),
	}
	a.ensure(n)
	if v, lay := a.pick(g, n); v == variantDelta {
		dijkstraDelta(g, lay, a, sp)
	} else {
		dijkstraHeap(g, g.csr(), nil, a, sp, nil)
	}
	return sp
}

// DijkstraBatch runs Dijkstra from every source through one shared arena
// and one CSR fetch, with the per-source result arrays carved from three
// batch-wide backing allocations — a batch of k sources costs 4 slice
// allocations instead of 4k. Results are returned in source order;
// duplicate sources share one tree (the same *ShortestPaths pointer). A
// nil arena borrows one from the internal pool for the whole batch.
func DijkstraBatch(g *Graph, sources []NodeID, a *Arena) []*ShortestPaths {
	if len(sources) == 0 {
		return nil
	}
	if a == nil {
		a = arenaPool.Get().(*Arena)
		defer arenaPool.Put(a)
	}
	n := g.NumNodes()
	c := g.csr()
	a.ensure(n)
	variant, lay := a.pick(g, n)

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
		if variant == variantDelta {
			dijkstraDelta(g, lay, a, sp)
		} else {
			dijkstraHeap(g, c, nil, a, sp, nil)
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
// never blocked; a base node they enter still is.
//
// Non-empty targets truncate the run (see Overlay.DijkstraTo): they are
// stamped with the run's generation, and the pop that settles the last
// of them ends it. The nodes still queued at that point are the only ones
// with a tentative entry, so resetting them and the abandoned heap leaves
// sp holding exactly the settled prefix and the arena ready for its next
// run.
func dijkstraHeap(g *Graph, c *csrLayout, ov *Overlay, a *Arena, sp *ShortestPaths, targets []NodeID) {
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
	gen, done, tgt := a.gen, a.done, a.tgt
	left := 0
	for _, t := range targets {
		if tgt[t] != gen {
			tgt[t] = gen
			left++
		}
	}
	h := &a.h
	h.Update(int32(sp.Source), 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		done[u] = gen
		if left > 0 && tgt[u] == gen {
			if left--; left == 0 {
				for _, v := range h.items {
					sp.Dist[v] = math.Inf(1)
					sp.Parent[v] = None
					sp.ParentEdge[v] = NoEdge
				}
				h.Reset()
				return
			}
		}
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
	sp := &ShortestPaths{
		Source:     src,
		Dist:       make([]float64, n),
		Parent:     make([]NodeID, n),
		ParentEdge: make([]EdgeID, n),
	}
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
