package graph

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sync"
)

// Overlay is a base graph plus appended nodes and edges, without a copy
// of the base: the shape of a Steiner instance such as SOFDA's auxiliary
// graph, which adds a handful of virtual nodes and edges to the live
// network.
//
// Appended elements take the ids a Clone of the base would give them:
// node n0+i and edge m0+j, in call order, where n0 and m0 are the base's
// counts. A base node's arcs are its base arcs followed by its appended
// arcs; an appended node's arcs are in insertion order. So the overlay
// keeps the clone's node ids, edge ids and arc order, and a run over it
// settles exactly as the same run over the clone.
//
// An overlay's own state is sized to what it appends, not to the base.
// Appended edge j is seen from its U end as arc 2j and from its V end as
// arc 2j+1, and each node's appended arcs form a list through next, one
// block for all nodes. An appended node's list is found by its index
// above n0, and the few base nodes with appended arcs through one bit per
// base node and a sorted list.
//
// The base is only read. Runs read its live edge costs, load its blocked
// snapshot when they start, and reuse its CSR view; appended elements
// are never blocked, and appended nodes are unnamed zero-cost switches.
// The base's topology must not grow while the overlay is in use: a run
// after it grew panics.
//
// Mutating an overlay concurrently with anything else is not supported;
// concurrent runs over an overlay nobody mutates are safe.
type Overlay struct {
	base   *Graph
	n0, m0 int
	// edges are the appended edges: edge m0+j is edges[j].
	edges []Edge
	// next[k] is the arc after arc k in its node's list, or -1.
	next []int32
	// added[i] is appended node n0+i's arc list.
	added []arcList
	// hooked has bit v set when base node v has appended arcs; hooks
	// lists those nodes ascending, and hookArcs[i] is hooks[i]'s list.
	hooked   []uint64
	hooks    []NodeID
	hookArcs []arcList
}

// arcList is a node's appended arcs: its first and last arc, or -1 for
// both when it has none.
type arcList struct{ first, last int32 }

var noArcs = arcList{-1, -1}

// NewOverlay returns an overlay over base with nothing appended yet.
func NewOverlay(base *Graph) *Overlay {
	n0 := base.NumNodes()
	return &Overlay{base: base, n0: n0, m0: base.NumEdges(), hooked: make([]uint64, (n0+63)/64)}
}

// NumNodes returns the base's node count plus the appended nodes.
func (o *Overlay) NumNodes() int { return o.n0 + len(o.added) }

// NumEdges returns the base's edge count plus the appended edges.
func (o *Overlay) NumEdges() int { return o.m0 + len(o.edges) }

// AddSwitch appends an unnamed zero-cost switch and returns its ID.
func (o *Overlay) AddSwitch() NodeID {
	o.added = append(o.added, noArcs)
	return NodeID(o.NumNodes() - 1)
}

// MustAddEdge appends an undirected edge between u and v, which may be
// base or appended nodes, and returns its ID. It panics on what
// Graph.AddEdge rejects: endpoints out of range, self-loops, and negative
// or NaN costs.
func (o *Overlay) MustAddEdge(u, v NodeID, cost float64) EdgeID {
	n := o.NumNodes()
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		panic(fmt.Sprintf("graph: overlay edge endpoint out of range: (%d,%d) with %d nodes", u, v, n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: overlay self-loop on node %d", u))
	}
	if cost < 0 || math.IsNaN(cost) {
		panic(fmt.Sprintf("graph: invalid overlay edge cost %v on (%d,%d)", cost, u, v))
	}
	j := len(o.edges)
	o.edges = append(o.edges, Edge{U: u, V: v, Cost: cost})
	o.next = append(o.next, -1, -1)
	o.link(o.arcList(u), int32(2*j))
	o.link(o.arcList(v), int32(2*j+1))
	return EdgeID(o.m0 + j)
}

// link appends arc k to list l.
func (o *Overlay) link(l *arcList, k int32) {
	if l.last < 0 {
		l.first = k
	} else {
		o.next[l.last] = k
	}
	l.last = k
}

// arcList returns u's list of appended arcs, adding base node u to the
// hooks in id order the first time.
func (o *Overlay) arcList(u NodeID) *arcList {
	if int(u) >= o.n0 {
		return &o.added[int(u)-o.n0]
	}
	i, found := slices.BinarySearch(o.hooks, u)
	if !found {
		o.hooked[u/64] |= 1 << (u % 64)
		o.hooks = slices.Insert(o.hooks, i, u)
		o.hookArcs = slices.Insert(o.hookArcs, i, noArcs)
	}
	return &o.hookArcs[i]
}

// firstArc returns u's first appended arc, or -1 when it has none.
func (o *Overlay) firstArc(u NodeID) int32 {
	if int(u) >= o.n0 {
		return o.added[int(u)-o.n0].first
	}
	if o.hooked[u/64]&(1<<(u%64)) == 0 {
		return -1
	}
	i, _ := slices.BinarySearch(o.hooks, u)
	return o.hookArcs[i].first
}

// arc returns appended arc k: edge m0+k/2, seen from its U end when k is
// even and from its V end when k is odd.
func (o *Overlay) arc(k int32) Arc {
	e := &o.edges[k>>1]
	to := e.V
	if k&1 == 1 {
		to = e.U
	}
	return Arc{To: to, Edge: EdgeID(o.m0 + int(k>>1))}
}

// Edge returns the edge record for id: the base's live record for a base
// edge, the appended one otherwise. It panics if id is out of range.
func (o *Overlay) Edge(id EdgeID) Edge {
	if int(id) < o.m0 {
		return o.base.Edge(id)
	}
	return o.edges[int(id)-o.m0]
}

// Arcs yields n's arcs without allocating: its base arcs, then its
// appended arcs in insertion order, the arc order of the base's clone
// with the same elements added.
func (o *Overlay) Arcs(n NodeID) iter.Seq[Arc] {
	return func(yield func(Arc) bool) {
		if int(n) < o.n0 {
			for _, a := range o.base.Adj(n) {
				if !yield(a) {
					return
				}
			}
		}
		for k := o.firstArc(n); k >= 0; k = o.next[k] {
			if !yield(o.arc(k)) {
				return
			}
		}
	}
}

// Dijkstra computes shortest paths over the overlay from src, through a
// pooled arena, into freshly allocated result arrays. An overlay with
// nothing appended answers as Dijkstra over the base does. Runs always
// use the indexed heap, whose settle order is the reference
// delta-stepping is proven against.
func (o *Overlay) Dijkstra(src NodeID) *ShortestPaths {
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	return o.dijkstra(a, src)
}

func (o *Overlay) dijkstra(a *Arena, src NodeID) *ShortestPaths {
	g := o.live()
	n := o.NumNodes()
	sp := newShortestPaths(src, n)
	a.ensure(n)
	dijkstraHeap(g, o, nil, a, sp)
	return sp
}

// DijkstraWithin is Dijkstra confined to the appended nodes and the base
// nodes listed in within, which holds base nodes only: the run never
// enters another base node, as if it were blocked. Take a set S of nodes inside that holds, with each of
// its nodes, every neighbour offering that node its final distance in the
// unconfined run. Then every node of S gets the unconfined run's Dist and
// ParentEdge: the heap pops S's nodes in the same order either way, and
// keeps the first offer of each final distance.
//
// The row comes from a pool, and only the entries the run can write are
// set: the source's, within's and the appended nodes'. Every other entry
// holds +Inf and NoEdge, as in a row the run never reached. release
// resets exactly those entries and returns the row to the pool; call it
// once, when nothing reads the row any more. A row that is never released
// is simply collected. So once the pool holds a row, a confined run costs
// its own nodes, not the base's: no array is allocated or filled over the
// base.
func (o *Overlay) DijkstraWithin(src NodeID, within []NodeID) (sp *ShortestPaths, release func()) {
	g := o.live()
	r := rowPool.Get().(*confinedRow)
	n := o.NumNodes()
	r.fit(n, o.n0)
	sp = &r.sp
	*sp = ShortestPaths{Source: src, Dist: r.dist[:n:n], ParentEdge: r.pedge[:n:n]}
	r.src, r.lo = src, o.n0
	r.within = append(r.within[:0], within...)
	for _, v := range within {
		r.in[v] = true
	}
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	a.ensure(n)
	settleHeap(g, o, r.in, a, sp)
	for _, v := range within {
		r.in[v] = false
	}
	h := rowHold{r: r, gen: r.gen}
	return sp, h.release
}

// confinedRow is DijkstraWithin's pooled row. Between uses every entry of
// dist and pedge holds +Inf and NoEdge, and every mark of in is false.
type confinedRow struct {
	sp    ShortestPaths
	dist  []float64
	pedge []EdgeID
	// in marks the base nodes the current run may enter.
	in []bool
	// src, within and the nodes from lo to len(sp.Dist) are the entries
	// the current run may have written.
	src    NodeID
	within []NodeID
	lo     int
	// gen counts the row's releases, so a release of an earlier
	// hand-out is caught.
	gen uint64
}

// rowHold is one hand-out of a pooled row. Its release is the only way
// the row goes back to the pool.
type rowHold struct {
	r   *confinedRow
	gen uint64
}

var rowPool = sync.Pool{New: func() any { return new(confinedRow) }}

// fit grows the row to n entries and its mask to n0, keeping them clean.
func (r *confinedRow) fit(n, n0 int) {
	if len(r.dist) < n {
		r.dist, r.pedge = make([]float64, n), make([]EdgeID, n)
		for i := range r.dist {
			r.dist[i], r.pedge[i] = math.Inf(1), NoEdge
		}
	}
	if len(r.in) < n0 {
		r.in = make([]bool, n0)
	}
}

// release resets the entries the run may have written and returns the
// row to the pool. It panics when the row was released since h was
// handed out.
func (h rowHold) release() {
	r := h.r
	if r.gen != h.gen {
		panic("graph: confined row released twice")
	}
	r.gen++
	inf := math.Inf(1)
	r.dist[r.src], r.pedge[r.src] = inf, NoEdge
	for _, v := range r.within {
		r.dist[v], r.pedge[v] = inf, NoEdge
	}
	for v := r.lo; v < len(r.sp.Dist); v++ {
		r.dist[v], r.pedge[v] = inf, NoEdge
	}
	r.sp = ShortestPaths{}
	rowPool.Put(r)
}

// live returns the base, and panics if its topology grew after the
// overlay was made: the appended ids would collide with the new ones.
func (o *Overlay) live() *Graph {
	if n, m := o.base.NumNodes(), o.base.NumEdges(); n != o.n0 || m != o.m0 {
		panic(fmt.Sprintf("graph: overlay base grew from %d nodes, %d edges to %d, %d", o.n0, o.m0, n, m))
	}
	return o.base
}
