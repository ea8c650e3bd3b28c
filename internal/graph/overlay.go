package graph

import (
	"fmt"
	"math"
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
	// at[u] is 1 + the index into arcs of node u's appended arcs, or 0
	// when u has none; len(at) is the overlay's node count.
	at   []int32
	arcs [][]Arc
}

// NewOverlay returns an overlay over base with nothing appended yet.
func NewOverlay(base *Graph) *Overlay {
	n0 := base.NumNodes()
	return &Overlay{base: base, n0: n0, m0: base.NumEdges(), at: make([]int32, n0)}
}

// NumNodes returns the base's node count plus the appended nodes.
func (o *Overlay) NumNodes() int { return len(o.at) }

// NumEdges returns the base's edge count plus the appended edges.
func (o *Overlay) NumEdges() int { return o.m0 + len(o.edges) }

// AddSwitch appends an unnamed zero-cost switch and returns its ID.
func (o *Overlay) AddSwitch() NodeID {
	o.at = append(o.at, 0)
	return NodeID(len(o.at) - 1)
}

// MustAddEdge appends an undirected edge between u and v, which may be
// base or appended nodes, and returns its ID. It panics on what
// Graph.AddEdge rejects: endpoints out of range, self-loops, and negative
// or NaN costs.
func (o *Overlay) MustAddEdge(u, v NodeID, cost float64) EdgeID {
	n := len(o.at)
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		panic(fmt.Sprintf("graph: overlay edge endpoint out of range: (%d,%d) with %d nodes", u, v, n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: overlay self-loop on node %d", u))
	}
	if cost < 0 || math.IsNaN(cost) {
		panic(fmt.Sprintf("graph: invalid overlay edge cost %v on (%d,%d)", cost, u, v))
	}
	id := EdgeID(o.m0 + len(o.edges))
	o.edges = append(o.edges, Edge{U: u, V: v, Cost: cost})
	o.addArc(u, Arc{To: v, Edge: id})
	o.addArc(v, Arc{To: u, Edge: id})
	return id
}

func (o *Overlay) addArc(u NodeID, a Arc) {
	j := o.at[u]
	if j == 0 {
		o.arcs = append(o.arcs, nil)
		j = int32(len(o.arcs))
		o.at[u] = j
	}
	o.arcs[j-1] = append(o.arcs[j-1], a)
}

// appended returns u's appended arcs in insertion order.
func (o *Overlay) appended(u NodeID) []Arc {
	if j := o.at[u]; j > 0 {
		return o.arcs[j-1]
	}
	return nil
}

// Edge returns the edge record for id: the base's live record for a base
// edge, the appended one otherwise. It panics if id is out of range.
func (o *Overlay) Edge(id EdgeID) Edge {
	if int(id) < o.m0 {
		return o.base.Edge(id)
	}
	return o.edges[int(id)-o.m0]
}

// Adj returns n's arcs: its base arcs, then its appended arcs. For a
// base node with appended arcs the result is a fresh slice; otherwise it
// is shared and must not be modified.
func (o *Overlay) Adj(n NodeID) []Arc {
	extra := o.appended(n)
	if int(n) >= o.n0 {
		return extra
	}
	base := o.base.Adj(n)
	if len(extra) == 0 {
		return base
	}
	return append(base[:len(base):len(base)], extra...)
}

// Dijkstra computes shortest paths over the overlay from src, through a
// pooled arena. An overlay with nothing appended answers as Dijkstra over
// the base does. Runs always use the indexed heap, whose settle order is
// the reference delta-stepping is proven against; DijkstraSeeded computes
// the same rows from the network's side when the appended nodes reach it
// only through zero-cost arcs.
func (o *Overlay) Dijkstra(src NodeID) *ShortestPaths {
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	return o.dijkstra(a, src)
}

func (o *Overlay) dijkstra(a *Arena, src NodeID) *ShortestPaths {
	if n, m := o.base.NumNodes(), o.base.NumEdges(); n != o.n0 || m != o.m0 {
		panic(fmt.Sprintf("graph: overlay base grew from %d nodes, %d edges to %d, %d", o.n0, o.m0, n, m))
	}
	n := o.NumNodes()
	sp := newShortestPaths(src, n)
	a.ensure(n)
	dijkstraHeap(o.base, o, a, sp)
	return sp
}
