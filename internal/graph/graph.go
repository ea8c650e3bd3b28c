// Package graph provides the weighted-graph substrate used by every other
// package in this repository: an undirected multigraph with node setup costs
// (for VMs) and edge connection costs (for links), plus shortest paths,
// failure and capacity masks, and union-find.
//
// Shortest-path trees come from delta-stepping whenever the edge costs
// admit a bucket width (a positive, finite largest cost, and no unblocked
// link that costs 0 or vanishes when added to a distance), and from an
// indexed-heap Dijkstra otherwise. The two build bit-identical trees;
// Arena.DijkstraHeap runs the heap alone as the reference. Every cost
// epoch bump is recorded in a bounded change log, and RepairTree uses it
// to bring a tree built at an earlier epoch up to date by settling again
// only the subtrees the changes broke; the repaired tree is bit-identical
// to a full run's (see repair.go).
//
// The model follows Section III of the paper: V = M ∪ U where M is the set
// of virtual-machine nodes carrying a nonnegative setup cost and U is the
// set of switches carrying cost 0. Links carry nonnegative connection costs.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Kind discriminates node roles in the network.
type Kind uint8

// Node kinds. A VM can host exactly one VNF; switches only forward.
const (
	KindSwitch Kind = iota + 1
	KindVM
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindVM:
		return "vm"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NodeID identifies a node within a Graph. IDs are dense, starting at 0.
type NodeID int

// EdgeID identifies an edge within a Graph. IDs are dense, starting at 0.
type EdgeID int

// None is the sentinel for "no node" (e.g. absent parent in a path tree).
const None NodeID = -1

// NoEdge is the sentinel for "no edge".
const NoEdge EdgeID = -1

// Node is a vertex of the network.
type Node struct {
	Kind Kind
	// Cost is the setup cost paid when the node hosts an enabled VNF.
	// Always 0 for switches.
	Cost float64
	// Name is an optional label used in error messages.
	Name string
}

// Edge is an undirected link between two nodes.
type Edge struct {
	U, V NodeID
	// Cost is the connection cost paid each time the link appears in the
	// forest (a duplicated link is paid per duplication).
	Cost float64
}

// Other returns the endpoint of e that is not n.
func (e Edge) Other(n NodeID) NodeID {
	if e.U == n {
		return e.V
	}
	return e.U
}

// Arc is an adjacency entry: the neighbour reached and the edge used.
type Arc struct {
	To   NodeID
	Edge EdgeID
}

// Graph is an undirected multigraph with costed nodes and edges.
// The zero value is an empty graph ready to use.
type Graph struct {
	nodes []Node
	edges []Edge
	adj   [][]Arc
	// epoch counts cost generations: it advances whenever a node or edge
	// cost actually changes (or on an explicit BumpCostEpoch), so caches
	// keyed by it can tell stale derived state from fresh without being
	// dropped eagerly. Topology is immutable after construction, so the
	// epoch fully identifies the cost surface.
	epoch atomic.Uint64
	// csrCache is the lazily built flat adjacency view used by the
	// shortest-path hot loops; csrMu serializes (re)builds. See csr.go.
	csrCache atomic.Pointer[csrLayout]
	csrMu    sync.Mutex
	// deltaCache memoizes the delta-stepping light/heavy arc partition per
	// cost epoch (see delta.go); deltaMu serializes rebuilds.
	deltaCache atomic.Pointer[deltaLayout]
	deltaMu    sync.Mutex
	// block holds the copy-on-write failed- and capacity-masked-element
	// snapshots plus their precomputed union (see fail.go); nil snapshots
	// mean the graph is fully open, which is the steady state the
	// traversal hot loops are optimized for.
	block blockState
	// log records what each epoch bump changed, for RepairTree (see
	// repair.go).
	log changeLog
}

// New returns an empty graph with capacity hints.
func New(nodeHint, edgeHint int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, nodeHint),
		edges: make([]Edge, 0, edgeHint),
		adj:   make([][]Arc, 0, nodeHint),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddSwitch adds a zero-cost switch node and returns its ID.
func (g *Graph) AddSwitch(name string) NodeID {
	return g.addNode(Node{Kind: KindSwitch, Name: name})
}

// AddVM adds a VM node with the given setup cost and returns its ID.
func (g *Graph) AddVM(name string, cost float64) NodeID {
	return g.addNode(Node{Kind: KindVM, Cost: cost, Name: name})
}

func (g *Graph) addNode(n Node) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge adds an undirected edge between u and v with the given connection
// cost and returns its ID. Self-loops are rejected.
func (g *Graph) AddEdge(u, v NodeID, cost float64) (EdgeID, error) {
	if !g.Valid(u) || !g.Valid(v) {
		return NoEdge, fmt.Errorf("graph: edge endpoint out of range: (%d,%d) with %d nodes", u, v, len(g.nodes))
	}
	if u == v {
		return NoEdge, fmt.Errorf("graph: self-loop on node %d", u)
	}
	if cost < 0 || math.IsNaN(cost) {
		return NoEdge, fmt.Errorf("graph: invalid edge cost %v on (%d,%d)", cost, u, v)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{U: u, V: v, Cost: cost})
	g.adj[u] = append(g.adj[u], Arc{To: v, Edge: id})
	g.adj[v] = append(g.adj[v], Arc{To: u, Edge: id})
	return id, nil
}

// MustAddEdge is AddEdge that panics on error; intended for hand-built
// topologies and tests where the inputs are static.
func (g *Graph) MustAddEdge(u, v NodeID, cost float64) EdgeID {
	id, err := g.AddEdge(u, v, cost)
	if err != nil {
		panic(err)
	}
	return id
}

// Valid reports whether id names a node of g.
func (g *Graph) Valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// ValidEdge reports whether id names an edge of g.
func (g *Graph) ValidEdge(id EdgeID) bool { return id >= 0 && int(id) < len(g.edges) }

// Node returns the node record for id. It panics if id is out of range.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge record for id. It panics if id is out of range.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// NodeCost returns the setup cost of id (0 for switches).
func (g *Graph) NodeCost(id NodeID) float64 { return g.nodes[id].Cost }

// EdgeCost returns the connection cost of edge id.
func (g *Graph) EdgeCost(id EdgeID) float64 { return g.edges[id].Cost }

// SetNodeCost updates the setup cost of a node (used by load-aware pricing).
// The cost epoch advances only when the value actually changes, so blanket
// re-pricing passes that rewrite unchanged costs keep epoch-keyed caches
// warm. It checks nothing: id must name a node and cost must be
// nonnegative and not NaN (sof.Network.SetVMCost checks both).
func (g *Graph) SetNodeCost(id NodeID, cost float64) {
	if g.nodes[id].Cost == cost {
		return
	}
	g.nodes[id].Cost = cost
	g.bump(changeNodeCost, int(id))
}

// SetEdgeCost updates the connection cost of an edge (used by load-aware
// pricing). Like SetNodeCost, it advances the cost epoch only on an actual
// change, and it checks nothing: id must name an edge and cost must be
// nonnegative and not NaN, since a negative cost keeps delta-stepping
// relaxing forever (sof.Network.SetLinkCost checks both). A +Inf cost
// is allowed; runs then take the heap.
func (g *Graph) SetEdgeCost(id EdgeID, cost float64) {
	if g.edges[id].Cost == cost {
		return
	}
	g.edges[id].Cost = cost
	g.bump(changeEdge, int(id))
}

// CostEpoch returns the current cost generation. Derived state (shortest-
// path trees, candidate chains) computed at epoch e is valid exactly while
// CostEpoch() == e.
func (g *Graph) CostEpoch() uint64 { return g.epoch.Load() }

// BumpCostEpoch force-advances the cost epoch, lazily invalidating every
// epoch-keyed cache over this graph without touching any of them. It exists
// for callers that mutated costs through means the setters cannot see, or
// that want an explicit full invalidation: the bump does not say what
// changed, so RepairTree rebuilds no tree across it.
func (g *Graph) BumpCostEpoch() { g.bump(changeUnknown, -1) }

// Adj returns the adjacency list of n. The returned slice must not be
// modified by the caller.
func (g *Graph) Adj(n NodeID) []Arc { return g.adj[n] }

// Degree returns the number of incident edges of n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// IsVM reports whether n is a VM node.
func (g *Graph) IsVM(n NodeID) bool { return g.nodes[n].Kind == KindVM }

// VMs returns the IDs of all VM nodes in ascending order.
func (g *Graph) VMs() []NodeID {
	var out []NodeID
	for i, n := range g.nodes {
		if n.Kind == KindVM {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Switches returns the IDs of all switch nodes in ascending order.
func (g *Graph) Switches() []NodeID {
	var out []NodeID
	for i, n := range g.nodes {
		if n.Kind == KindSwitch {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// FindEdge returns the cheapest edge between u and v, or NoEdge if none
// exists.
func (g *Graph) FindEdge(u, v NodeID) EdgeID {
	best := NoEdge
	bestCost := math.Inf(1)
	for _, a := range g.adj[u] {
		if a.To == v && g.edges[a.Edge].Cost < bestCost {
			best = a.Edge
			bestCost = g.edges[a.Edge].Cost
		}
	}
	return best
}

// Clone returns an independent copy of g: no mutation of either graph is
// visible in the other. No library code calls it: SOFDA's auxiliary graph
// is an Overlay on the live network. It is kept for the session
// benchmark's clone probe and as the tests' reference construction of
// that auxiliary graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		nodes: append([]Node(nil), g.nodes...),
		edges: append([]Edge(nil), g.edges...),
		adj:   make([][]Arc, len(g.adj)),
	}
	// Adjacency slices are shared, capacity-clipped, instead of copied:
	// arcs are only ever appended (AddEdge), and an append to a slice
	// with no spare capacity reallocates, so the clone's new arcs land in
	// its own copy, and g's land past the end the clone can see.
	for i, a := range g.adj {
		out.adj[i] = a[:len(a):len(a)]
	}
	out.epoch.Store(g.epoch.Load())
	// The clone's log starts empty at its epoch: none of g's history may
	// repair a tree of the clone, nor the reverse.
	out.log.floor = out.epoch.Load()
	// Failure/mask snapshots are immutable, so the clone can share the
	// current ones; its own Fail/Restore/Mask calls publish fresh
	// snapshots.
	out.block.fail.snap.Store(g.block.fail.snap.Load())
	out.block.mask.snap.Store(g.block.mask.snap.Load())
	out.block.blocked.Store(g.block.blocked.Load())
	return out
}

// ErrDisconnected is returned when a required path does not exist.
var ErrDisconnected = errors.New("graph: nodes are disconnected")

// Connected reports whether all nodes of g are in one connected component.
// The empty graph is connected.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range g.adj[n] {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				stack = append(stack, a.To)
			}
		}
	}
	return count == len(g.nodes)
}

// TotalEdgeCost returns the sum of all edge connection costs.
func (g *Graph) TotalEdgeCost() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.Cost
	}
	return s
}

// ValidCost reports whether Validate accepts cost on a node or an edge:
// it must be nonnegative and finite.
func ValidCost(cost float64) bool { return cost >= 0 && !math.IsInf(cost, 1) }

// Validate checks internal consistency and cost sanity. It is intended for
// tests and for validating generated topologies.
func (g *Graph) Validate() error {
	if len(g.adj) != len(g.nodes) {
		return fmt.Errorf("graph: adjacency size %d != node count %d", len(g.adj), len(g.nodes))
	}
	deg := make([]int, len(g.nodes))
	for i, e := range g.edges {
		if !g.Valid(e.U) || !g.Valid(e.V) {
			return fmt.Errorf("graph: edge %d has bad endpoints (%d,%d)", i, e.U, e.V)
		}
		if !ValidCost(e.Cost) {
			return fmt.Errorf("graph: edge %d has bad cost %v", i, e.Cost)
		}
		deg[e.U]++
		deg[e.V]++
	}
	for i, n := range g.nodes {
		if n.Kind == KindSwitch && n.Cost != 0 {
			return fmt.Errorf("graph: switch %d has nonzero cost %v", i, n.Cost)
		}
		if !ValidCost(n.Cost) {
			return fmt.Errorf("graph: node %d has bad cost %v", i, n.Cost)
		}
		if len(g.adj[i]) != deg[i] {
			return fmt.Errorf("graph: node %d adjacency length %d != degree %d", i, len(g.adj[i]), deg[i])
		}
		for _, a := range g.adj[i] {
			if !g.ValidEdge(a.Edge) {
				return fmt.Errorf("graph: node %d references bad edge %d", i, a.Edge)
			}
			e := g.edges[a.Edge]
			if e.Other(NodeID(i)) != a.To {
				return fmt.Errorf("graph: node %d arc to %d does not match edge %d endpoints", i, a.To, a.Edge)
			}
		}
	}
	return nil
}
