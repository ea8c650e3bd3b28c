// Package sof is the public API of the Service Overlay Forest library, a
// reproduction of "Service Overlay Forest Embedding for Software-Defined
// Cloud Networks" (Kuo et al., ICDCS 2017).
//
// A service overlay forest connects every destination of a multicast
// service to a source through an ordered chain of virtual network
// functions, using multiple trees when that is cheaper. The primary entry
// point is the Solver, a long-lived session over one network:
//
//	b := sof.NewNetworkBuilder()
//	s := b.AddSwitch("src")
//	v1 := b.AddVM("vm1", 2)
//	v2 := b.AddVM("vm2", 3)
//	d := b.AddSwitch("dst")
//	b.Link(s, v1, 1); b.Link(v1, v2, 1); b.Link(v2, d, 1)
//	net, _ := b.Build()
//	solver := sof.NewSolver(net)
//	forest, _ := solver.Embed(ctx, sof.Request{
//		Sources: []sof.NodeID{s}, Destinations: []sof.NodeID{d}, ChainLength: 2,
//	})
//	fmt.Println(forest.TotalCost())
//
// The Solver owns a shortest-path cache shared by every request of the
// session, keyed by the network's cost epoch: SetLinkCost/SetVMCost advance
// the epoch only when a cost actually changes, so request streams under
// unchanged costs (the online scenario of Section VIII-C) are answered from
// warm state instead of re-deriving all candidate chains per request.
// Beyond single embeds the session offers EmbedBatch (many requests, one
// fan-out) and EmbedStream (online arrivals on a channel).
//
// Algorithms: SOFDA (the paper's 3ρST-approximation), SOFDASS (single
// source), the baselines eNEMP/eST/ST, and Exact (optimal, small instances
// only). Dynamic operations (join/leave/VNF changes) are exposed on the
// Forest type and reuse the session cache of the Solver that embedded it.
package sof

import (
	"fmt"
	"sync/atomic"

	"sof/internal/core"
	"sof/internal/graph"
)

// NodeID identifies a node in a Network.
type NodeID = graph.NodeID

// EdgeID identifies a link in a Network.
type EdgeID = graph.EdgeID

// Algorithm selects an embedding algorithm.
type Algorithm string

// Available algorithms.
const (
	AlgorithmSOFDA   Algorithm = "SOFDA"
	AlgorithmSOFDASS Algorithm = "SOFDA-SS"
	AlgorithmENEMP   Algorithm = "eNEMP"
	AlgorithmEST     Algorithm = "eST"
	AlgorithmST      Algorithm = "ST"
	AlgorithmExact   Algorithm = "Exact"
)

// Request is an embedding request: all destinations demand the same
// ordered chain of ChainLength VNFs, served from any subset of Sources.
type Request struct {
	Sources      []NodeID
	Destinations []NodeID
	ChainLength  int
	// TTL is the service's lifetime in virtual time units on a capacitated
	// session: the lease expires TTL units after the session clock at accept
	// time and AdvanceTime releases its resources. 0 (or any non-positive
	// value) means the service stays until an explicit Leave. Ignored by
	// sessions built without WithCapacity.
	TTL int64
}

// NetworkBuilder assembles a Network.
type NetworkBuilder struct {
	g   *graph.Graph
	err error
}

// NewNetworkBuilder returns an empty builder.
func NewNetworkBuilder() *NetworkBuilder {
	return &NetworkBuilder{g: graph.New(16, 32)}
}

// AddSwitch adds a forwarding-only node.
func (b *NetworkBuilder) AddSwitch(name string) NodeID { return b.g.AddSwitch(name) }

// AddVM adds a node able to host one VNF at the given setup cost.
func (b *NetworkBuilder) AddVM(name string, setupCost float64) NodeID {
	return b.g.AddVM(name, setupCost)
}

// Link connects two nodes with the given connection cost.
func (b *NetworkBuilder) Link(u, v NodeID, cost float64) EdgeID {
	id, err := b.g.AddEdge(u, v, cost)
	if err != nil && b.err == nil {
		b.err = err
	}
	return id
}

// Build finalizes the network. It returns an error if any Link call was
// invalid or the graph fails validation.
func (b *NetworkBuilder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return &Network{g: b.g}, nil
}

// Network is an immutable-topology network (costs may be updated).
type Network struct {
	g *graph.Graph
}

// FromGraph wraps an existing internal graph (used by the example
// programs and the experiment harness).
func FromGraph(g *graph.Graph) *Network { return &Network{g: g} }

// Graph exposes the underlying graph for advanced use.
func (n *Network) Graph() *graph.Graph { return n.g }

// SetLinkCost updates a link's connection cost. If the value actually
// changes, the network's cost epoch advances and every Solver session's
// cached shortest-path state over this network becomes stale — it is
// refreshed lazily, one tree at a time, as the next embeds touch it.
// Setting a cost to its current value is a no-op and keeps caches warm.
// It rejects what Build rejects, an unknown link or a negative, NaN or
// infinite cost, and a rejected call changes nothing.
func (n *Network) SetLinkCost(e EdgeID, cost float64) error {
	if !n.g.ValidEdge(e) {
		return fmt.Errorf("sof: no link %d", e)
	}
	if !graph.ValidCost(cost) {
		return fmt.Errorf("sof: link %d: invalid cost %v", e, cost)
	}
	n.g.SetEdgeCost(e, cost)
	return nil
}

// SetVMCost updates a VM's setup cost, with the same epoch semantics as
// SetLinkCost: only an actual change invalidates (lazily) the session
// caches. It rejects a node that is not a VM and the costs SetLinkCost
// rejects, and a rejected call changes nothing.
func (n *Network) SetVMCost(v NodeID, cost float64) error {
	if !n.g.Valid(v) || n.g.Node(v).Kind != graph.KindVM {
		return fmt.Errorf("sof: node %d is not a VM", v)
	}
	if !graph.ValidCost(cost) {
		return fmt.Errorf("sof: VM %d: invalid cost %v", v, cost)
	}
	n.g.SetNodeCost(v, cost)
	return nil
}

// VMs lists the VM nodes.
func (n *Network) VMs() []NodeID { return n.g.VMs() }

// Forest is an embedded service overlay forest with its dynamic
// reconfiguration operations (Section VII-C of the paper). A forest keeps
// the Solver session it was embedded under: the shared shortest-path
// cache (dynamic operations run warm when costs have not changed since the
// embed) and the candidate-VM restriction (Join, InsertVNF, and MigrateVM
// never graft onto VMs the original embed was forbidden to use). Callers
// read its shape through Footprint and Route and change it only through
// its methods, each of which holds the session's lock while it runs and,
// on a capacitated session, leaves the forest's lease charging the
// footprint it leaves. A shape, once published, never changes: a change
// works on a copy and publishes it whole, so the read methods take no lock
// and each sees one shape, before a change or after it.
type Forest struct {
	published atomic.Pointer[core.Forest]
	sources   []NodeID
	s         *Solver
	// id is the forest's row in the session ledger and, on a capacitated
	// session, its lease id; 0 when the session books nothing.
	id LeaseID
}

// shape returns the forest's published core forest, which nothing changes.
func (f *Forest) shape() *core.Forest { return f.published.Load() }

// candidateVMs returns the VM set dynamic operations may draw from.
func (f *Forest) candidateVMs() []NodeID {
	if f.s.vms != nil {
		return f.s.vms
	}
	return f.s.net.g.VMs()
}

// TotalCost returns setup + connection cost.
func (f *Forest) TotalCost() float64 { return f.shape().TotalCost() }

// Cost returns the setup and connection costs separately.
func (f *Forest) Cost() (setup, connection float64) { return f.shape().Cost() }

// Trees returns the number of service trees in the forest.
func (f *Forest) Trees() int { return f.shape().NumTrees() }

// UsedVMs returns the VMs running a VNF.
func (f *Forest) UsedVMs() []NodeID { return f.shape().UsedVMs() }

// Destinations returns the currently served destinations.
func (f *Forest) Destinations() []NodeID { return f.shape().Destinations() }

// Validate re-checks feasibility for the forest's current destinations.
func (f *Forest) Validate() error {
	cf := f.shape()
	return cf.Validate(f.sources, cf.Destinations())
}

// Join grafts a new destination onto the forest at minimum extension cost,
// returning the cost increase. Only VMs the original embed was allowed to
// use are candidates for newly installed VNFs. The session cache is reused
// as-is: if no cost changed since the last query, the extension walks are
// computed from warm shortest-path trees (cost changes invalidate them
// through the epoch, no explicit flush needed). A destination outside the
// network is an error.
func (f *Forest) Join(d NodeID) (delta float64, err error) {
	if !f.s.net.g.Valid(d) {
		return 0, fmt.Errorf("sof: destination %d is not in the network", d)
	}
	err = f.s.reshape(f, func(cf *core.Forest) (err error) {
		delta, err = cf.Join(f.s.oracle, f.candidateVMs(), d)
		return err
	})
	return delta, err
}

// Leave removes a destination, pruning the branch it exclusively used, and
// returns the (non-positive) cost change.
func (f *Forest) Leave(d NodeID) (delta float64, err error) {
	err = f.s.reshape(f, func(cf *core.Forest) (err error) {
		delta, err = cf.Leave(d)
		return err
	})
	return delta, err
}

// InsertVNF adds a VNF at 1-based chain position j, drawing the new VM
// from the embed-time candidate set.
func (f *Forest) InsertVNF(j int) error {
	return f.s.reshape(f, func(cf *core.Forest) error { return cf.InsertVNF(f.s.oracle, f.candidateVMs(), j) })
}

// RemoveVNF deletes the VNF at 1-based chain position j.
func (f *Forest) RemoveVNF(j int) error {
	return f.s.reshape(f, func(cf *core.Forest) error { return cf.RemoveVNF(j) })
}

// RerouteCongestedLink re-routes every forest segment using link e over
// the current cheapest paths; update costs first (the cost change itself
// invalidates the session's stale trees via the epoch). Segments that
// cannot be moved (e.g. severed by failures) stay on e and their causes
// come back joined in the error, alongside the count that did move — a
// partial reroute is progress, not an abort. A link outside the network
// is rejected, and nothing moves.
func (f *Forest) RerouteCongestedLink(e EdgeID) (moved int, err error) {
	if !f.s.net.g.ValidEdge(e) {
		return 0, fmt.Errorf("sof: no link %d", e)
	}
	err = f.s.reshape(f, func(cf *core.Forest) (err error) {
		moved, err = cf.RerouteCongestedEdge(f.s.oracle, e)
		return err
	})
	return moved, err
}

// MigrateVM moves the VNF off an overloaded VM to the best replacement
// from the embed-time candidate set; update costs first.
func (f *Forest) MigrateVM(v NodeID) error {
	return f.s.reshape(f, func(cf *core.Forest) error { return cf.MigrateOverloadedVM(f.s.oracle, f.candidateVMs(), v) })
}

// Footprint returns the links the forest crosses, once per crossing (a
// link two of its clones cross appears twice), and the VMs running its
// VNFs, sorted. A capacitated session charges exactly this to the
// forest's lease.
func (f *Forest) Footprint() (edges []EdgeID, vms []NodeID) {
	fp := f.shape().Footprint()
	return fp.Edges, fp.VMs
}

// Route returns the links that carry the service from its source to
// destination d, in that order, and false when the forest does not serve
// d.
func (f *Forest) Route(d NodeID) ([]EdgeID, bool) {
	cf := f.shape()
	c, ok := cf.DestClone(d)
	if !ok {
		return nil, false
	}
	path := cf.PathToRoot(c)
	var route []EdgeID
	for i := len(path) - 1; i >= 0; i-- {
		if cl := cf.Clone(path[i]); cl.Parent != core.NoClone && cl.ParentEdge != graph.NoEdge {
			route = append(route, cl.ParentEdge)
		}
	}
	return route, true
}

// Request returns the embedding request behind the forest, with the
// destination list as it stands now (joins, leaves, and repairs move it
// away from the original). Useful for re-embedding the same service from
// scratch, e.g. to compare against a repaired forest.
func (f *Forest) Request() Request {
	cf := f.shape()
	return Request{
		Sources:      append([]NodeID(nil), f.sources...),
		Destinations: cf.Destinations(),
		ChainLength:  cf.ChainLen(),
	}
}
