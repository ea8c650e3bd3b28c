// Package core implements the paper's primary contribution: the Service
// Overlay Forest model and the two embedding algorithms, SOFDA-SS
// (Algorithm 1, single source, (2+ρST)-approximation) and SOFDA
// (Algorithm 2, multiple sources, 3ρST-approximation) with VNF-conflict
// resolution (Procedure 4), plus the dynamic reconfiguration operations of
// Section VII-C.
//
// A forest is represented as a set of rooted clone trees. A clone is one
// traversal of a real network node: walks that revisit a node produce
// several clones of it, and every clone's parent link is paid once, which
// realizes the paper's accounting rule that a duplicated link costs once
// per duplication. At most one clone of a VM runs a VNF, and a VM runs at
// most one VNF across the entire forest.
package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"sof/internal/chain"
	"sof/internal/graph"
)

// CloneID identifies a clone within a Forest.
type CloneID int

// NoClone is the sentinel for "no clone" (e.g. the parent of a root).
const NoClone CloneID = -1

// Clone is one traversal instance of a real node.
type Clone struct {
	// Node is the real network node this clone copies.
	Node graph.NodeID
	// VNF is the 1-based index of the VNF this clone runs, 0 if none.
	VNF int
	// Parent is the upstream clone, NoClone for tree roots.
	Parent CloneID
	// ParentEdge is the real edge connecting Node to the parent's node.
	ParentEdge graph.EdgeID
	// deleted marks clones removed by pruning or surgery.
	deleted bool
}

// vmUse records the global VNF assignment of a real VM (IP constraint (6)).
type vmUse struct {
	vnf   int
	clone CloneID
}

// Forest is a service overlay forest under construction or in service.
type Forest struct {
	g        *graph.Graph
	chainLen int
	clones   []Clone
	roots    []CloneID
	// owner maps a real VM to its unique enabled VNF and clone.
	owner map[graph.NodeID]vmUse
	// dests maps each destination to the clone that serves it.
	dests map[graph.NodeID]CloneID
}

// NewForest returns an empty forest over g for a chain of chainLen VNFs.
func NewForest(g *graph.Graph, chainLen int) *Forest {
	return &Forest{
		g:        g,
		chainLen: chainLen,
		owner:    make(map[graph.NodeID]vmUse),
		dests:    make(map[graph.NodeID]CloneID),
	}
}

// Copy returns a deep copy of f: changing either leaves the other as it
// was.
func (f *Forest) Copy() *Forest {
	c := *f
	c.clones, c.roots = slices.Clone(f.clones), slices.Clone(f.roots)
	c.owner, c.dests = maps.Clone(f.owner), maps.Clone(f.dests)
	return &c
}

// Graph returns the underlying network.
func (f *Forest) Graph() *graph.Graph { return f.g }

// ChainLen returns the VNF chain length the forest serves.
func (f *Forest) ChainLen() int { return f.chainLen }

// Clone returns the clone record for id.
func (f *Forest) Clone(id CloneID) Clone { return f.clones[id] }

// NumClones returns the number of clone slots (including deleted ones);
// iterate with CloneDeleted to enumerate live clones.
func (f *Forest) NumClones() int { return len(f.clones) }

// CloneDeleted reports whether clone id has been pruned.
func (f *Forest) CloneDeleted(id CloneID) bool { return f.clones[id].deleted }

// NumTrees returns the number of live roots.
func (f *Forest) NumTrees() int {
	n := 0
	for _, r := range f.roots {
		if !f.clones[r].deleted {
			n++
		}
	}
	return n
}

// Roots returns the live root clones.
func (f *Forest) Roots() []CloneID {
	var out []CloneID
	for _, r := range f.roots {
		if !f.clones[r].deleted {
			out = append(out, r)
		}
	}
	return out
}

// Destinations returns the destinations currently served, sorted.
func (f *Forest) Destinations() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(f.dests))
	for d := range f.dests {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DestClone returns the clone serving destination d.
func (f *Forest) DestClone(d graph.NodeID) (CloneID, bool) {
	c, ok := f.dests[d]
	return c, ok
}

// UsedVMs returns the real VMs running a VNF, sorted. (Figure 11(b)
// reports its length.)
func (f *Forest) UsedVMs() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(f.owner))
	for v := range f.owner {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VNFOf returns the VNF index enabled on real VM v (0 if none).
func (f *Forest) VNFOf(v graph.NodeID) int { return f.owner[v].vnf }

// Footprint is the physical resources a forest occupies right now: the
// parent edge of every live clone — an edge crossed by k clones appears k
// times, because each crossing carries the request's demand independently —
// and the VMs hosting its VNFs (each once, one slot per forest per VM).
// Capacitated sessions reserve and release exactly this set per lease.
type Footprint struct {
	Edges []graph.EdgeID
	VMs   []graph.NodeID
}

// Footprint extracts the forest's current resource footprint. It reflects
// whatever shape the forest has at call time, so a lease captured before a
// repair and recomputed after naturally accounts for swapped routes.
func (f *Forest) Footprint() Footprint {
	var fp Footprint
	for id := range f.clones {
		c := &f.clones[id]
		if c.deleted {
			continue
		}
		if c.Parent != NoClone && c.ParentEdge != graph.NoEdge {
			fp.Edges = append(fp.Edges, c.ParentEdge)
		}
	}
	fp.VMs = f.UsedVMs()
	return fp
}

// newRoot adds a root clone of node and registers it as a tree root.
func (f *Forest) newRoot(node graph.NodeID) CloneID {
	id := CloneID(len(f.clones))
	f.clones = append(f.clones, Clone{Node: node, Parent: NoClone, ParentEdge: graph.NoEdge})
	f.roots = append(f.roots, id)
	return id
}

// appendClone adds a clone of node under parent via edge.
func (f *Forest) appendClone(parent CloneID, node graph.NodeID, via graph.EdgeID) CloneID {
	id := CloneID(len(f.clones))
	f.clones = append(f.clones, Clone{Node: node, Parent: parent, ParentEdge: via})
	return id
}

// NewRoot adds a root clone of node; exported for solvers outside this
// package (e.g. the exact solver) that assemble forests directly.
func (f *Forest) NewRoot(node graph.NodeID) CloneID { return f.newRoot(node) }

// AppendClone adds a clone of node under parent via the given edge, which
// must connect the two clones' real nodes.
func (f *Forest) AppendClone(parent CloneID, node graph.NodeID, via graph.EdgeID) CloneID {
	return f.appendClone(parent, node, via)
}

// AppendInPlace adds a clone of the parent's own node linked without an
// edge. It models a VNF stage on the same machine (the enable arcs of the
// exact solver's layered graph) and costs nothing in connection cost.
func (f *Forest) AppendInPlace(parent CloneID) CloneID {
	return f.appendClone(parent, f.clones[parent].Node, graph.NoEdge)
}

// Enable assigns VNF index vnf to clone c (exported builder).
func (f *Forest) Enable(c CloneID, vnf int) error { return f.enable(c, vnf) }

// enable assigns VNF index vnf to clone c and records the global owner.
// It returns an error if the real VM is already owned with another index
// (IP constraint (6)) or the node is not a VM.
func (f *Forest) enable(c CloneID, vnf int) error {
	node := f.clones[c].Node
	if !f.g.IsVM(node) {
		return fmt.Errorf("core: cannot enable VNF %d on non-VM node %d", vnf, node)
	}
	if use, ok := f.owner[node]; ok {
		return fmt.Errorf("core: VNF conflict on VM %d: owned f%d, requested f%d", node, use.vnf, vnf)
	}
	f.clones[c].VNF = vnf
	f.owner[node] = vmUse{vnf: vnf, clone: c}
	return nil
}

// disable clears the VNF on clone c and its owner record.
func (f *Forest) disable(c CloneID) {
	node := f.clones[c].Node
	if f.clones[c].VNF != 0 {
		f.clones[c].VNF = 0
		delete(f.owner, node)
	}
}

// Cost returns the forest's setup and connection costs: enabled clones pay
// their VM setup cost once; every live non-root clone pays its parent edge.
func (f *Forest) Cost() (setup, conn float64) {
	for _, c := range f.clones {
		if c.deleted {
			continue
		}
		if c.VNF != 0 {
			setup += f.g.NodeCost(c.Node)
		}
		if c.Parent != NoClone && c.ParentEdge != graph.NoEdge {
			conn += f.g.EdgeCost(c.ParentEdge)
		}
	}
	return setup, conn
}

// TotalCost is the sum of setup and connection costs.
func (f *Forest) TotalCost() float64 {
	s, c := f.Cost()
	return s + c
}

// MarkDestination records that destination d is served at clone c.
func (f *Forest) MarkDestination(d graph.NodeID, c CloneID) {
	f.dests[d] = c
}

// AttachChainWalk lays sc's full walk as a new tree rooted at the chain's
// source, enabling the chain's VNFs in order. It returns the walk's final
// clone and the clones hosting f1, f2, …. The caller is responsible for
// conflict-freedom; use the resolver for general additions.
func (f *Forest) AttachChainWalk(sc *chain.ServiceChain) (last CloneID, hosts []CloneID, err error) {
	last, hosts, err = f.lay(f.newRoot(sc.Source), sc.Nodes, sc.Edges, 0, sc.VMPos, 1)
	if err != nil {
		return NoClone, nil, err
	}
	if len(hosts) != len(sc.VMs) {
		return NoClone, nil, fmt.Errorf("core: walk enabled %d of %d VNFs", len(hosts), len(sc.VMs))
	}
	return last, hosts, nil
}

// lay appends hops from+1…len(nodes)-1 of a walk under clone at, one clone
// per hop (edges[i-1] leads to nodes[i]), and enables VNFs first, first+1,
// … on the clones at the walk positions vmPos lists, in order. It returns
// the last clone laid, at itself when there is no hop, and the clones
// enabled. Only enabling fails, so a walk with no VM positions cannot.
func (f *Forest) lay(at CloneID, nodes []graph.NodeID, edges []graph.EdgeID, from int, vmPos []int, first int) (CloneID, []CloneID, error) {
	var hosts []CloneID
	for i := from + 1; i < len(nodes); i++ {
		at = f.appendClone(at, nodes[i], edges[i-1])
		if len(hosts) < len(vmPos) && vmPos[len(hosts)] == i {
			if err := f.enable(at, first+len(hosts)); err != nil {
				return NoClone, nil, err
			}
			hosts = append(hosts, at)
		}
	}
	return at, hosts, nil
}

// splice lays a walk from clone at to clone c's node, all but its last
// hop, enabling VNFs as lay does, and re-parents c onto it: c keeps its
// subtree and takes the walk's last edge as its uplink, or an in-place link
// when the walk has no hop. It returns the clones enabled.
func (f *Forest) splice(c, at CloneID, nodes []graph.NodeID, edges []graph.EdgeID, vmPos []int, first int) ([]CloneID, error) {
	last, hosts, err := f.lay(at, nodes[:len(nodes)-1], edges, 0, vmPos, first)
	if err != nil {
		return nil, err
	}
	f.clones[c].Parent, f.clones[c].ParentEdge = last, graph.NoEdge
	if len(edges) > 0 {
		f.clones[c].ParentEdge = edges[len(edges)-1]
	}
	return hosts, nil
}

// free returns the VMs of vms that run no VNF in the forest.
func (f *Forest) free(vms []graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(vms))
	for _, v := range vms {
		if _, used := f.owner[v]; !used {
			out = append(out, v)
		}
	}
	return out
}

// AttachTree hangs a tree of real edges off the anchor clone: edges must
// form a tree in g containing anchor's real node. Every destination in
// dests found in the component is marked as served. Returns the number of
// destinations attached.
//
// The tree's nodes get local indices in ascending order, and a local CSR
// lists each node's edges in input order, which is the order the
// breadth-first walk from the anchor takes them in; a node is cloned the
// first time the walk reaches it. A cycle or a parallel edge leaves an
// edge unused, and so does an edge outside the anchor's component.
func (f *Forest) AttachTree(anchor CloneID, edges []graph.EdgeID, dests map[graph.NodeID]bool) (int, error) {
	anchorNode := f.clones[anchor].Node
	nodes := endpoints(f.g, edges)
	root, inTree := slices.BinarySearch(nodes, anchorNode)
	if len(edges) > 0 && !inTree {
		return 0, fmt.Errorf("core: anchor node %d not in attached tree", anchorNode)
	}
	served := 0
	if dests[anchorNode] {
		f.MarkDestination(anchorNode, anchor)
		served++
	}
	if len(edges) == 0 {
		return served, nil
	}
	// Node i's edges are inc[off[i]:off[i+1]]: off counts them two slots
	// up, and the fill then runs off[i+1] from node i's start to its end.
	// queue holds the walk's local indices, and at[i] is node i's clone,
	// NoClone until the walk reaches it.
	n, m := len(nodes), len(edges)
	buf := make([]int32, n+2+2*m+n)
	off, inc, queue := buf[:n+2], buf[n+2:n+2+2*m], buf[n+2+2*m:n+2+2*m]
	for _, id := range edges {
		e := f.g.Edge(id)
		off[localOf(nodes, e.U)+2]++
		off[localOf(nodes, e.V)+2]++
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	for i, id := range edges {
		e := f.g.Edge(id)
		for _, v := range [2]graph.NodeID{e.U, e.V} {
			x := localOf(nodes, v) + 1
			inc[off[x]] = int32(i)
			off[x]++
		}
	}
	at := make([]CloneID, n)
	for i := range at {
		at[i] = NoClone
	}
	at[root] = anchor
	queue = append(queue, int32(root))
	usedEdges := 0
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, i := range inc[off[x]:off[x+1]] {
			id := edges[i]
			other := f.g.Edge(id).Other(nodes[x])
			o := localOf(nodes, other)
			if at[o] != NoClone {
				continue
			}
			usedEdges++
			at[o] = f.appendClone(at[x], other, id)
			if dests[other] {
				f.MarkDestination(other, at[o])
				served++
			}
			queue = append(queue, int32(o))
		}
	}
	if usedEdges != len(edges) {
		return served, fmt.Errorf("core: attached tree used %d of %d edges (not a connected tree at anchor %d)",
			usedEdges, len(edges), anchorNode)
	}
	return served, nil
}

// endpoints returns the nodes the edges touch, ascending and each once:
// the local indices of componentsOf and AttachTree.
func endpoints(g *graph.Graph, edges []graph.EdgeID) []graph.NodeID {
	nodes := make([]graph.NodeID, 0, 2*len(edges))
	for _, id := range edges {
		e := g.Edge(id)
		nodes = append(nodes, e.U, e.V)
	}
	slices.Sort(nodes)
	return slices.Compact(nodes)
}

// localOf returns v's local index in nodes, an endpoints list holding v.
func localOf(nodes []graph.NodeID, v graph.NodeID) int {
	i, _ := slices.BinarySearch(nodes, v)
	return i
}

// PathToRoot returns the clone path from c up to its root, inclusive.
func (f *Forest) PathToRoot(c CloneID) []CloneID {
	var out []CloneID
	for cur := c; cur != NoClone; cur = f.clones[cur].Parent {
		out = append(out, cur)
	}
	return out
}

// root returns the root clone above clone c, c itself for a root.
func (f *Forest) root(c CloneID) CloneID {
	for f.clones[c].Parent != NoClone {
		c = f.clones[c].Parent
	}
	return c
}

// vnfProgress returns how many chain VNFs have been applied on the path
// from the root down to clone c, and an error if they are out of order,
// naming the topmost clone out of order. It walks c's parent links twice,
// first to count the path's VNF clones, k of them, and allocates nothing:
// in order, the VNF clones met walking up run fk, fk−1, …, f1.
func (f *Forest) vnfProgress(c CloneID) (int, error) {
	k := 0
	for cur := c; cur != NoClone; cur = f.clones[cur].Parent {
		if f.clones[cur].VNF != 0 {
			k++
		}
	}
	bad, want := NoClone, 0
	for cur, i := c, k; cur != NoClone; cur = f.clones[cur].Parent {
		if v := f.clones[cur].VNF; v != 0 {
			if v != i {
				bad, want = cur, i
			}
			i--
		}
	}
	if bad != NoClone {
		return 0, fmt.Errorf("core: VNF f%d out of order (expected f%d) at clone %d", f.clones[bad].VNF, want, bad)
	}
	return k, nil
}

// Validate checks the full feasibility of the forest for the given request:
// every destination is served by a root-to-destination path whose VNFs are
// exactly f1…f|C| in order, roots are sources, parent links are structurally
// sound and acyclic, and the global one-VNF-per-VM rule holds.
func (f *Forest) Validate(sources, dests []graph.NodeID) error {
	srcSet := make(map[graph.NodeID]bool, len(sources))
	for _, s := range sources {
		srcSet[s] = true
	}
	// Structural soundness and acyclicity.
	for id, c := range f.clones {
		if c.deleted {
			continue
		}
		if c.Parent != NoClone {
			p := f.clones[c.Parent]
			if p.deleted {
				return fmt.Errorf("core: clone %d has deleted parent %d", id, c.Parent)
			}
			if c.ParentEdge == graph.NoEdge {
				// In-place link: only legal between clones of one node.
				if p.Node != c.Node {
					return fmt.Errorf("core: clone %d in-place link to different node %d", id, p.Node)
				}
			} else {
				e := f.g.Edge(c.ParentEdge)
				if !(e.U == c.Node && e.V == p.Node) && !(e.V == c.Node && e.U == p.Node) {
					return fmt.Errorf("core: clone %d parent edge %d does not connect %d-%d",
						id, c.ParentEdge, c.Node, p.Node)
				}
			}
		}
		steps := 0
		for cur := CloneID(id); cur != NoClone; cur = f.clones[cur].Parent {
			steps++
			if steps > len(f.clones) {
				return fmt.Errorf("core: parent cycle at clone %d", id)
			}
		}
	}
	// Ownership consistency.
	seen := make(map[graph.NodeID]int)
	for id, c := range f.clones {
		if c.deleted || c.VNF == 0 {
			continue
		}
		if !f.g.IsVM(c.Node) {
			return fmt.Errorf("core: non-VM node %d runs f%d", c.Node, c.VNF)
		}
		if c.VNF < 1 || c.VNF > f.chainLen {
			return fmt.Errorf("core: clone %d runs out-of-range VNF f%d", id, c.VNF)
		}
		if prev, ok := seen[c.Node]; ok {
			return fmt.Errorf("core: VM %d runs two VNFs (f%d and f%d)", c.Node, prev, c.VNF)
		}
		seen[c.Node] = c.VNF
		use, ok := f.owner[c.Node]
		if !ok || use.vnf != c.VNF || use.clone != CloneID(id) {
			return fmt.Errorf("core: owner record for VM %d inconsistent", c.Node)
		}
	}
	if len(seen) != len(f.owner) {
		return fmt.Errorf("core: %d enabled clones but %d owner records", len(seen), len(f.owner))
	}
	// Per-destination service chains.
	for _, d := range dests {
		c, ok := f.dests[d]
		if !ok {
			return fmt.Errorf("core: destination %d not served", d)
		}
		if f.clones[c].deleted {
			return fmt.Errorf("core: destination %d served by deleted clone %d", d, c)
		}
		if f.clones[c].Node != d {
			return fmt.Errorf("core: destination %d served by clone of node %d", d, f.clones[c].Node)
		}
		got, err := f.vnfProgress(c)
		if err != nil {
			return fmt.Errorf("core: destination %d: %w", d, err)
		}
		if got != f.chainLen {
			return fmt.Errorf("core: destination %d received %d of %d VNFs", d, got, f.chainLen)
		}
		if r := f.clones[f.root(c)].Node; !srcSet[r] {
			return fmt.Errorf("core: destination %d rooted at non-source node %d", d, r)
		}
	}
	return nil
}

// Prune removes every clone not on a root path of a served destination and
// disables VNFs on removed clones. Cost never increases.
func (f *Forest) Prune() {
	needed := make([]bool, len(f.clones))
	for _, c := range f.dests {
		for cur := c; cur != NoClone; cur = f.clones[cur].Parent {
			if needed[cur] {
				break
			}
			needed[cur] = true
		}
	}
	for id := range f.clones {
		if !needed[id] && !f.clones[id].deleted {
			f.disable(CloneID(id))
			f.clones[id].deleted = true
		}
	}
}

// assertFinite guards against NaN/Inf costs escaping into results.
func assertFinite(v float64, what string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: non-finite %s: %v", what, v)
	}
	return nil
}
