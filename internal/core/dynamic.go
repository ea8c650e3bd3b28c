package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"sof/internal/chain"
	"sof/internal/graph"
)

// Dynamic reconfiguration operations of Section VII-C. All operations
// mutate the forest in place and keep it feasible; each returns the cost
// delta (new − old) so callers can track accumulated cost.

// Leave removes destination d from the forest (Section VII-C case 1):
// if its clone chain became useless it is pruned back to the nearest
// branch point.
func (f *Forest) Leave(d graph.NodeID) (float64, error) {
	if _, ok := f.dests[d]; !ok {
		return 0, fmt.Errorf("core: destination %d not in forest", d)
	}
	before := f.TotalCost()
	delete(f.dests, d)
	f.Prune()
	return f.TotalCost() - before, nil
}

// Join connects a new destination d (Section VII-C case 2): for every
// forest clone u it evaluates the extension walk from u to d installing
// the VNFs still missing downstream of u, and grafts the cheapest one.
// freeVMs are the VMs available for newly installed VNFs.
//
// When no attach plan exists, the returned error aggregates (errors.Join)
// the per-clone causes, so callers can tell "no feasible graft" (every
// Extension was infeasible or disconnected) from "forest metadata corrupt"
// (vnfProgress found out-of-order VNFs) — the latter is named explicitly
// in the message.
func (f *Forest) Join(oracle *chain.Oracle, freeVMs []graph.NodeID, d graph.NodeID) (float64, error) {
	if _, ok := f.dests[d]; ok {
		return 0, fmt.Errorf("core: destination %d already served", d)
	}
	best, metaErrs, extErrs := f.cheapestGraft(oracle, freeVMs, d)
	if best == nil {
		joined := errors.Join(append(metaErrs, extErrs...)...)
		switch {
		case len(metaErrs) > 0:
			return 0, fmt.Errorf("core: no attach plan for destination %d and %d clone(s) with corrupt metadata: %w",
				d, len(metaErrs), joined)
		case joined != nil:
			return 0, fmt.Errorf("core: no feasible join point for destination %d: %w", d, joined)
		default:
			return 0, fmt.Errorf("core: no feasible join point for destination %d (forest has no live clones)", d)
		}
	}
	before := f.TotalCost()
	if err := f.serve(best, d); err != nil {
		return 0, err
	}
	return f.TotalCost() - before, nil
}

// graft is an attach plan for one destination: the live clone it hangs
// under, that clone's VNF progress, and the extension walk that enables
// the VNFs still missing. Join, and through it every repair graft, lays
// the cheapest one at once.
type graft struct {
	anchor   CloneID
	progress int
	ext      *chain.ServiceChain
}

// cheapestGraft scans the live clones for the cheapest extension walk to
// d through the free VMs of vms, the first clone winning a tie. The walks
// come from the oracle at the network's current costs and avoid every
// failed and capacity-masked element. It returns nil when no clone has
// one, with the per-clone causes: corrupt VNF order, and failed
// extensions.
func (f *Forest) cheapestGraft(oracle *chain.Oracle, vms []graph.NodeID, d graph.NodeID) (best *graft, metaErrs, extErrs []error) {
	avail := f.free(vms)
	bestCost := math.Inf(1)
	for id := range f.clones {
		c := CloneID(id)
		if f.clones[c].deleted {
			continue
		}
		progress, err := f.vnfProgress(c)
		if err != nil {
			metaErrs = append(metaErrs, fmt.Errorf("clone %d: %w", c, err))
			continue
		}
		ext, err := oracle.Extension(avail, f.clones[c].Node, d, f.chainLen-progress)
		if err != nil {
			extErrs = append(extErrs, fmt.Errorf("clone %d (node %d): %w", c, f.clones[c].Node, err))
			continue
		}
		if ext.TotalCost() < bestCost {
			bestCost = ext.TotalCost()
			best = &graft{anchor: c, progress: progress, ext: ext}
		}
	}
	return best, metaErrs, extErrs
}

// serve lays g's walk and serves destination d at its end, which must
// then have received the whole chain.
func (f *Forest) serve(g *graft, d graph.NodeID) error {
	last, _, err := f.lay(g.anchor, g.ext.Nodes, g.ext.Edges, 0, g.ext.VMPos, g.progress+1)
	if err != nil {
		return err
	}
	f.MarkDestination(d, last)
	got, err := f.vnfProgress(last)
	if err != nil {
		return err
	}
	if got != f.chainLen {
		return fmt.Errorf("core: destination %d has %d of %d VNFs", d, got, f.chainLen)
	}
	return nil
}

// children returns the live child clones of c (computed on demand; the
// forest stores only parent pointers).
func (f *Forest) children(c CloneID) []CloneID {
	var out []CloneID
	for id := range f.clones {
		if !f.clones[id].deleted && f.clones[id].Parent == c {
			out = append(out, CloneID(id))
		}
	}
	return out
}

// RemoveVNF deletes VNF index j from the service (Section VII-C case 3):
// every clone running f_j becomes pass-through, downstream VNF indices
// shift down, and the forest's chain length shrinks by one.
func (f *Forest) RemoveVNF(j int) error {
	if j < 1 || j > f.chainLen {
		return fmt.Errorf("core: VNF index %d out of range [1,%d]", j, f.chainLen)
	}
	for id := range f.clones {
		c := &f.clones[id]
		if c.deleted || c.VNF == 0 {
			continue
		}
		switch {
		case c.VNF == j:
			f.disable(CloneID(id))
		case c.VNF > j:
			c.VNF--
			use := f.owner[c.Node]
			use.vnf--
			f.owner[c.Node] = use
		}
	}
	f.chainLen--
	return nil
}

// InsertVNF adds a new VNF at index j (Section VII-C case 4): downstream
// indices shift up, and for every maximal subtree that crosses the j-1 → j
// boundary a fresh VM is spliced in. freeVMs are candidates for the new
// VNF instances. The implementation reroutes each affected boundary: the
// path between the VM of f_{j-1} (or the root) and the VM of old f_j is
// replaced by a walk through a newly enabled VM. When f_j is appended, a
// destination that runs f_{j-1} itself, or roots its tree, is served at
// the end of a walk from it through the new VM back to it. A free VM at
// either end of the boundary's link may instead run f_j in place, keeping
// the link, when that costs no more than the walk; the walk's own ends are
// never enabled. On error the forest is left exactly as it was: the index
// shift and any splices already made are undone.
func (f *Forest) InsertVNF(oracle *chain.Oracle, freeVMs []graph.NodeID, j int) (err error) {
	if j < 1 || j > f.chainLen+1 {
		return fmt.Errorf("core: VNF insert index %d out of range [1,%d]", j, f.chainLen+1)
	}
	saved := f.Copy()
	defer func() {
		if err != nil {
			*f = *saved
		}
	}()
	// Shift indices ≥ j up.
	for id := range f.clones {
		c := &f.clones[id]
		if c.deleted || c.VNF == 0 || c.VNF < j {
			continue
		}
		c.VNF++
		use := f.owner[c.Node]
		use.vnf++
		f.owner[c.Node] = use
	}
	f.chainLen++
	// Find boundary clones, whose subtree needs f_j next: the clones
	// running the old f_j (now f_{j+1}), or destinations lacking f_j.
	var fixups []CloneID
	for id := range f.clones {
		if !f.clones[id].deleted && f.clones[id].VNF == j+1 {
			fixups = append(fixups, CloneID(id))
		}
	}
	if j == f.chainLen {
		// Appending at the end: the boundary sits just before each
		// destination's serving clone. Destinations go in id order, so a
		// corrupt one is reported the same way on every run.
		for _, d := range f.Destinations() {
			c := f.dests[d]
			got, err := f.vnfProgress(c)
			if err != nil {
				return err
			}
			if got == f.chainLen-1 {
				fixups = append(fixups, c)
			}
		}
	}
	// Ancestors first: a splice on a shared path repairs every descendant
	// boundary below it, and the parent-progress guard then skips them.
	// Descendant-first order would instead stack two copies of the new
	// VNF on one path. The clone id breaks ties, which the destination
	// map's order would otherwise decide.
	depth := func(c CloneID) int {
		d := 0
		for cur := f.clones[c].Parent; cur != NoClone; cur = f.clones[cur].Parent {
			d++
		}
		return d
	}
	sort.Slice(fixups, func(a, b int) bool {
		da, db := depth(fixups[a]), depth(fixups[b])
		return da < db || da == db && fixups[a] < fixups[b]
	})
	// served marks the boundary parents already handled: the new VNF runs
	// on them or below them, so an in-place f_j there would run twice on
	// one path.
	served := make(map[CloneID]bool)
	for _, c := range fixups {
		// The new VM goes after the boundary clone at: c's parent, or c
		// itself when f_j is appended and c, a destination, runs f_{j-1}
		// or roots its tree. There a walk from c through the new VM back
		// to c's node is grafted under c and serves the destination.
		at := f.clones[c].Parent
		tail := j == f.chainLen && (at == NoClone || f.clones[c].VNF != 0)
		if tail {
			at = c
		}
		if at == NoClone {
			return fmt.Errorf("core: VNF clone %d has no parent", c)
		}
		// Skip boundaries already repaired by a splice on a shared
		// ancestor path (e.g. two destinations served through one walk).
		prog, err := f.vnfProgress(at)
		if err != nil {
			return err
		}
		if prog != j-1 {
			continue
		}
		avail := f.free(freeVMs)
		if len(avail) == 0 {
			return fmt.Errorf("core: no free VM for inserted VNF f%d", j)
		}
		// Walk at → new VM w → c, and splice c onto it or serve its end.
		from := f.clones[at].Node
		to := f.clones[c].Node
		ext, extErr := oracle.Extension(avail, from, to, 1)
		host, cost := f.inPlaceHost(avail, at, c, served[at])
		served[at] = true
		if host != NoClone && (extErr != nil || cost <= ext.TotalCost()) {
			if err := f.enable(host, j); err != nil {
				return err
			}
			continue
		}
		if extErr != nil {
			return fmt.Errorf("core: cannot splice VNF f%d between %d and %d: %w", j, from, to, extErr)
		}
		if tail {
			last, _, err := f.lay(c, ext.Nodes, ext.Edges, 0, ext.VMPos, j)
			if err != nil {
				return err
			}
			f.MarkDestination(to, last)
		} else if _, err := f.splice(c, at, ext.Nodes, ext.Edges, ext.VMPos, j); err != nil {
			return err
		}
	}
	f.Prune()
	return nil
}

// inPlaceHost returns the clone at the end of one InsertVNF boundary, at
// or c, that can run the new VNF where it stands — a pass-through clone of
// an unblocked VM in avail — and what the boundary then costs: the VM's
// setup and the link from at to c, which stays. A clone with the new VNF
// already below it (taken) cannot host at, and the cheaper VM wins, at on
// a tie. It returns NoClone when neither end can.
func (f *Forest) inPlaceHost(avail []graph.NodeID, at, c CloneID, taken bool) (CloneID, float64) {
	link := 0.0
	if e := f.clones[c].ParentEdge; c != at && e != graph.NoEdge {
		link = f.g.EdgeCost(e)
	}
	host, best := NoClone, math.Inf(1)
	for _, h := range []CloneID{at, c} {
		node := f.clones[h].Node
		if f.clones[h].VNF != 0 || h == at && taken || !slices.Contains(avail, node) || f.g.NodeBlocked(node) {
			continue
		}
		if cost := f.g.NodeCost(node) + link; cost < best {
			host, best = h, cost
		}
	}
	return host, best
}

// RerouteCongestedEdge re-connects every clone whose parent edge is e using
// the current shortest path (Section VII-C case 5); callers update edge
// costs first (e.g. via the Fortz–Thorup tracker).
//
// A clone whose reroute fails (typically ErrDisconnected after a failure)
// is left on its old parent edge; the sweep continues to the remaining
// clones and the per-clone causes come back joined (errors.Join) alongside
// the count of clones that did move, so callers see partial progress
// instead of an all-or-nothing abort. An edge outside the network is
// rejected before the sweep, and nothing moves.
func (f *Forest) RerouteCongestedEdge(oracle *chain.Oracle, e graph.EdgeID) (int, error) {
	if !f.g.ValidEdge(e) {
		return 0, fmt.Errorf("core: no edge %d in the network", e)
	}
	rerouted := 0
	var errs []error
	for id := range f.clones {
		c := CloneID(id)
		cl := f.clones[c]
		if cl.deleted || cl.ParentEdge != e {
			continue
		}
		from := f.clones[cl.Parent].Node
		nodes, edges, _, err := oracle.Path(from, cl.Node)
		if err != nil {
			errs = append(errs, fmt.Errorf("clone %d (node %d): %w", c, cl.Node, err))
			continue
		}
		if len(nodes) < 2 {
			continue
		}
		_, _ = f.splice(c, cl.Parent, nodes, edges, nil, 0) // no VM positions, so no error
		rerouted++
	}
	return rerouted, errors.Join(errs...)
}

// MigrateOverloadedVM moves the VNF hosted on VM v to a fresh VM
// (Section VII-C case 6): the replacement is chosen to minimize the
// connection cost to the old VM's parent and children, then spliced in.
// The VNF runs on a new clone of the replacement, in place when that is
// the parent's node, so no clone another branch shares gains a VNF. A VNF
// on a tree's root moves below the root, which stays, so every tree keeps
// a source as its root. When v is a destination served at the old clone,
// it is served again below the replacement, whose cost counts that walk.
func (f *Forest) MigrateOverloadedVM(oracle *chain.Oracle, freeVMs []graph.NodeID, v graph.NodeID) error {
	use, ok := f.owner[v]
	if !ok {
		return fmt.Errorf("core: VM %d hosts no VNF", v)
	}
	old := use.clone
	above := f.clones[old].Parent
	if above == NoClone {
		above = old
	}
	from := f.clones[above].Node
	kids := f.children(old)
	targets := make([]graph.NodeID, 0, len(kids)+1)
	for _, k := range kids {
		targets = append(targets, f.clones[k].Node)
	}
	if c, served := f.dests[v]; served && c == old {
		targets = append(targets, v)
	}
	var bestVM graph.NodeID = graph.None
	bestCost := math.Inf(1)
	for _, w := range f.free(freeVMs) {
		// Never migrate onto a blocked VM (failed, or saturated by a
		// capacitated session): the oracle would report it unreachable
		// anyway, but checking here keeps the error crisp and skips the
		// path queries.
		if f.g.NodeBlocked(w) {
			continue
		}
		cost := f.g.NodeCost(w)
		_, _, d, err := oracle.Path(from, w)
		if err != nil {
			continue
		}
		cost += d
		feasible := true
		for _, x := range targets {
			_, _, d, err := oracle.Path(w, x)
			if err != nil {
				feasible = false
				break
			}
			cost += d
		}
		if feasible && cost < bestCost {
			bestCost = cost
			bestVM = w
		}
	}
	if bestVM == graph.None {
		return fmt.Errorf("core: no migration target for VM %d", v)
	}
	f.disable(old)
	// Lay the path above → bestVM and enable the VNF at its end, then
	// re-parent the children (and re-serve v) via paths bestVM → target.
	// Paths have no VM positions, so laying them returns no error.
	nodes, edges, _, err := oracle.Path(from, bestVM)
	if err != nil {
		return err
	}
	newClone, _, _ := f.lay(above, nodes, edges, 0, nil, 0)
	if newClone == above {
		newClone = f.AppendInPlace(above)
	}
	if err := f.enable(newClone, use.vnf); err != nil {
		return err
	}
	for i, x := range targets {
		nodes, edges, _, err := oracle.Path(bestVM, x)
		if err != nil {
			return err
		}
		if i < len(kids) {
			_, _ = f.splice(kids[i], newClone, nodes, edges, nil, 0)
			continue
		}
		last, _, _ := f.lay(newClone, nodes, edges, 0, nil, 0)
		f.MarkDestination(v, last)
	}
	// The old clone may now be a dead leaf; prune reclaims it and any
	// stranded path.
	f.Prune()
	return nil
}
