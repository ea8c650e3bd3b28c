package core

import (
	"errors"
	"fmt"
	"maps"
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
	return f.join(oracle, freeVMs, d, math.Inf(1))
}

// join is Join with a graft budget: a cheapest plan whose extension cost
// exceeds budget is rejected with ErrOverBudget before any mutation, which
// is what lets Repair bound the fast path and fall back to a full
// re-embed instead of paying an arbitrarily bad graft.
func (f *Forest) join(oracle *chain.Oracle, freeVMs []graph.NodeID, d graph.NodeID, budget float64) (float64, error) {
	if _, ok := f.dests[d]; ok {
		return 0, fmt.Errorf("core: destination %d already served", d)
	}
	type attachPlan struct {
		clone    CloneID
		progress int
		ext      *chain.ServiceChain
	}
	var best *attachPlan
	bestCost := math.Inf(1)
	// Exclude VMs already enabled anywhere in the forest.
	avail := make([]graph.NodeID, 0, len(freeVMs))
	for _, v := range freeVMs {
		if _, used := f.owner[v]; !used {
			avail = append(avail, v)
		}
	}
	var metaErrs, extErrs []error
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
		remaining := f.chainLen - progress
		ext, err := oracle.Extension(avail, f.clones[c].Node, d, remaining)
		if err != nil {
			extErrs = append(extErrs, fmt.Errorf("clone %d (node %d): %w", c, f.clones[c].Node, err))
			continue
		}
		if ext.TotalCost() < bestCost {
			bestCost = ext.TotalCost()
			best = &attachPlan{clone: c, progress: progress, ext: ext}
		}
	}
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
	if bestCost > budget {
		return 0, fmt.Errorf("core: cheapest graft for destination %d costs %.6g, budget %.6g: %w",
			d, bestCost, budget, ErrOverBudget)
	}
	before := f.TotalCost()
	last, err := f.graftWalk(best.clone, best.ext, best.progress)
	if err != nil {
		return 0, err
	}
	f.MarkDestination(d, last)
	if err := f.checkDest(d); err != nil {
		return 0, err
	}
	return f.TotalCost() - before, nil
}

// graftWalk appends ext's walk under anchor clone by clone, enabling
// ext's VMs with chain indices baseVNF+1, baseVNF+2, …; it returns the
// final clone of the walk (the one serving a joined destination).
func (f *Forest) graftWalk(anchor CloneID, ext *chain.ServiceChain, baseVNF int) (CloneID, error) {
	cur := anchor
	vmIdx := 0
	for i := 1; i < len(ext.Nodes); i++ {
		cur = f.appendClone(cur, ext.Nodes[i], ext.Edges[i-1])
		if vmIdx < len(ext.VMPos) && ext.VMPos[vmIdx] == i {
			if err := f.enable(cur, baseVNF+vmIdx+1); err != nil {
				return NoClone, err
			}
			vmIdx++
		}
	}
	return cur, nil
}

// checkDest validates a single destination's chain.
func (f *Forest) checkDest(d graph.NodeID) error {
	c, ok := f.dests[d]
	if !ok {
		return fmt.Errorf("core: destination %d unserved", d)
	}
	got, err := f.vnfProgress(c)
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
// replaced by a walk through a newly enabled VM. On error the forest is
// left exactly as it was: the index shift and any splices already made
// are undone.
func (f *Forest) InsertVNF(oracle *chain.Oracle, freeVMs []graph.NodeID, j int) (err error) {
	if j < 1 || j > f.chainLen+1 {
		return fmt.Errorf("core: VNF insert index %d out of range [1,%d]", j, f.chainLen+1)
	}
	saved := *f
	saved.clones, saved.roots = slices.Clone(f.clones), slices.Clone(f.roots)
	saved.owner, saved.dests, saved.backups = maps.Clone(f.owner), maps.Clone(f.dests), maps.Clone(f.backups)
	defer func() {
		if err != nil {
			*f = saved
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
	// Find boundary clones: clones whose subtree needs f_j next — i.e.
	// clones with progress j-1 whose children start the old f_j (now
	// f_{j+1}) segment, or destinations lacking f_j.
	avail := make([]graph.NodeID, 0, len(freeVMs))
	for _, v := range freeVMs {
		if _, used := f.owner[v]; !used {
			avail = append(avail, v)
		}
	}
	// Work per VNF-(j+1) clone and per destination with progress j-1.
	var fixups []CloneID
	for id := range f.clones {
		c := CloneID(id)
		if f.clones[c].deleted {
			continue
		}
		if f.clones[c].VNF == j+1 {
			fixups = append(fixups, c)
		}
	}
	if j == f.chainLen {
		// Appending at the end: the boundary sits just before each
		// destination's serving clone.
		for _, c := range f.dests {
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
	// VNF on one path.
	depth := func(c CloneID) int {
		d := 0
		for cur := f.clones[c].Parent; cur != NoClone; cur = f.clones[cur].Parent {
			d++
		}
		return d
	}
	sort.Slice(fixups, func(i, j int) bool { return depth(fixups[i]) < depth(fixups[j]) })
	done := make(map[CloneID]bool)
	for _, c := range fixups {
		if done[c] {
			continue
		}
		done[c] = true
		parent := f.clones[c].Parent
		if parent == NoClone {
			return fmt.Errorf("core: VNF clone %d has no parent", c)
		}
		// Skip boundaries already repaired by a splice on a shared
		// ancestor path (e.g. two destinations served through one walk).
		parentProg, err := f.vnfProgress(parent)
		if err != nil {
			return err
		}
		if parentProg != j-1 {
			continue
		}
		if len(avail) == 0 {
			return fmt.Errorf("core: no free VM for inserted VNF f%d", j)
		}
		// Splice: parent → (walk via new VM w) → c.
		from := f.clones[parent].Node
		to := f.clones[c].Node
		bestExt, err := oracle.Extension(avail, from, to, 1)
		if err != nil {
			return fmt.Errorf("core: cannot splice VNF f%d between %d and %d: %w", j, from, to, err)
		}
		bestVM := bestExt.VMs[0]
		cur := parent
		for i := 1; i < len(bestExt.Nodes)-1; i++ {
			cur = f.appendClone(cur, bestExt.Nodes[i], bestExt.Edges[i-1])
			if bestExt.VMPos[0] == i {
				if err := f.enable(cur, j); err != nil {
					return err
				}
			}
		}
		// Re-parent c onto the spliced walk's last interior clone.
		f.clones[c].Parent = cur
		f.clones[c].ParentEdge = bestExt.Edges[len(bestExt.Edges)-1]
		// The chosen VM is no longer available for other boundaries.
		for i, v := range avail {
			if v == bestVM {
				avail = append(avail[:i], avail[i+1:]...)
				break
			}
		}
	}
	f.Prune()
	return nil
}

// RerouteCongestedEdge re-connects every clone whose parent edge is e using
// the current shortest path (Section VII-C case 5); callers update edge
// costs first (e.g. via the Fortz–Thorup tracker).
//
// A clone whose reroute fails (typically ErrDisconnected after a failure)
// is left on its old parent edge; the sweep continues to the remaining
// clones and the per-clone causes come back joined (errors.Join) alongside
// the count of clones that did move, so callers see partial progress
// instead of an all-or-nothing abort.
func (f *Forest) RerouteCongestedEdge(oracle *chain.Oracle, e graph.EdgeID) (int, error) {
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
		cur := cl.Parent
		for i := 1; i < len(nodes)-1; i++ {
			cur = f.appendClone(cur, nodes[i], edges[i-1])
		}
		f.clones[c].Parent = cur
		f.clones[c].ParentEdge = edges[len(edges)-1]
		rerouted++
	}
	return rerouted, errors.Join(errs...)
}

// MigrateOverloadedVM moves the VNF hosted on VM v to a fresh VM
// (Section VII-C case 6): the replacement is chosen to minimize the
// connection cost to the old VM's parent and children, then spliced in.
func (f *Forest) MigrateOverloadedVM(oracle *chain.Oracle, freeVMs []graph.NodeID, v graph.NodeID) error {
	use, ok := f.owner[v]
	if !ok {
		return fmt.Errorf("core: VM %d hosts no VNF", v)
	}
	old := use.clone
	parent := f.clones[old].Parent
	kids := f.children(old)
	var parentNode graph.NodeID = graph.None
	if parent != NoClone {
		parentNode = f.clones[parent].Node
	}
	var bestVM graph.NodeID = graph.None
	bestCost := math.Inf(1)
	for _, w := range freeVMs {
		if _, used := f.owner[w]; used || w == v {
			continue
		}
		// Never migrate onto a blocked VM (failed, or saturated by a
		// capacitated session): the oracle would report it unreachable
		// anyway, but checking here keeps the error crisp and skips the
		// path queries.
		if f.g.NodeBlocked(w) {
			continue
		}
		cost := f.g.NodeCost(w)
		if parentNode != graph.None {
			_, _, d, err := oracle.Path(parentNode, w)
			if err != nil {
				continue
			}
			cost += d
		}
		feasible := true
		for _, k := range kids {
			_, _, d, err := oracle.Path(w, f.clones[k].Node)
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
	vnf := use.vnf
	f.disable(old)
	// Build the path parent → bestVM, enable the VNF there, then re-parent
	// the children via paths bestVM → child.
	var newClone CloneID
	if parent == NoClone {
		newClone = f.newRoot(bestVM)
	} else {
		nodes, edges, _, err := oracle.Path(parentNode, bestVM)
		if err != nil {
			return err
		}
		cur := parent
		for i := 1; i < len(nodes); i++ {
			cur = f.appendClone(cur, nodes[i], edges[i-1])
		}
		newClone = cur
	}
	if err := f.enable(newClone, vnf); err != nil {
		return err
	}
	for _, k := range kids {
		nodes, edges, _, err := oracle.Path(bestVM, f.clones[k].Node)
		if err != nil {
			return err
		}
		cur := newClone
		for i := 1; i < len(nodes)-1; i++ {
			cur = f.appendClone(cur, nodes[i], edges[i-1])
		}
		if len(edges) > 0 {
			f.clones[k].Parent = cur
			f.clones[k].ParentEdge = edges[len(edges)-1]
		} else {
			// Same node: link in place.
			f.clones[k].Parent = newClone
			f.clones[k].ParentEdge = graph.NoEdge
		}
	}
	// The old clone may now be a dead leaf; prune reclaims it and any
	// stranded path.
	f.Prune()
	return nil
}
