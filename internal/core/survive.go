package core

// Survivability: damage detection and repair after network failures.
//
// Failures live in the graph layer as a copy-on-write snapshot
// (graph.FailEdge / graph.FailNode); the forest's clone structure is NOT
// mutated by a failure. Damage walks the clone trees against the current
// snapshot to find the destinations whose root paths cross a failed
// element, and Repair re-attaches each of them at its cheapest live join
// point, through the same graft search as the Section VII-C Join
// operation, so every repair walk is priced at current costs and avoids
// failed and capacity-masked elements.

import (
	"fmt"
	"sort"

	"sof/internal/chain"
	"sof/internal/graph"
)

// Damage describes the effect of the graph's current failure state on one
// forest.
type Damage struct {
	// Orphans lists the severed destinations, sorted. A destination is
	// severed when any clone on its root path sits on a failed node or
	// hangs off a failed parent edge (the destination node itself
	// included).
	Orphans []graph.NodeID
	// LostVNFs counts enabled VNF clones inside severed subtrees; their
	// VMs become free again once the severed subtrees are pruned.
	LostVNFs int
}

// Broken reports whether any destination was severed.
func (d *Damage) Broken() bool { return len(d.Orphans) > 0 }

// brokenClone reports whether clone cl is directly hit by the failure
// snapshot: its node failed, or its uplink edge failed.
func brokenClone(fs *graph.FailState, cl *Clone) bool {
	return fs.NodeFailed(cl.Node) ||
		(cl.ParentEdge != graph.NoEdge && fs.EdgeFailed(cl.ParentEdge))
}

// severedSet classifies every live clone as severed (below or at a break)
// or alive, memoized along parent chains so the whole forest costs O(clones).
func (f *Forest) severedSet(fs *graph.FailState) []bool {
	const (
		unknown = iota
		alive
		cut
	)
	state := make([]uint8, len(f.clones))
	var stack []CloneID
	for id := range f.clones {
		if f.clones[id].deleted || state[id] != unknown {
			continue
		}
		stack = stack[:0]
		verdict := uint8(alive)
		for cur := CloneID(id); cur != NoClone; cur = f.clones[cur].Parent {
			if state[cur] != unknown {
				verdict = state[cur]
				break
			}
			stack = append(stack, cur)
			if brokenClone(fs, &f.clones[cur]) {
				verdict = cut
				break
			}
		}
		// Everything walked sits at or below the stopping point, so it
		// shares the verdict: below a break → cut, under a memoized
		// ancestor → that ancestor's class, clean to the root → alive.
		for _, c := range stack {
			state[c] = verdict
		}
	}
	out := make([]bool, len(f.clones))
	for id, s := range state {
		out[id] = s == cut
	}
	return out
}

// Damage computes the forest's damage under the graph's current failure
// snapshot. It does not mutate the forest; with no failures present it
// returns an empty (non-broken) Damage.
func (f *Forest) Damage() *Damage {
	dmg := &Damage{}
	fs := f.g.Failures()
	if fs == nil {
		return dmg
	}
	sev := f.severedSet(fs)
	for d, c := range f.dests {
		if sev[c] {
			dmg.Orphans = append(dmg.Orphans, d)
		}
	}
	sort.Slice(dmg.Orphans, func(i, j int) bool { return dmg.Orphans[i] < dmg.Orphans[j] })
	for id := range f.clones {
		if !f.clones[id].deleted && f.clones[id].VNF != 0 && sev[id] {
			dmg.LostVNFs++
		}
	}
	return dmg
}

// RepairFailure records one destination Repair could not re-attach and why.
type RepairFailure struct {
	Dest graph.NodeID
	Err  error
}

// RepairReport summarizes a Repair run.
type RepairReport struct {
	// Orphans is the number of severed destinations found.
	Orphans int
	// Reattached counts destinations re-attached.
	Reattached int
	// CostDelta is the forest cost after repair minus the cost before the
	// failure (a damaged forest's cost equals its pre-failure cost, since
	// costs are structural). Pruned dead weight can make it negative.
	CostDelta float64
	// Failed lists destinations that could not be re-attached, sorted by
	// destination; the caller escalates these (re-embed or surface).
	Failed []RepairFailure
}

// Repair re-attaches every severed destination it can. The severed
// subtrees are detached and pruned first — freeing their VMs for reuse —
// then each orphan is grafted at its cheapest live join point, as Join
// grafts a new destination. Every re-attached destination is
// feasibility-checked (full chain, in order).
//
// Orphans that cannot be re-attached (failed destination node, no feasible
// graft) are returned in RepairReport.Failed — never silently dropped —
// and the forest keeps serving all healthy destinations. The error return
// is non-nil only when the forest itself is corrupt.
func (f *Forest) Repair(oracle *chain.Oracle, freeVMs []graph.NodeID) (*RepairReport, error) {
	dmg := f.Damage()
	rep := &RepairReport{Orphans: len(dmg.Orphans)}
	if !dmg.Broken() {
		return rep, nil
	}
	before := f.TotalCost()
	fs := f.g.Failures()
	// Remember the healthy source roots: if pruning deletes a root whose
	// every destination was severed, a fresh root clone of the same source
	// re-seeds the graft search (otherwise a fully-severed forest would
	// have no live clone to anchor a join).
	rootNodes := make(map[graph.NodeID]bool)
	for _, r := range f.roots {
		if !f.clones[r].deleted && !fs.NodeFailed(f.clones[r].Node) {
			rootNodes[f.clones[r].Node] = true
		}
	}
	// Detach the orphans and prune: severed subtrees serve nobody now, so
	// pruning deletes them and releases their VMs (disable clears owner).
	for _, d := range dmg.Orphans {
		delete(f.dests, d)
	}
	f.Prune()
	for _, r := range f.roots {
		if !f.clones[r].deleted {
			delete(rootNodes, f.clones[r].Node)
		}
	}
	reseed := make([]graph.NodeID, 0, len(rootNodes))
	for n := range rootNodes {
		reseed = append(reseed, n)
	}
	sort.Slice(reseed, func(i, j int) bool { return reseed[i] < reseed[j] })
	for _, n := range reseed {
		f.newRoot(n)
	}
	// failed holds the orphans whose graft failed, and again reports
	// whether a graft was laid after one of them: only that can give an
	// orphan the anchor it lacked.
	var failed []RepairFailure
	again := false
	for _, d := range dmg.Orphans {
		if fs.NodeFailed(d) {
			rep.Failed = append(rep.Failed, RepairFailure{
				Dest: d,
				Err:  fmt.Errorf("core: destination node %d itself failed", d),
			})
			continue
		}
		if _, err := f.Join(oracle, freeVMs, d); err != nil {
			failed = append(failed, RepairFailure{Dest: d, Err: err})
			continue
		}
		rep.Reattached++
		again = len(failed) > 0
	}
	// The failed orphans are grafted again, in id order, until a pass
	// lays no graft after a failure.
	for again {
		again = false
		kept := failed[:0]
		for _, fl := range failed {
			if _, err := f.Join(oracle, freeVMs, fl.Dest); err != nil {
				kept = append(kept, RepairFailure{Dest: fl.Dest, Err: err})
				continue
			}
			rep.Reattached++
			again = len(kept) > 0
		}
		failed = kept
	}
	rep.Failed = append(rep.Failed, failed...)
	sort.Slice(rep.Failed, func(i, j int) bool { return rep.Failed[i].Dest < rep.Failed[j].Dest })
	// A graft that died halfway (enable error) leaves dead-leaf clones;
	// prune reclaims them before the final cost accounting.
	f.Prune()
	rep.CostDelta = f.TotalCost() - before
	return rep, nil
}
