package core

import (
	"fmt"
	"slices"

	"sof/internal/chain"
	"sof/internal/graph"
)

// resolver adds candidate service-chain walks to a forest while resolving
// VNF conflicts per Procedure 4 of the paper. It keeps, for every added
// walk, the clones hosting its VNFs so later walks can attach to (share)
// a prefix of an earlier walk.
//
// The three attachment cases of Procedure 4:
//
//  1. The incoming walk W plans f_j at a VM that already runs f_i with
//     j ≤ i: W adopts the owner walk's prefix through f_i and keeps its own
//     suffix from f_{i+1}.
//  2. j > i, but W also crosses a VM of the same owner walk running f_h
//     with h ≥ j: W adopts the owner's prefix through f_h and keeps its own
//     suffix from f_{h+1}.
//  3. Otherwise the OWNER walk is re-rooted onto W's prefix ("attach W1 to
//     W"): the conflicted VM switches from f_i to f_j, the owner's VMs for
//     f_{i+1}…f_j become pass-through, and the owner's old prefix is
//     abandoned (pruned later if unused).
//
// Whenever a precondition for safe surgery fails (a VM that would be
// disabled is shared by another walk, or W's own prefix is already
// entangled), the resolver falls back to re-routing W around all owned VMs,
// which preserves feasibility at a possible cost increase; tests verify the
// fallback stays rare and results stay feasible.
type resolver struct {
	f      *Forest
	oracle *chain.Oracle
	vms    []graph.NodeID
	walks  []*walkInfo
}

// walkInfo records one resolved walk living in the forest.
type walkInfo struct {
	source graph.NodeID
	// vnfClones[i] is the clone hosting f_{i+1}. Clones may be shared with
	// other walks (common prefixes).
	vnfClones []CloneID
	// last is the walk's final clone (the anchor for the tree part); its
	// real node is the walk's last VM.
	last CloneID
}

func newResolver(f *Forest, oracle *chain.Oracle, vms []graph.NodeID) *resolver {
	return &resolver{f: f, oracle: oracle, vms: vms}
}

// ownerWalk returns the walk whose VNF clone for index vnf lives on VM
// node, or nil.
func (r *resolver) ownerWalk(node graph.NodeID) *walkInfo {
	use, ok := r.f.owner[node]
	if !ok {
		return nil
	}
	for _, w := range r.walks {
		if use.vnf >= 1 && use.vnf <= len(w.vnfClones) && w.vnfClones[use.vnf-1] == use.clone {
			return w
		}
	}
	return nil
}

// sharedBeyond reports whether any walk other than w uses any of w's VNF
// clones for indices in [from, to] (1-based, inclusive).
func (r *resolver) sharedBeyond(w *walkInfo, from, to int) bool {
	for _, other := range r.walks {
		if other == w {
			continue
		}
		for idx := from; idx <= to; idx++ {
			if idx-1 < len(other.vnfClones) && idx-1 < len(w.vnfClones) &&
				other.vnfClones[idx-1] == w.vnfClones[idx-1] {
				return true
			}
		}
	}
	return false
}

// AddWalk resolves conflicts for candidate sc and installs it, returning
// the walk's final clone (anchor for the tree part).
func (r *resolver) AddWalk(sc *chain.ServiceChain) (CloneID, error) {
	for iter := 0; ; iter++ {
		if iter > 2*len(r.walks)+4 {
			// Procedure 4 terminates after at most one surgery per owner
			// walk; this guard catches implementation bugs.
			return NoClone, fmt.Errorf("core: conflict resolution did not converge for walk from %d", sc.Source)
		}
		// Backtrack W from the end: first VM with any owner.
		cIdx := -1
		for i := len(sc.VMs) - 1; i >= 0; i-- {
			if _, ok := r.f.owner[sc.VMs[i]]; ok {
				cIdx = i
				break
			}
		}
		if cIdx < 0 {
			return r.install(sc, nil, 0)
		}
		m := sc.VMs[cIdx]
		j := cIdx + 1 // W plans f_j at m
		use := r.f.owner[m]
		i := use.vnf
		wk := r.ownerWalk(m)
		if wk == nil {
			// Owned by something outside the resolver (e.g. a pre-existing
			// forest in dynamic scenarios): re-route around it.
			return r.reroute(sc)
		}
		if j <= i {
			// Case 1 (covers same-index sharing when j == i).
			return r.install(sc, wk, i)
		}
		// Case 2: some other VM of W owned by wk at index h ≥ j.
		h := -1
		for k := len(sc.VMs) - 1; k >= 0; k-- {
			v := sc.VMs[k]
			if v == m {
				continue
			}
			if u2, ok := r.f.owner[v]; ok && u2.vnf >= j && r.ownerWalk(v) == wk {
				if u2.vnf > h {
					h = u2.vnf
				}
			}
		}
		if h >= j {
			return r.install(sc, wk, h)
		}
		// Case 3: re-root wk onto W's prefix. Preconditions: W's prefix VMs
		// (f1…f_{j-1}) are unowned, and wk's clones for f_i…f_j are not
		// shared with other walks.
		safe := true
		for k := 0; k < cIdx; k++ {
			if _, ok := r.f.owner[sc.VMs[k]]; ok {
				safe = false
				break
			}
		}
		if safe && r.sharedBeyond(wk, i, min(j, len(wk.vnfClones))) {
			safe = false
		}
		if !safe {
			return r.reroute(sc)
		}
		if err := r.reroot(wk, sc, cIdx, i, j); err != nil {
			return NoClone, err
		}
		// After surgery m is owned with f_j (== W's plan), so the next
		// iteration resolves via case 1 sharing.
	}
}

// install adds sc to the forest. When prefix is non-nil, the walk shares
// prefix's clones through VNF index prefVNFs and continues with its own
// suffix from f_{prefVNFs+1}; the junction is bridged by the current
// shortest path (the paper's walk-shortening step).
func (r *resolver) install(sc *chain.ServiceChain, prefix *walkInfo, prefVNFs int) (CloneID, error) {
	if prefix == nil {
		// Follow sc's own walk in full.
		last, hosts, err := r.f.AttachChainWalk(sc)
		if err != nil {
			return NoClone, err
		}
		r.walks = append(r.walks, &walkInfo{source: sc.Source, vnfClones: hosts, last: last})
		return last, nil
	}
	if prefVNFs < 1 || prefVNFs > len(prefix.vnfClones) {
		return NoClone, fmt.Errorf("core: bad prefix attach at f%d", prefVNFs)
	}
	cur := prefix.vnfClones[prefVNFs-1]
	w := &walkInfo{source: r.f.clones[r.f.root(cur)].Node, vnfClones: slices.Clone(prefix.vnfClones[:prefVNFs])}
	// Bridge from the junction to the next VNF VM (or to the last VM when
	// the prefix already covers the whole chain), then follow sc's suffix.
	target, suffixFrom := sc.LastVM, len(sc.Nodes)-1
	if prefVNFs < len(sc.VMs) {
		target, suffixFrom = sc.VMs[prefVNFs], sc.VMPos[prefVNFs]
	}
	pathNodes, pathEdges, _, err := r.oracle.Path(r.f.clones[cur].Node, target)
	if err != nil {
		return NoClone, err
	}
	cur, _, _ = r.f.lay(cur, pathNodes, pathEdges, 0, nil, 0) // no VM positions, so no error
	if prefVNFs < len(sc.VMs) {
		if err := r.f.enable(cur, prefVNFs+1); err != nil {
			return NoClone, err
		}
		w.vnfClones = append(w.vnfClones, cur)
		var hosts []CloneID
		if cur, hosts, err = r.f.lay(cur, sc.Nodes, sc.Edges, suffixFrom, sc.VMPos[prefVNFs+1:], prefVNFs+2); err != nil {
			return NoClone, err
		}
		if w.vnfClones = append(w.vnfClones, hosts...); len(w.vnfClones) != len(sc.VMs) {
			return NoClone, fmt.Errorf("core: spliced walk enabled %d of %d VNFs", len(w.vnfClones), len(sc.VMs))
		}
	}
	w.last = cur
	r.walks = append(r.walks, w)
	return cur, nil
}

// reroot performs case-3 surgery: the owner walk wk is re-rooted onto sc's
// prefix through sc.VMs[cIdx] (which switches from f_i to f_j).
func (r *resolver) reroot(wk *walkInfo, sc *chain.ServiceChain, cIdx, i, j int) error {
	mClone := r.f.owner[sc.VMs[cIdx]].clone
	// Disable the conflicted VM and wk's now-redundant VMs f_{i+1}…f_j.
	r.f.disable(mClone)
	for idx := i + 1; idx <= j && idx-1 < len(wk.vnfClones); idx++ {
		r.f.disable(wk.vnfClones[idx-1])
	}
	// wk's old prefix VMs f_1…f_{i-1} are abandoned by the re-rooting;
	// disable the ones no other walk shares so pruning can reclaim them.
	for idx := 1; idx < i && idx-1 < len(wk.vnfClones); idx++ {
		if !r.sharedBeyond(wk, idx, idx) {
			r.f.disable(wk.vnfClones[idx-1])
		}
	}
	// Lay sc's prefix from a new root up to m's position, re-parent m's
	// clone onto it, and give it f_j.
	mPos := sc.VMPos[cIdx]
	newPrefix, err := r.f.splice(mClone, r.f.newRoot(sc.Source), sc.Nodes[:mPos+1], sc.Edges[:mPos], sc.VMPos[:cIdx], 1)
	if err != nil {
		return err
	}
	if len(newPrefix) != cIdx {
		return fmt.Errorf("core: reroot enabled %d of %d prefix VNFs", len(newPrefix), cIdx)
	}
	if err := r.f.enable(mClone, j); err != nil {
		return err
	}
	newPrefix = append(newPrefix, mClone)

	// wk's VNF clones become: new prefix (f1…f_j) + its own f_{j+1}….
	if j < len(wk.vnfClones) {
		newPrefix = append(newPrefix, wk.vnfClones[j:]...)
	}
	wk.vnfClones = newPrefix
	wk.source = sc.Source
	return nil
}

// reroute abandons Procedure 4 for sc and recomputes a fresh chain from
// sc's source to its last VM using only unowned VMs. If the original last
// VM itself is owned with a conflicting index, the chain targets a free VM
// and extends to the last VM by shortest path so the tree anchor is
// preserved.
func (r *resolver) reroute(sc *chain.ServiceChain) (CloneID, error) {
	free := r.f.free(r.vms)
	chainLen := len(sc.VMs)
	if len(free) < chainLen {
		return r.lastResort(sc)
	}
	target := sc.LastVM
	if _, owned := r.f.owner[target]; !owned {
		fresh, err := r.oracle.Chain(free, sc.Source, target, chainLen)
		if err != nil {
			return r.lastResort(sc)
		}
		return r.install(fresh, nil, 0)
	}
	// Last VM is owned: route to the best free VM, then extend to the
	// original anchor node by shortest path.
	var best *chain.ServiceChain
	bestCost := 0.0
	for _, u := range free {
		fresh, err := r.oracle.Chain(free, sc.Source, u, chainLen)
		if err != nil {
			continue
		}
		_, _, d, err := r.oracle.Path(u, target)
		if err != nil {
			continue
		}
		if best == nil || fresh.TotalCost()+d < bestCost {
			best = fresh
			bestCost = fresh.TotalCost() + d
		}
	}
	if best == nil {
		return r.lastResort(sc)
	}
	last, err := r.install(best, nil, 0)
	if err != nil {
		return NoClone, err
	}
	// Extend pass-through to the anchor node.
	pathNodes, pathEdges, _, err := r.oracle.Path(best.LastVM, target)
	if err != nil {
		return NoClone, err
	}
	cur, _, _ := r.f.lay(last, pathNodes, pathEdges, 0, nil, 0) // no VM positions, so no error
	r.walks[len(r.walks)-1].last = cur
	return cur, nil
}

// lastResort merges sc's subtree into the existing walk whose completed
// chain is closest to sc's anchor: the new walk shares the full chain of
// that walk and bridges to sc's last VM by shortest path. Always feasible
// once any walk exists; it trades optimality for robustness when VMs are
// exhausted.
func (r *resolver) lastResort(sc *chain.ServiceChain) (CloneID, error) {
	chainLen := len(sc.VMs)
	var best *walkInfo
	bestDist := 0.0
	for _, w := range r.walks {
		if len(w.vnfClones) < chainLen {
			continue
		}
		from := r.f.clones[w.vnfClones[chainLen-1]].Node
		_, _, d, err := r.oracle.Path(from, sc.LastVM)
		if err != nil {
			continue
		}
		if best == nil || d < bestDist {
			best = w
			bestDist = d
		}
	}
	if best == nil {
		return NoClone, fmt.Errorf("core: no feasible resolution for walk %d→%d (no free VMs, no mergeable walk)",
			sc.Source, sc.LastVM)
	}
	return r.install(sc, best, chainLen)
}
