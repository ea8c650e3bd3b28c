package graph

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Failure and saturation state: links and nodes can be marked failed or
// capacity-masked without structural deletion. Both kinds of mark remove
// the element from every shortest-path traversal (it effectively costs
// +Inf), so forests embedded afterwards never cross it, while clearing a
// mark is O(1) — no adjacency rebuild in either direction. Every
// transition advances the cost epoch: a failure or mask changes the
// effective cost surface exactly like a SetEdgeCost, so epoch-keyed
// caches (oracle trees, solved chains) go stale lazily and the next query
// re-routes around the element.
//
// The two layers differ only in meaning, which is why they share the
// FailState representation: a *failed* element is damaged — forests
// crossing it are broken and repair sweeps try to route around it — while
// a *masked* element is merely full (a capacitated session saturated it),
// so forests already on it keep working and only new embeds avoid it.
// Traversals consult the union (Blocked); damage detection consults only
// the failures.
//
// Snapshots are copy-on-write: readers load one immutable *FailState per
// traversal and never observe a half-applied transition, which is what
// lets repair sweeps run concurrently with live embeds under the race
// detector.

// FailState is an immutable snapshot of the failed elements of a Graph.
// The zero/nil state means nothing has failed.
type FailState struct {
	// Edges and Nodes are failure bitsets indexed by id (bit id%64 of
	// word id/64). They are exported for the traversal hot loops and for
	// read-only consumers (damage detection, blast-radius reporting);
	// mutate failure state only through Graph.FailEdge/FailNode/
	// RestoreEdge/RestoreNode — the sofvet epochsafe pass flags direct
	// writes outside package graph, which would bypass the cost epoch.
	Edges []uint64
	Nodes []uint64
}

// bitGet reports bit i of bits, treating out-of-range as unset.
func bitGet(bits []uint64, i int) bool {
	w := i >> 6
	return w < len(bits) && bits[w]&(1<<(uint(i)&63)) != 0
}

// EdgeFailed reports whether edge id is failed. A nil receiver (no
// failures ever) reports false.
func (s *FailState) EdgeFailed(id EdgeID) bool {
	return s != nil && bitGet(s.Edges, int(id))
}

// NodeFailed reports whether node id is failed. A nil receiver reports
// false.
func (s *FailState) NodeFailed(id NodeID) bool {
	return s != nil && bitGet(s.Nodes, int(id))
}

// Counts returns the number of failed edges and nodes.
func (s *FailState) Counts() (edges, nodes int) {
	if s == nil {
		return 0, 0
	}
	for _, w := range s.Edges {
		edges += bits.OnesCount64(w)
	}
	for _, w := range s.Nodes {
		nodes += bits.OnesCount64(w)
	}
	return edges, nodes
}

// FailedEdges lists the failed edge ids in ascending order.
func (s *FailState) FailedEdges() []EdgeID {
	if s == nil {
		return nil
	}
	var out []EdgeID
	for w, word := range s.Edges {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, EdgeID(w*64+b))
			word &^= 1 << uint(b)
		}
	}
	return out
}

// FailedNodes lists the failed node ids in ascending order.
func (s *FailState) FailedNodes() []NodeID {
	if s == nil {
		return nil
	}
	var out []NodeID
	for w, word := range s.Nodes {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, NodeID(w*64+b))
			word &^= 1 << uint(b)
		}
	}
	return out
}

// failStore is the mutable half of the copy-on-write scheme: writers
// serialize on the graph-level block mutex, build a fresh snapshot, and
// publish it atomically. Two stores exist per graph — failures and
// capacity masks — and every transition of either republishes the union
// snapshot traversals read.
type failStore struct {
	snap atomic.Pointer[FailState]
}

// blockState bundles the two mark layers and their precomputed union.
// blockMu serializes every writer of either layer, so the union snapshot
// can never be published out of order with the layer it was derived from.
type blockState struct {
	mu      sync.Mutex
	fail    failStore
	mask    failStore
	blocked atomic.Pointer[FailState]
}

// Failures returns the current failure snapshot, nil when nothing is
// failed. The snapshot is immutable and safe to read concurrently with
// later Fail/Restore calls (which publish fresh snapshots).
func (g *Graph) Failures() *FailState { return g.block.fail.snap.Load() }

// Masked returns the current capacity-mask snapshot, nil when nothing is
// masked. Same immutability contract as Failures.
func (g *Graph) Masked() *FailState { return g.block.mask.snap.Load() }

// Blocked returns the union of the failure and mask snapshots — the set of
// elements no traversal may use — nil when the graph is fully open. This
// is the snapshot every shortest-path loop and VM-placement filter reads;
// damage detection reads Failures instead, because a masked (merely full)
// element does not break the forests already crossing it.
func (g *Graph) Blocked() *FailState { return g.block.blocked.Load() }

// EdgeFailed reports whether edge id is currently failed.
func (g *Graph) EdgeFailed(id EdgeID) bool { return g.block.fail.snap.Load().EdgeFailed(id) }

// NodeFailed reports whether node id is currently failed.
func (g *Graph) NodeFailed(id NodeID) bool { return g.block.fail.snap.Load().NodeFailed(id) }

// EdgeMasked reports whether edge id is currently capacity-masked.
func (g *Graph) EdgeMasked(id EdgeID) bool { return g.block.mask.snap.Load().EdgeFailed(id) }

// NodeMasked reports whether node id is currently capacity-masked.
func (g *Graph) NodeMasked(id NodeID) bool { return g.block.mask.snap.Load().NodeFailed(id) }

// EdgeBlocked reports whether edge id is failed or masked.
func (g *Graph) EdgeBlocked(id EdgeID) bool { return g.block.blocked.Load().EdgeFailed(id) }

// NodeBlocked reports whether node id is failed or masked.
func (g *Graph) NodeBlocked(id NodeID) bool { return g.block.blocked.Load().NodeFailed(id) }

// unionBits returns the word-wise union of two bitsets (aliasing the
// longer one when the other is empty).
func unionBits(a, b []uint64) []uint64 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	long, short := a, b
	if len(long) < len(short) {
		long, short = short, long
	}
	out := make([]uint64, len(long))
	copy(out, long)
	for i, w := range short {
		out[i] |= w
	}
	return out
}

// republishBlocked recomputes the union snapshot. Callers hold block.mu.
func (g *Graph) republishBlocked() {
	f, m := g.block.fail.snap.Load(), g.block.mask.snap.Load()
	switch {
	case f == nil && m == nil:
		g.block.blocked.Store(nil)
	case m == nil:
		g.block.blocked.Store(f)
	case f == nil:
		g.block.blocked.Store(m)
	default:
		g.block.blocked.Store(&FailState{
			Edges: unionBits(f.Edges, m.Edges),
			Nodes: unionBits(f.Nodes, m.Nodes),
		})
	}
}

// setMarkBit publishes a snapshot of the chosen store with bit i of the
// chosen bitset set to val, reporting whether the state actually changed.
// Only actual changes republish the union and advance the cost epoch,
// mirroring SetEdgeCost's no-op discipline.
func (g *Graph) setMarkBit(store *failStore, edge bool, i, size int, val bool) bool {
	g.block.mu.Lock()
	defer g.block.mu.Unlock()
	old := store.snap.Load()
	var cur []uint64
	if old != nil {
		if edge {
			cur = old.Edges
		} else {
			cur = old.Nodes
		}
	}
	if bitGet(cur, i) == val {
		return false
	}
	words := (size + 63) / 64
	next := make([]uint64, words)
	copy(next, cur)
	if val {
		next[i>>6] |= 1 << (uint(i) & 63)
	} else {
		next[i>>6] &^= 1 << (uint(i) & 63)
	}
	ns := &FailState{}
	if old != nil {
		ns.Edges, ns.Nodes = old.Edges, old.Nodes
	}
	if edge {
		ns.Edges = next
	} else {
		ns.Nodes = next
	}
	store.snap.Store(ns)
	g.republishBlocked()
	if edge {
		g.bump(changeEdge, i)
	} else {
		g.bump(changeNode, i)
	}
	return true
}

// FailEdge marks edge id failed: every traversal from now on routes around
// it. It reports whether the state changed (failing an already-failed edge
// is a no-op that keeps caches warm). The cost epoch advances on change.
func (g *Graph) FailEdge(id EdgeID) bool {
	if !g.ValidEdge(id) {
		return false
	}
	return g.setMarkBit(&g.block.fail, true, int(id), len(g.edges), true)
}

// FailNode marks node id failed: traversals neither enter nor leave it,
// and a failed VM hosts no new VNFs. Reports whether the state changed.
func (g *Graph) FailNode(id NodeID) bool {
	if !g.Valid(id) {
		return false
	}
	return g.setMarkBit(&g.block.fail, false, int(id), len(g.nodes), true)
}

// RestoreEdge clears the failure mark on edge id — O(1) beyond the
// snapshot copy; no structure was deleted, so nothing is rebuilt. Reports
// whether the state changed.
func (g *Graph) RestoreEdge(id EdgeID) bool {
	if !g.ValidEdge(id) {
		return false
	}
	return g.setMarkBit(&g.block.fail, true, int(id), len(g.edges), false)
}

// RestoreNode clears the failure mark on node id.
func (g *Graph) RestoreNode(id NodeID) bool {
	if !g.Valid(id) {
		return false
	}
	return g.setMarkBit(&g.block.fail, false, int(id), len(g.nodes), false)
}

// MaskEdge marks edge id capacity-saturated: traversals route around it
// exactly as around a failed edge, but forests already crossing it are
// not considered damaged — the link is full, not broken. Capacitated
// Solver sessions mask a link the moment one more request's demand would
// not fit, which is how enforcement reaches the oracle's cost view.
// Reports whether the state changed; the cost epoch advances on change.
func (g *Graph) MaskEdge(id EdgeID) bool {
	if !g.ValidEdge(id) {
		return false
	}
	return g.setMarkBit(&g.block.mask, true, int(id), len(g.edges), true)
}

// MaskNode marks node id capacity-saturated: no traversal enters it and
// no new VNF is placed on it, while the VNFs it already hosts keep
// serving. Reports whether the state changed.
func (g *Graph) MaskNode(id NodeID) bool {
	if !g.Valid(id) {
		return false
	}
	return g.setMarkBit(&g.block.mask, false, int(id), len(g.nodes), true)
}

// UnmaskEdge clears the saturation mark on edge id (a departure freed
// capacity). Reports whether the state changed.
func (g *Graph) UnmaskEdge(id EdgeID) bool {
	if !g.ValidEdge(id) {
		return false
	}
	return g.setMarkBit(&g.block.mask, true, int(id), len(g.edges), false)
}

// UnmaskNode clears the saturation mark on node id.
func (g *Graph) UnmaskNode(id NodeID) bool {
	if !g.Valid(id) {
		return false
	}
	return g.setMarkBit(&g.block.mask, false, int(id), len(g.nodes), false)
}

// RestoreAll clears every failure mark, returning how many edges and nodes
// were restored. Capacity masks are untouched — restoring a failed link
// does not create headroom on a saturated one. The epoch advances once
// when anything changed.
func (g *Graph) RestoreAll() (edges, nodes int) {
	g.block.mu.Lock()
	defer g.block.mu.Unlock()
	old := g.block.fail.snap.Load()
	edges, nodes = old.Counts()
	if edges == 0 && nodes == 0 {
		return 0, 0
	}
	g.block.fail.snap.Store(nil)
	g.republishBlocked()
	g.bump(changeUnknown, -1)
	return edges, nodes
}

// UnmaskAll clears every capacity mask at once (a capacitated session
// resetting its load state), returning how many edges and nodes were
// unmasked. Failure marks are untouched.
func (g *Graph) UnmaskAll() (edges, nodes int) {
	g.block.mu.Lock()
	defer g.block.mu.Unlock()
	old := g.block.mask.snap.Load()
	edges, nodes = old.Counts()
	if edges == 0 && nodes == 0 {
		return 0, 0
	}
	g.block.mask.snap.Store(nil)
	g.republishBlocked()
	g.bump(changeUnknown, -1)
	return edges, nodes
}
