package graph

import (
	"math"
	"slices"
	"sync"
)

// Tree repair across cost epochs, after Ramalingam and Reps ("An
// incremental algorithm for a generalization of the shortest-path
// problem", J. Algorithms 21(2), 1996). A cost epoch bump usually changes
// a handful of edges, yet it makes every cached tree stale. RepairTree
// brings such a tree up to date instead of rebuilding it: it settles
// again only the subtrees the changes broke, and it returns exactly the
// tree a full run would build.
//
// Why the result is bit-identical. On a layout with a bucket width, which
// has no zero-cost or absorbed arc (see pick), delta-stepping's commit
// rule makes the tree a function of the distance vector: v's parent is the
// tight arc (u, v), Dist[u] + c == Dist[v], whose tail minimizes
// (Dist[u], u), and among parallel arcs the first one delta relaxes (see
// delta.go's header and deltaRun.tieBreak). Rounding is monotone and every
// arc adds a cost the sum does not absorb, so the fixpoint d(v) = min over
// u of fl(d(u) + c) is unique: any Dijkstra that starts from exact upper
// bounds reaches the distances a full run computes. A node outside the
// invalidated subtrees keeps an intact tree path, every arc of which still
// reproduces its child's distance, so its old distance is such a bound.
// Re-deriving the parent of every node whose distance, candidate arcs or
// neighbours' distances may have changed then yields the full run's
// parents.
//
// The bounds below are fractions of the node count n. Past them a repair
// costs about what it saves (long intervals with repetitive changes, or
// change sets that move most of the tree), so it gives way to a full run.

// RepairTree's bounds, as divisors of the node count (see repairLimit).
const (
	// repairGapDiv bounds the epochs a repair may span; the change log
	// holds exactly that many bumps.
	repairGapDiv = 8
	// repairChangesDiv bounds the distinct edges and nodes that changed.
	repairChangesDiv = 32
	// repairWorkDiv bounds the nodes invalidated plus the nodes popped.
	repairWorkDiv = 4
)

// repairLimit is n/div plus one, so a graph of any size may repair a
// single change.
func repairLimit(n, div int) int { return n/div + 1 }

// treeStamp records which layout built a tree. g is nil unless
// delta-stepping or a repair built the tree, on a layout of g with a
// bucket width; epoch and edges are that layout's. Only a stamped tree
// can be a base.
type treeStamp struct {
	g     *Graph
	epoch uint64
	edges int
}

// changeKind says what one cost-epoch bump changed.
type changeKind uint8

const (
	// changeEdge: an edge's cost changed, or the edge was failed,
	// restored, masked or unmasked.
	changeEdge changeKind = iota
	// changeNode: a node was failed, restored, masked or unmasked.
	changeNode
	// changeNodeCost: a node's setup cost changed. Trees exclude node
	// costs, so it changes no tree.
	changeNodeCost
	// changeUnknown: the bump does not say what changed (BumpCostEpoch,
	// RestoreAll, UnmaskAll), so only a full run is exact.
	changeUnknown
)

// change is one logged epoch bump.
type change struct {
	epoch uint64
	id    int32
	kind  changeKind
}

// changeLog is a ring of the latest epoch bumps, in epoch order from
// head once it is full. It holds repairLimit(n, repairGapDiv) bumps,
// the longest interval a repair accepts; floor is the epoch of the newest
// bump it has dropped, so it holds every bump after floor.
type changeLog struct {
	mu    sync.Mutex
	ring  []change
	head  int
	floor uint64
}

// bump advances the cost epoch and logs what changed, under the log's
// lock so that the log lists the bumps in epoch order. id is the edge or
// node, or -1 for an unknown change.
func (g *Graph) bump(kind changeKind, id int) {
	l := &g.log
	l.mu.Lock()
	defer l.mu.Unlock()
	c := change{epoch: g.epoch.Add(1), id: int32(id), kind: kind}
	if len(l.ring) < repairLimit(len(g.nodes), repairGapDiv) {
		if l.head > 0 {
			// The graph grew after the ring filled: straighten it first.
			l.ring = append(slices.Clone(l.ring[l.head:]), l.ring[:l.head]...)
			l.head = 0
		}
		l.ring = append(l.ring, c)
		return
	}
	l.floor = l.ring[l.head].epoch
	l.ring[l.head] = c
	l.head = (l.head + 1) % len(l.ring)
}

// since appends to edges and nodes the ids the bumps in (from, to]
// changed. covered is false when the log no longer holds all of them;
// known is false when one of them is an unknown change.
func (l *changeLog) since(from, to uint64, edges, nodes []int32) (_, _ []int32, covered, known bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.floor {
		return edges, nodes, false, false
	}
	known = true
	k := len(l.ring)
	for i := 1; i <= k; i++ {
		c := l.ring[(l.head+k-i)%k] // newest first
		if c.epoch <= from {
			break
		}
		if c.epoch > to {
			continue
		}
		switch c.kind {
		case changeEdge:
			edges = append(edges, c.id)
		case changeNode:
			nodes = append(nodes, c.id)
		case changeUnknown:
			known = false
		}
	}
	return edges, nodes, true, known
}

// repairScratch is RepairTree's part of an Arena: the changed elements
// of the interval, the invalidated nodes and the popped ones.
type repairScratch struct {
	edges, nodes []int32
	inv, popped  []int32
}

// RepairTree is Arena.RepairTree with a pooled arena.
func RepairTree(g *Graph, base *ShortestPaths) *ShortestPaths {
	a := arenaPool.Get().(*Arena)
	defer arenaPool.Put(a)
	return a.RepairTree(g, base)
}

// RepairTree returns the tree a full run from base.Source over g's
// current state would build, derived from base, an earlier tree over g.
// It returns base itself when nothing the tree depends on has changed,
// a new tree when it could repair base, and nil when only a full run can
// build the tree. A returned tree is bit for bit the full run's: Dist and
// ParentEdge, the two arrays a repair copies from base and patches.
//
// It returns nil unless all of these hold: g's costs admit a bucket width,
// which a zero-cost or absorbed arc rules out (see pick); delta-stepping
// or a repair built base on such a layout of g, with g's current node and
// edge counts; base is at most n/8 epochs old and g's change log still
// holds every bump since. base is carried when its origin was blocked and
// still is, or when only node costs changed. Otherwise the interval must
// change at most n/32 distinct edges and nodes, hold no change of unknown
// kind, leave the origin's block state alone, and invalidate plus settle
// again at most n/4 nodes. Each bound is one more than the fraction of n
// (repairLimit).
func (a *Arena) RepairTree(g *Graph, base *ShortestPaths) *ShortestPaths {
	n := len(g.nodes)
	lay := pick(g)
	st := base.built
	if lay == nil || st.g != g || st.edges != lay.edges || len(base.Dist) != n ||
		st.epoch > lay.epoch || lay.epoch-st.epoch > uint64(repairLimit(n, repairGapDiv)) {
		return nil
	}
	rs := &a.rs
	edges, nodes, covered, known := g.log.since(st.epoch, lay.epoch, rs.edges[:0], rs.nodes[:0])
	rs.edges, rs.nodes = edges, nodes
	if !covered {
		return nil
	}
	fs := g.block.blocked.Load()
	src := base.Source
	wasBlocked, isBlocked := math.IsInf(base.Dist[src], 1), fs.NodeFailed(src)
	if wasBlocked && isBlocked {
		return base
	}
	if !known || wasBlocked || isBlocked {
		return nil
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	if len(edges) == 0 && len(nodes) == 0 {
		return base
	}
	if len(edges)+len(nodes) > repairLimit(n, repairChangesDiv) {
		return nil
	}
	return a.repair(g, lay, fs, base, edges, nodes)
}

// repair runs the repair proper; see RepairTree. It returns nil when the
// work bound is hit.
func (a *Arena) repair(g *Graph, lay *deltaLayout, fs *FailState, base *ShortestPaths, edges, nodes []int32) *ShortestPaths {
	n := len(base.Dist)
	limit := repairLimit(n, repairWorkDiv)
	a.ensure(n)
	a.gen++
	gen, invalid := a.gen, a.done
	rs := &a.rs
	inv := rs.inv[:0]
	defer func() { rs.inv = inv }()

	// 1. Roots: the child end of a tree arc on a changed edge whose cost
	// no longer reproduces the child's distance, or whose edge or
	// endpoint is now blocked; and every newly blocked reachable node.
	root := func(v NodeID) {
		if invalid[v] != gen {
			invalid[v] = gen
			inv = append(inv, int32(v))
		}
	}
	for _, id := range edges {
		e := g.edges[id]
		blocked := fs.EdgeFailed(EdgeID(id)) || fs.NodeFailed(e.U) || fs.NodeFailed(e.V)
		for _, child := range [2]NodeID{e.U, e.V} {
			if base.ParentEdge[child] == EdgeID(id) &&
				(blocked || base.Dist[e.Other(child)]+e.Cost != base.Dist[child]) {
				root(child)
			}
		}
	}
	for _, v := range nodes {
		if fs.NodeFailed(NodeID(v)) && !math.IsInf(base.Dist[v], 1) {
			root(NodeID(v))
		}
	}

	// 2. Expand each root to its subtree. The walk reads every arc, not
	// the layout's: the base tree may run over arcs now blocked.
	c := g.csr()
	for i := 0; i < len(inv); i++ {
		if len(inv) > limit {
			return nil
		}
		y := inv[i]
		for _, arc := range c.arcs[c.row[y]:c.row[y+1]] {
			if w := arc.To; base.ParentEdge[w] == arc.Edge && invalid[w] != gen {
				invalid[w] = gen
				inv = append(inv, int32(w))
			}
		}
	}
	if len(inv) > limit {
		return nil
	}

	// 3. Reset the subtrees on a copy of base, then seed: each reset node
	// and each changed, unblocked node from its valid neighbours, and the
	// head of each changed arc that now gives a shorter distance. Every
	// seed is the length of a real path, so an upper bound.
	inf := math.Inf(1)
	dist := append([]float64(nil), base.Dist...)
	pedge := append([]EdgeID(nil), base.ParentEdge...)
	for _, v := range inv {
		dist[v], pedge[v] = inf, NoEdge
	}
	h := &a.h
	seed := func(v int32) {
		best := cheapest(lay.lrow, lay.lto, lay.lcost, dist, invalid, gen, v, dist[v])
		best = cheapest(lay.hrow, lay.hto, lay.hcost, dist, invalid, gen, v, best)
		if best < dist[v] {
			dist[v] = best
			h.Update(v, best)
		}
	}
	for _, v := range inv {
		seed(v)
	}
	for _, v := range nodes {
		if !fs.NodeFailed(NodeID(v)) {
			seed(v)
		}
	}
	for _, id := range edges {
		e := g.edges[id]
		if fs.EdgeFailed(EdgeID(id)) || fs.NodeFailed(e.U) || fs.NodeFailed(e.V) {
			continue
		}
		for _, p := range [2]NodeID{e.U, e.V} {
			q := e.Other(p)
			if nd := dist[p] + e.Cost; nd < dist[q] {
				dist[q] = nd
				h.Update(int32(q), nd)
			}
		}
	}

	// 4. Dijkstra from the seeds over the layout's arcs.
	popped := rs.popped[:0]
	defer func() { rs.popped = popped }()
	for h.Len() > 0 {
		u, du := h.Pop()
		popped = append(popped, u)
		if len(inv)+len(popped) > limit {
			h.Reset()
			return nil
		}
		relaxFrom(lay.lrow, lay.lto, lay.lcost, dist, h, u, du)
		relaxFrom(lay.hrow, lay.hto, lay.hcost, dist, h, u, du)
	}

	// 5. Re-derive the parent of every popped node, every neighbour of a
	// popped node, and the endpoints of every changed element. Any other
	// node kept its distance, its arcs and its neighbours' distances, so
	// it keeps its parent. Reset nodes that were never popped stay
	// unreachable, with the parent the reset gave them.
	fixed := a.tgt
	derive := func(v int32) {
		if fixed[v] == gen || NodeID(v) == base.Source {
			return
		}
		fixed[v] = gen
		deriveParent(lay, dist, pedge, v)
	}
	for _, u := range popped {
		derive(u)
		for _, w := range lay.lto[lay.lrow[u]:lay.lrow[u+1]] {
			derive(w)
		}
		for _, w := range lay.hto[lay.hrow[u]:lay.hrow[u+1]] {
			derive(w)
		}
	}
	for _, id := range edges {
		e := g.edges[id]
		derive(int32(e.U))
		derive(int32(e.V))
	}
	for _, v := range nodes {
		derive(v)
	}
	return &ShortestPaths{
		Source:     base.Source,
		Dist:       dist,
		ParentEdge: pedge,
		built:      treeStamp{g: g, epoch: lay.epoch, edges: lay.edges},
	}
}

// cheapest returns the smaller of best and the cheapest distance v's
// arcs row[v]:row[v+1] offer from tails not stamped invalid in gen.
func cheapest(row, to []int32, cost, dist []float64, invalid []uint64, gen uint64, v int32, best float64) float64 {
	for i := row[v]; i < row[v+1]; i++ {
		if u := to[i]; invalid[u] != gen {
			best = min(best, dist[u]+cost[i])
		}
	}
	return best
}

// relaxFrom relaxes u's arcs row[u]:row[u+1] at u's settled distance du,
// queueing every head it improves.
func relaxFrom(row, to []int32, cost, dist []float64, h *IndexedHeap, u int32, du float64) {
	for i := row[u]; i < row[u+1]; i++ {
		if w, nd := to[i], du+cost[i]; nd < dist[w] {
			dist[w] = nd
			h.Update(w, nd)
		}
	}
}

// deriveParent sets v's parent edge to the one delta-stepping commits:
// the tight arc (u, v) whose tail minimizes (dist[u], u). Among parallel
// arcs the first one in layout order wins, light arcs before heavy ones,
// which is the order deltaRun.relax commits them in. An unreachable node
// gets NoEdge.
func deriveParent(lay *deltaLayout, dist []float64, pedge []EdgeID, v int32) {
	bu, be := int32(-1), int32(NoEdge)
	if d := dist[v]; !math.IsInf(d, 1) {
		bu, be = tightest(lay.lrow, lay.lto, lay.leid, lay.lcost, dist, v, d, bu, be)
		_, be = tightest(lay.hrow, lay.hto, lay.heid, lay.hcost, dist, v, d, bu, be)
	}
	pedge[v] = EdgeID(be)
}

// tightest scans v's arcs row[v]:row[v+1] for tight arcs, dist[u] +
// cost == d, and returns the best of them and (bu, be) by the key
// (dist[u], u); bu < 0 means none yet. Ties keep the earlier arc.
func tightest(row, to, eid []int32, cost, dist []float64, v int32, d float64, bu, be int32) (int32, int32) {
	for i := row[v]; i < row[v+1]; i++ {
		u := to[i]
		du := dist[u]
		if du+cost[i] != d {
			continue
		}
		if bu < 0 || du < dist[bu] || (du == dist[bu] && u < bu) {
			bu, be = u, eid[i]
		}
	}
	return bu, be
}
