package graph

import (
	"math"
	"slices"
)

// Delta-stepping SSSP (Meyer & Sanders): distances advance bucket by
// bucket (bucket width Δ), light edges (cost ≤ Δ) are relaxed to a
// fixpoint inside the current bucket, heavy edges (cost > Δ) once per
// settled node when the bucket drains. Queued entries are lazy — a node
// is pushed again on every improvement and stale duplicates are skipped
// at drain time — so a relaxation is one compare plus an append, with no
// decrease-key bookkeeping at all.
//
// Every run over a graph takes this variant whenever the graph's costs
// admit a bucket width (see pick); the indexed heap runs only without a
// width, for overlay runs, and as the reference (Arena.DijkstraHeap).
// The heap pays O(log n) sift work per settle, while a bucket here is
// drained wholesale. The arc partition is precomputed per cost epoch with
// the edge costs inlined (deltaLayout), so the inner loop runs over three
// contiguous arrays instead of chasing Edge records — that locality, not
// the asymptotics, is most of the win, and it holds from 50-node graphs
// to 10k-node ones.
//
// Settled trees are bit-identical to the IndexedHeap Dijkstra. Distances
// are exact by the standard delta-stepping argument (every node is
// relaxed at its final distance before its bucket closes). Parents need
// one more rule: sequential Dijkstra records, for each node v, the first
// relaxation that reaches v's final distance, and relaxations happen in
// settle order. On graphs with strictly positive edge costs every node
// sharing a final distance is already queued at that distance before the
// first of them settles, so the settle order is plain (dist, id) — and
// the recorded parent is exactly the neighbour u minimizing (Dist[u], u)
// among those with Dist[u] + cost(u,v) = Dist[v], through u's first
// achieving arc in CSR order. The relaxation commit below reproduces
// that directly: a strict improvement takes the new parent, an exact tie
// replaces the recorded parent only when the candidate's (dist, id) key
// is strictly smaller. Intermediate commits made from not-yet-final
// distances are always overwritten later (a stale relaxation can never
// tie a final distance: its value is strictly larger), so the fixpoint
// tree equals the heap's. Zero-cost arcs break the plain settle order (a
// node can reach its final distance only after another node at that
// distance settles), and so does a positive cost small enough to vanish
// in the sum (D + c == D, an absorbed cost). A graph with either arc gets
// no bucket width (see buildDeltaLayout), so the heap runs on it.

// deltaLayout is the per-cost-epoch arc partition: node u's light arcs
// occupy lto/leid/lcost[lrow[u]:lrow[u+1]] and its heavy arcs the hrow
// mirror, both preserving CSR (= edge-id) order, with each arc's cost
// copied inline. Arcs whose edge or endpoint is blocked (failed or
// capacity-masked) are dropped at build time: every block transition
// advances the cost epoch, so the epoch key covers them exactly like a
// cost change.
type deltaLayout struct {
	epoch        uint64
	nodes, edges int
	// delta is the bucket width; light arcs have cost ≤ delta. It is 0
	// when the graph has no usable width (all costs zero, some cost +Inf,
	// or a kept arc that costs 0 or that a distance absorbs; see
	// buildDeltaLayout), and then the heap runs and no run reads the arcs.
	delta float64
	lrow  []int32
	lto   []int32
	leid  []int32
	lcost []float64
	hrow  []int32
	hto   []int32
	heid  []int32
	hcost []float64
}

// deltaBucketCount is the fixed calendar size of the delta-stepping
// run; the calendar is circular, and the width floor in deltaWidth keeps
// the active key window under one lap.
const deltaBucketCount = 1024

// deltaWidth picks the bucket width for a graph with the given maximum
// and mean edge cost. A narrow width (an eighth of the mean cost —
// tuned on 10k-node Inet-style graphs, where it beats meanC/2 by ~20%)
// keeps the light partition tiny, so most arcs are relaxed exactly once
// in the heavy pass and the per-bucket light fixpoint rarely iterates.
// The floor maxC/(nb-2) is the circular-window invariant — every
// in-flight key lies within maxC of the current bucket's base (heavy
// relaxations reach at most maxC ahead), so the active window must span
// at most nb-1 buckets.
func deltaWidth(maxC, meanC float64) float64 {
	w := meanC / 8
	if floor := maxC / float64(deltaBucketCount-2); w < floor {
		w = floor
	}
	return w
}

// deltaLayoutFor returns the current light/heavy partition, building it
// on first use and after any cost-epoch advance (cost mutation, failure
// or mask transition, explicit bump). Concurrent readers are safe;
// deltaMu serializes rebuilds so one epoch's partition is built once.
func (g *Graph) deltaLayoutFor() *deltaLayout {
	epoch := g.epoch.Load()
	if d := g.deltaCache.Load(); d != nil && d.epoch == epoch && d.nodes == len(g.nodes) && d.edges == len(g.edges) {
		return d
	}
	g.deltaMu.Lock()
	defer g.deltaMu.Unlock()
	// Re-read the epoch under the lock: a mutation that landed while we
	// waited must yield a partition stamped with the epoch its costs were
	// actually read at, not the one observed before the lock.
	epoch = g.epoch.Load()
	if d := g.deltaCache.Load(); d != nil && d.epoch == epoch && d.nodes == len(g.nodes) && d.edges == len(g.edges) {
		return d
	}
	d := g.buildDeltaLayout(epoch)
	g.deltaCache.Store(d)
	return d
}

// buildDeltaLayout partitions the CSR arcs at the given epoch. Callers
// hold deltaMu.
func (g *Graph) buildDeltaLayout(epoch uint64) *deltaLayout {
	c := g.csr()
	n := len(g.nodes)
	fs := g.block.blocked.Load()
	maxC, sum := 0.0, 0.0
	for i := range g.edges {
		cost := g.edges[i].Cost
		if cost > maxC {
			maxC = cost
		}
		sum += cost
	}
	d := &deltaLayout{
		epoch: epoch,
		nodes: n,
		edges: len(g.edges),
		lrow:  make([]int32, n+1),
		hrow:  make([]int32, n+1),
	}
	if maxC <= 0 || math.IsInf(maxC, 1) {
		// No usable width: an all-zero graph has none, and one +Inf cost
		// would make it +Inf. delta stays 0, which sends pick to the heap.
		return d
	}
	d.delta = deltaWidth(maxC, sum/float64(len(g.edges)))
	// Every distance is a sum of distinct edge costs, so twice the total
	// (margin for summation order) bounds them all.
	bound, minCost := 2*sum, math.Inf(1)
	// Count, then fill: two passes keep the arc arrays exactly sized and
	// CSR-ordered within each partition.
	var nl, nh int32
	for u := 0; u < n; u++ {
		d.lrow[u], d.hrow[u] = nl, nh
		if fs.NodeFailed(NodeID(u)) {
			continue
		}
		for _, arc := range c.arcs[c.row[u]:c.row[u+1]] {
			if fs != nil && (fs.EdgeFailed(arc.Edge) || fs.NodeFailed(arc.To)) {
				continue
			}
			cost := g.edges[arc.Edge].Cost
			minCost = min(minCost, cost)
			if cost <= d.delta {
				nl++
			} else {
				nh++
			}
		}
	}
	if absorbs(bound, minCost) {
		// A kept arc costs 0, or vanishes when added to a distance (see
		// absorbs). Either breaks the plain (dist, id) settle order the
		// commit rule reproduces (see the header), so the layout gets no
		// width and the heap runs.
		d.delta = 0
		return d
	}
	d.lrow[n], d.hrow[n] = nl, nh
	d.lto = make([]int32, nl)
	d.leid = make([]int32, nl)
	d.lcost = make([]float64, nl)
	d.hto = make([]int32, nh)
	d.heid = make([]int32, nh)
	d.hcost = make([]float64, nh)
	nl, nh = 0, 0
	for u := 0; u < n; u++ {
		if fs.NodeFailed(NodeID(u)) {
			continue
		}
		for _, arc := range c.arcs[c.row[u]:c.row[u+1]] {
			if fs != nil && (fs.EdgeFailed(arc.Edge) || fs.NodeFailed(arc.To)) {
				continue
			}
			to, eid := int32(arc.To), int32(arc.Edge)
			if cost := g.edges[arc.Edge].Cost; cost <= d.delta {
				d.lto[nl], d.leid[nl], d.lcost[nl] = to, eid, cost
				nl++
			} else {
				d.hto[nh], d.heid[nh], d.hcost[nh] = to, eid, cost
				nh++
			}
		}
	}
	return d
}

// absorbs reports whether a distance up to bound can absorb cost: D + c
// == D exactly when c is at most half an ulp of D, and the ulp only grows
// with D. A NaN or +Inf bound absorbs every cost.
func absorbs(bound, cost float64) bool {
	return !(cost > (math.Nextafter(bound, math.Inf(1))-bound)/2)
}

// deltaScratch is the delta-stepping half of an Arena: the circular
// bucket calendar, the frontier/settled staging lists, and
// generation-stamped dedup marks. Like the heap it self-restores: a run
// drains every bucket it filled and the stamps are generation-keyed, so
// a pooled arena needs no O(n) reset between runs (possibly on different
// graphs).
type deltaScratch struct {
	buckets  [deltaBucketCount][]int32
	frontier []int32
	active   []int32
	settled  []int32
	// relaxGen/relaxedAt dedupe lazy duplicates: node v is skipped at
	// drain time when it was already relaxed at exactly dist[v] in this
	// run. roundGen dedupes the per-bucket settled list feeding the heavy
	// phase.
	relaxGen  []uint64
	relaxedAt []float64
	roundGen  []uint64
	round     uint64
	// parent[v] is v's parent in the current run, which the tie rule
	// reads and the result keeps only as the edge. The run writes the
	// source's row before it starts and a row for each node it reaches,
	// and reads only rows it wrote, so a reused arena needs no reset.
	parent []NodeID
}

// deltaBucketCap is the starting capacity of each calendar bucket.
const deltaBucketCap = 16

func (ds *deltaScratch) ensure(n int) {
	if len(ds.relaxGen) >= n {
		return
	}
	grow := func(s []uint64) []uint64 {
		ns := make([]uint64, n)
		copy(ns, s)
		return ns
	}
	ds.relaxGen = grow(ds.relaxGen)
	ds.roundGen = grow(ds.roundGen)
	at := make([]float64, n)
	copy(at, ds.relaxedAt)
	ds.relaxedAt = at
	ds.parent = make([]NodeID, n)
	// Every bucket starts with capacity carved from one block and each
	// staging list with room for every node, so a fresh arena's first runs
	// make a handful of allocations instead of growing 1,024 buckets one
	// append at a time. Buckets are empty between runs, so replacing a
	// small one loses nothing.
	block := make([]int32, deltaBucketCount*deltaBucketCap)
	for b := range ds.buckets {
		if cap(ds.buckets[b]) < deltaBucketCap {
			ds.buckets[b] = block[b*deltaBucketCap : b*deltaBucketCap : (b+1)*deltaBucketCap]
		}
	}
	ds.frontier = slices.Grow(ds.frontier[:0], n)
	ds.active = slices.Grow(ds.active[:0], n)
	ds.settled = slices.Grow(ds.settled[:0], n)
}

// deltaRun bundles the per-run state the relaxation loops share. The
// hot loops live on its methods as plain slice scans, so the strict-
// improvement path (the overwhelmingly common case) runs without any
// closure indirection. parent is the arena's (see deltaScratch.parent).
type deltaRun struct {
	dist   []float64
	parent []NodeID
	pedge  []EdgeID
	ds     *deltaScratch
	inv    float64
}

// tieBreak applies the deterministic parent rule to an exact tie: the
// recorded parent is replaced only when the candidate's (dist, id) key
// is strictly smaller, so equal-key duplicates (notably parallel arcs
// from one parent) keep the first arc in scan order. pd is the
// candidate parent's distance when it relaxed.
func (r *deltaRun) tieBreak(pd float64, v, par, via int32) {
	p := r.parent[v]
	if p == None {
		return // v is the source; its parent stays None
	}
	if dp := r.dist[p]; pd < dp || (pd == dp && NodeID(par) < p) {
		r.parent[v] = NodeID(par)
		r.pedge[v] = EdgeID(via)
	}
}

// relax scans the arcs [row[v]:row[v+1]] of every node in list against
// live distances, committing improvements in place: a strict improvement
// takes distance+parent and queues the target; an exact tie goes through
// tieBreak. Relaxing nodes always hold a finite distance, so nd is finite
// throughout. Returns the number of queue pushes.
func (r *deltaRun) relax(list []int32, row, to, eid []int32, cost []float64) int {
	dist := r.dist
	pushes := 0
	for _, v := range list {
		dv := dist[v]
		for i := row[v]; i < row[v+1]; i++ {
			w := to[i]
			nd := dv + cost[i]
			if dw := dist[w]; nd < dw {
				dist[w] = nd
				r.parent[w] = NodeID(v)
				r.pedge[w] = EdgeID(eid[i])
				b := int(int64(nd*r.inv)) & (deltaBucketCount - 1)
				r.ds.buckets[b] = append(r.ds.buckets[b], w)
				pushes++
			} else if nd == dw {
				r.tieBreak(dv, w, v, eid[i])
			}
		}
	}
	return pushes
}

// dijkstraDelta fills sp in place through the delta-stepping rounds.
// The caller has verified lay.delta > 0. Blocked elements never appear
// in the layout, and a blocked source yields an all-unreachable tree
// exactly like the heap variant.
func dijkstraDelta(g *Graph, lay *deltaLayout, a *Arena, sp *ShortestPaths) {
	inf := math.Inf(1)
	for i := range sp.Dist {
		sp.Dist[i] = inf
		sp.ParentEdge[i] = NoEdge
	}
	sp.built = treeStamp{g: g, epoch: lay.epoch, edges: lay.edges}
	if g.block.blocked.Load().NodeFailed(sp.Source) {
		return
	}
	sp.Dist[sp.Source] = 0
	a.settleDelta(lay, sp)
}

// settleDelta runs the delta-stepping rounds over lay from sp.Source,
// whose row sp holds at distance 0; every other row holds +Inf/NoEdge.
func (a *Arena) settleDelta(lay *deltaLayout, sp *ShortestPaths) {
	ds := &a.ds
	ds.ensure(lay.nodes)
	a.gen++
	gen := a.gen
	r := &deltaRun{dist: sp.Dist, parent: ds.parent, pedge: sp.ParentEdge, ds: ds, inv: 1 / lay.delta}
	dist, inv := r.dist, r.inv
	ds.parent[sp.Source] = None
	ds.buckets[0] = append(ds.buckets[0], int32(sp.Source))
	// cur is the current bucket's absolute index; its calendar slot is
	// cur mod deltaBucketCount.
	var cur int64
	for inFlight := 1; inFlight > 0; {
		for len(ds.buckets[cur&(deltaBucketCount-1)]) == 0 {
			cur++
		}
		slot := int(cur & (deltaBucketCount - 1))
		// Light phase: drain the current bucket to a fixpoint. A node
		// whose distance improves while its bucket is open re-enters the
		// frontier and is relaxed again at the smaller distance.
		ds.settled = ds.settled[:0]
		ds.round++
		for len(ds.buckets[slot]) > 0 {
			ds.frontier, ds.buckets[slot] = ds.buckets[slot], ds.frontier[:0]
			inFlight -= len(ds.frontier)
			act := ds.active[:0]
			for _, v := range ds.frontier {
				d := dist[v]
				if int(int64(d*inv))&(deltaBucketCount-1) != slot {
					continue // improved into a different bucket; stale entry
				}
				if ds.relaxGen[v] == gen && ds.relaxedAt[v] == d {
					continue // duplicate at an already-relaxed distance
				}
				ds.relaxGen[v], ds.relaxedAt[v] = gen, d
				if ds.roundGen[v] != ds.round {
					ds.roundGen[v] = ds.round
					ds.settled = append(ds.settled, v)
				}
				act = append(act, v)
			}
			ds.active = act
			inFlight += r.relax(act, lay.lrow, lay.lto, lay.leid, lay.lcost)
		}
		// Heavy phase: every node settled in this bucket relaxes its
		// heavy arcs once, at its now-final distance.
		inFlight += r.relax(ds.settled, lay.hrow, lay.hto, lay.heid, lay.hcost)
	}
}
