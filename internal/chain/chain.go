// Package chain constructs service chains: walks through the network that
// visit a prescribed number of distinct VMs so that the VNFs f1…f|C| can be
// installed in order (Procedures 1 and 2 of the paper).
//
// The central object is the Oracle, which keeps the latest shortest-path
// tree of every origin it was asked about and converts (source, last VM,
// chain length) queries into k-stroll instances on the auxiliary complete
// graph 𝒢 of Procedure 1. Solved strolls are joined back into walks on the
// real network with VNF placements (Procedure 2), and so are the
// extension walks of Section VII-C. A tree that a cost change made stale
// is carried or repaired from the origin's latest tree when
// graph.RepairTree can, and rebuilt by a full run otherwise. Solved chains
// and the VM–VM blocks of 𝒢 are memoized per cost epoch.
package chain

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sof/internal/graph"
	"sof/internal/kstroll"
)

// ServiceChain is a materialized walk in the network that realizes a VNF
// chain: VMs[i] hosts the i-th VNF, and the walk Nodes/Edges connects
// Source → VMs[0] → … → VMs[len-1] (= LastVM) through shortest paths.
// The walk may traverse a node several times ("clones" in the paper).
type ServiceChain struct {
	Source graph.NodeID
	LastVM graph.NodeID
	// VMs[i] hosts VNF f_{i+1}; len(VMs) is the chain length.
	VMs []graph.NodeID
	// VMPos[i] is the index into Nodes of the walk position at which
	// VMs[i] performs its VNF (a VM may also appear elsewhere on the walk
	// as pure pass-through).
	VMPos []int
	// Nodes is the full walk Source…LastVM (repetitions allowed).
	Nodes []graph.NodeID
	// Edges[i] joins Nodes[i] and Nodes[i+1]; len(Edges) = len(Nodes)-1.
	Edges []graph.EdgeID
	// SetupCost is the total setup cost of VMs (plus the source when the
	// oracle includes source setup costs).
	SetupCost float64
	// ConnCost is the total connection cost along the walk, counting a
	// link once per traversal.
	ConnCost float64
}

// TotalCost is SetupCost + ConnCost.
func (c *ServiceChain) TotalCost() float64 { return c.SetupCost + c.ConnCost }

// VNFAt returns the 1-based VNF index hosted at VM v, or 0 if v hosts none.
func (c *ServiceChain) VNFAt(v graph.NodeID) int {
	for i, m := range c.VMs {
		if m == v {
			return i + 1
		}
	}
	return 0
}

// Clone returns a deep copy of the chain.
func (c *ServiceChain) Clone() *ServiceChain {
	return &ServiceChain{
		Source:    c.Source,
		LastVM:    c.LastVM,
		VMs:       append([]graph.NodeID(nil), c.VMs...),
		VMPos:     append([]int(nil), c.VMPos...),
		Nodes:     append([]graph.NodeID(nil), c.Nodes...),
		Edges:     append([]graph.EdgeID(nil), c.Edges...),
		SetupCost: c.SetupCost,
		ConnCost:  c.ConnCost,
	}
}

// Validate checks the structural invariants of the chain against g: walk
// continuity, VM placement order along the walk, distinct VMs, and cost
// accounting. chainLen is the expected number of VNFs.
func (c *ServiceChain) Validate(g *graph.Graph, chainLen int) error {
	if len(c.VMs) != chainLen {
		return fmt.Errorf("chain: %d VMs, want %d", len(c.VMs), chainLen)
	}
	if len(c.Nodes) == 0 || c.Nodes[0] != c.Source {
		return fmt.Errorf("chain: walk does not start at source %d", c.Source)
	}
	if len(c.Edges) != len(c.Nodes)-1 {
		return fmt.Errorf("chain: %d edges for %d nodes", len(c.Edges), len(c.Nodes))
	}
	var conn float64
	for i, id := range c.Edges {
		e := g.Edge(id)
		if !(e.U == c.Nodes[i] && e.V == c.Nodes[i+1]) && !(e.V == c.Nodes[i] && e.U == c.Nodes[i+1]) {
			return fmt.Errorf("chain: edge %d does not join walk nodes %d,%d", id, c.Nodes[i], c.Nodes[i+1])
		}
		conn += e.Cost
	}
	if math.Abs(conn-c.ConnCost) > 1e-6 {
		return fmt.Errorf("chain: recorded conn cost %v != edge sum %v", c.ConnCost, conn)
	}
	if len(c.VMPos) != len(c.VMs) {
		return fmt.Errorf("chain: %d VM positions for %d VMs", len(c.VMPos), len(c.VMs))
	}
	seen := make(map[graph.NodeID]bool, len(c.VMs))
	prev := -1
	for i, vm := range c.VMs {
		if seen[vm] {
			return fmt.Errorf("chain: VM %d repeated", vm)
		}
		seen[vm] = true
		if !g.IsVM(vm) {
			return fmt.Errorf("chain: node %d is not a VM", vm)
		}
		pos := c.VMPos[i]
		if pos <= prev || pos >= len(c.Nodes) {
			return fmt.Errorf("chain: VM %d position %d out of order", vm, pos)
		}
		if c.Nodes[pos] != vm {
			return fmt.Errorf("chain: walk node at position %d is %d, want VM %d", pos, c.Nodes[pos], vm)
		}
		prev = pos
	}
	if chainLen > 0 && c.VMs[chainLen-1] != c.LastVM {
		return fmt.Errorf("chain: last VM %d != recorded %d", c.VMs[chainLen-1], c.LastVM)
	}
	return nil
}

// Options configure an Oracle.
type Options struct {
	// Solver is the k-stroll solver (kstroll.Auto() when nil).
	Solver kstroll.Solver
	// SourceSetupCost includes the source's own setup cost in chains
	// (Appendix D). The source must then be a costed node.
	SourceSetupCost bool
}

// Oracle answers service-chain queries over one network. It is safe for
// concurrent use.
//
// It keeps one entry per origin node, holding the latest shortest-path
// tree built from that origin and the cost epoch it is valid at. A lookup
// at that epoch reads the tree without a lock. Otherwise it takes the
// entry's lock, so each tree is built once even under concurrent demand,
// and builds the tree from the latest one through graph.RepairTree: a
// carry when nothing the tree depends on changed, a repair of the broken
// subtrees when few elements changed, and a full Dijkstra run otherwise.
// All three give the tree a full run would. Cost mutations through
// SetEdgeCost/SetNodeCost thus invalidate lazily: the next query at the
// new epoch rebuilds exactly the trees it touches, and an Oracle held
// across a stream of unchanged-cost requests keeps answering from warm
// state.
//
// Solved chains and the VM–VM blocks of Procedure 1's instances are
// memoized per cost epoch (see memo).
type Oracle struct {
	g      *graph.Graph
	solver kstroll.Solver
	opts   Options

	// mu guards the trees map, which gains an entry on an origin's first
	// lookup and never loses one.
	mu    sync.RWMutex
	trees map[graph.NodeID]*treeEntry

	// hits counts tree lookups answered from a current-epoch entry.
	// Every cold or stale lookup is one of the other three: misses counts
	// full Dijkstra runs, repaired and carried the stale trees
	// graph.RepairTree repaired or carried.
	hits     atomic.Uint64
	misses   atomic.Uint64
	repaired atomic.Uint64
	carried  atomic.Uint64

	// chains holds Chain() results keyed by (source, last VM, chain
	// length, candidate-set hash); blocks holds the VM–VM block of each
	// candidate set (see block).
	chains    memo[chainKey, *ServiceChain]
	blocks    memo[uint64, []float64]
	chainHits atomic.Uint64
	chainMiss atomic.Uint64
}

// maxSolvedChains bounds the solved-chain memo within one cost epoch: a
// long-lived session under stable costs never sees an epoch bump, so
// without a cap the memo would grow with every distinct query for the
// process lifetime. Variable, not const, so tests can shrink it.
var maxSolvedChains = 1 << 14

// maxBlocks bounds the block memo within one cost epoch the same way.
// Most epochs see few candidate sets (the VM set less its blocked VMs and
// those the source cannot reach, and less the source when it is a VM),
// but conflict resolution asks for arbitrary subsets of free VMs, so the
// number of distinct sets is not bounded by the request stream's shape.
var maxBlocks = 1 << 6

// chainKey identifies one solved-chain query within a cost epoch. The
// candidate VM set enters as an order-sensitive hash: the set (and its
// order) determines the k-stroll instance, so two queries agree on the
// key only if they would build the same instance.
type chainKey struct {
	src, last graph.NodeID
	chainLen  int
	vmsHash   uint64
}

// memo maps keys derived from a candidate VM set to values computed from
// the network's costs, within one cost epoch. Its map is dropped
// wholesale when the epoch moves, and when a new key finds it at its cap
// (hot keys recompute once and re-warm at once): crude, but a drop never
// costs more than the computations it saves. The zero memo is empty.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	epoch uint64
	m     map[K]*memoEntry[V]
}

// memoEntry is a singleflight slot: the first goroutine computes the
// value inside once, and concurrent same-key lookups block on it instead
// of computing it again. set is the candidate set the entry was made
// for: a lookup with another set under the same key (a hash collision)
// computes uncached instead of trusting the hash.
type memoEntry[V any] struct {
	set  []graph.NodeID
	once sync.Once
	v    V
	err  error
}

// get returns the value of key over set at g's current cost epoch,
// computing it with build unless the memo holds it, and reports whether
// this call computed it. At most limit keys are held. The value is the
// memo's own, shared by every lookup of the epoch: callers never write
// it. set must not be written after the call either.
func (c *memo[K, V]) get(g *graph.Graph, limit int, key K, set []graph.NodeID, build func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	// Read under the lock: a mutation landing while waiting must not let
	// this call publish an entry into the pre-mutation epoch's map.
	epoch := g.CostEpoch()
	if c.m == nil || c.epoch != epoch {
		c.m, c.epoch = make(map[K]*memoEntry[V]), epoch
	}
	e, ok := c.m[key]
	if ok && !slices.Equal(e.set, set) {
		c.mu.Unlock()
		v, err := build()
		return v, true, err
	}
	if !ok {
		if len(c.m) >= limit {
			c.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{set: set}
		c.m[key] = e
	}
	c.mu.Unlock()
	computed := false
	e.once.Do(func() {
		computed = true
		e.v, e.err = build()
	})
	return e.v, computed, e.err
}

// vmSet is a candidate VM set with its hashNodes hash. Memo entries keep
// ids, so it is never written after construction: a Chains batch makes
// one vmSet and every entry it creates shares its copy of the set.
type vmSet struct {
	ids  []graph.NodeID
	hash uint64
}

// newVMSet copies vms and hashes it.
func newVMSet(vms []graph.NodeID) vmSet {
	return vmSet{ids: slices.Clone(vms), hash: hashNodes(vms)}
}

// unavailableError reports a last VM that is failed or capacity-masked.
// On a saturated network most solves end here, so the text is formatted
// only when it is read.
type unavailableError struct{ vm graph.NodeID }

func (e unavailableError) Error() string {
	return fmt.Sprintf("chain: last VM %d is unavailable: %v", e.vm, kstroll.ErrInfeasible)
}

func (e unavailableError) Unwrap() error { return kstroll.ErrInfeasible }

// hashNodes is FNV-1a over the ids in order, length-mixed. Collisions are
// astronomically unlikely but not trusted: memo entries store the actual
// set and mismatches fall back to an uncached computation.
func hashNodes(ns []graph.NodeID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range ns {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	h ^= uint64(len(ns))
	h *= prime
	return h
}

// treeEntry holds one origin's latest shortest-path tree. latest is read
// without mu; it is written, and a tree is built, only under mu.
type treeEntry struct {
	mu     sync.Mutex
	latest atomic.Pointer[epochTree]
}

// epochTree is a tree and the cost epoch it is valid at.
type epochTree struct {
	sp    *graph.ShortestPaths
	epoch uint64
}

// current returns e's tree when it is valid at epoch, and nil otherwise.
func (e *treeEntry) current(epoch uint64) *graph.ShortestPaths {
	if t := e.latest.Load(); t != nil && t.epoch == epoch {
		return t.sp
	}
	return nil
}

// NewOracle returns an oracle over g.
func NewOracle(g *graph.Graph, opts Options) *Oracle {
	solver := opts.Solver
	if solver == nil {
		solver = kstroll.Auto()
	}
	return &Oracle{
		g:      g,
		solver: solver,
		opts:   opts,
		trees:  make(map[graph.NodeID]*treeEntry),
	}
}

// Graph returns the underlying network.
func (o *Oracle) Graph() *graph.Graph { return o.g }

// entry returns n's tree entry, adding it on n's first lookup.
func (o *Oracle) entry(n graph.NodeID) *treeEntry {
	o.mu.RLock()
	e := o.trees[n]
	o.mu.RUnlock()
	if e != nil {
		return e
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if e = o.trees[n]; e == nil {
		e = new(treeEntry)
		o.trees[n] = e
	}
	return e
}

func (o *Oracle) tree(n graph.NodeID) *graph.ShortestPaths {
	e := o.entry(n)
	if sp := e.current(o.g.CostEpoch()); sp != nil {
		o.hits.Add(1)
		return sp
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Read again under the lock: a tree another goroutine built while
	// this one waited is served, not replaced by one stamped with an
	// older epoch. Read before the build, the stamp is never newer than
	// the costs the build reads.
	epoch := o.g.CostEpoch()
	if sp := e.current(epoch); sp != nil {
		o.hits.Add(1)
		return sp
	}
	sp := o.reuse(e)
	if sp == nil {
		o.misses.Add(1)
		sp = graph.Dijkstra(o.g, n)
	}
	e.latest.Store(&epochTree{sp: sp, epoch: epoch})
	return sp
}

// reuse returns e's latest tree brought up to the current epoch by
// graph.RepairTree, and charges it as a carry or a repair. It returns nil
// when only a full run can build the tree (always when e has no tree).
// The caller holds e.mu.
func (o *Oracle) reuse(e *treeEntry) *graph.ShortestPaths {
	t := e.latest.Load()
	if t == nil {
		return nil
	}
	sp := graph.RepairTree(o.g, t.sp)
	switch {
	case sp == t.sp:
		o.carried.Add(1)
	case sp != nil:
		o.repaired.Add(1)
	}
	return sp
}

// Tree returns the shortest-path tree rooted at n at the current cost
// epoch: n's latest tree when it is current, and otherwise one built once
// (carried, repaired or run in full) for every concurrent caller. It
// satisfies steiner.PathProvider, so KMB runs over the oracle's graph can
// feed off the same trees as the chain queries.
//
// The returned tree is shared by every consumer of the session: callers
// must treat it as strictly read-only (Dist and ParentEdge included), and
// walk it with ShortestPaths.Path over the oracle's graph. Mutating it
// would silently corrupt every later query, and the repairs built from
// it; callers that need a scratch copy must take one themselves.
func (o *Oracle) Tree(n graph.NodeID) *graph.ShortestPaths { return o.tree(n) }

// WarmTrees builds the tree of every origin in origins that is not
// current, as a demand lookup would, but in chunks: it claims up to 16
// stale entries at a time, carries or repairs their latest trees where
// graph.RepairTree can, and builds the rest in one batched Dijkstra pass
// (one shared arena and CSR fetch), releasing the chunk before claiming
// the next. It never blocks on an entry: an origin whose tree another
// goroutine is building, and a repeated origin, are skipped, and so is
// an origin outside the graph, which claims no entry. It returns the
// number of trees built here, of any kind.
//
// Warming is miss-neutral: each tree built here counts as exactly the
// one miss, repair or carry the first demand lookup would have charged,
// so the counters (and the benchmarks gating on them) see the same
// totals whether a session warms or faults trees in.
//
// ctx is checked between chunks: on cancellation the remaining origins
// are left stale, and the next demand lookup builds their trees.
func (o *Oracle) WarmTrees(ctx context.Context, origins []graph.NodeID) int {
	const chunk = 16
	claimed := make([]*treeEntry, 0, chunk)
	ids := make([]graph.NodeID, 0, chunk)
	filled := 0
	for i := 0; i < len(origins); {
		if ctx != nil && ctx.Err() != nil {
			return filled
		}
		// Read before the builds, as in tree: a cost write racing the chunk
		// leaves its trees stamped older than their costs, and their next
		// lookup builds them again.
		epoch := o.g.CostEpoch()
		claimed, ids = claimed[:0], ids[:0]
		for ; i < len(origins) && len(claimed) < chunk; i++ {
			if !o.g.Valid(origins[i]) {
				continue
			}
			e := o.entry(origins[i])
			if e.current(epoch) != nil || !e.mu.TryLock() {
				continue
			}
			if e.current(epoch) != nil {
				e.mu.Unlock()
				continue
			}
			claimed, ids = append(claimed, e), append(ids, origins[i])
		}
		// Carry or repair what can be; the rest, filtered in place, take
		// one batched run.
		rest, batch := claimed[:0], ids[:0]
		for k, e := range claimed {
			if sp := o.reuse(e); sp != nil {
				e.latest.Store(&epochTree{sp: sp, epoch: epoch})
				e.mu.Unlock()
			} else {
				rest, batch = append(rest, e), append(batch, ids[k])
			}
		}
		for k, sp := range graph.DijkstraBatch(o.g, batch, nil) {
			o.misses.Add(1)
			rest[k].latest.Store(&epochTree{sp: sp, epoch: epoch})
			rest[k].mu.Unlock()
		}
		filled += len(claimed)
	}
	return filled
}

// CacheStats is a point-in-time snapshot of the oracle's cache counters.
// Hits counts tree lookups answered from a current-epoch entry (including
// waiters that shared an in-flight computation). Every other tree lookup,
// cold or stale, is exactly one of three: Misses counts full Dijkstra
// runs; Repaired counts stale trees graph.RepairTree brought up to date
// by settling again only their broken subtrees; Carried counts stale
// trees served unchanged because nothing they depend on moved (a blocked
// origin that stays blocked, or only node costs changed). So Misses +
// Repaired + Carried is the number of trees built. ChainMisses counts
// k-stroll solves (each one instance build + solve + materialization);
// ChainHits counts Chain() calls answered from a current-epoch
// solved-chain entry.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	Repaired    uint64
	Carried     uint64
	ChainHits   uint64
	ChainMisses uint64
}

// Stats returns the cache counters. The fields are loaded separately, so
// under concurrent queries the snapshot is advisory rather than an atomic
// tuple — exact for the quiesced points tests and benchmarks read it at.
func (o *Oracle) Stats() CacheStats {
	return CacheStats{
		Hits:        o.hits.Load(),
		Misses:      o.misses.Load(),
		Repaired:    o.repaired.Load(),
		Carried:     o.carried.Load(),
		ChainHits:   o.chainHits.Load(),
		ChainMisses: o.chainMiss.Load(),
	}
}

// InvalidateCache marks every cached shortest-path tree stale by advancing
// the graph's cost epoch; entries are replaced lazily as queries touch
// them. Explicit calls are only needed after cost mutations that bypass
// SetEdgeCost/SetNodeCost (those bump the epoch themselves). Note the bump
// is visible to every epoch-keyed cache over the same graph, not just this
// oracle. Queries already in flight may finish against the trees they have
// resolved; queries started afterwards see fresh trees.
func (o *Oracle) InvalidateCache() {
	o.g.BumpCostEpoch()
}

// Chain finds a low-cost service chain from source s to last VM u visiting
// chainLen distinct VMs drawn from vms (Procedures 1 and 2). u must be in
// vms; s must not be (a source does not host VNFs on its own chain).
//
// Solved chains are memoized per cost epoch: a warm request stream pays
// each distinct (source, last VM, chain length, candidate set) query one
// k-stroll solve, and cost mutations through SetEdgeCost/SetNodeCost
// invalidate lazily, exactly like the trees. Callers receive a private
// copy, so mutating the result never corrupts the memo.
func (o *Oracle) Chain(vms []graph.NodeID, s, u graph.NodeID, chainLen int) (*ServiceChain, error) {
	sc, err := o.chain(newVMSet(vms), s, u, chainLen)
	if err != nil {
		return nil, err
	}
	return sc.Clone(), nil
}

// chain answers a Chain query from the solved-chain memo without copying:
// the chain returned is the memo entry's own, shared by every query of
// the epoch, and callers must treat it as strictly read-only.
func (o *Oracle) chain(set vmSet, s, u graph.NodeID, chainLen int) (*ServiceChain, error) {
	key := chainKey{src: s, last: u, chainLen: chainLen, vmsHash: set.hash}
	sc, solved, err := o.chains.get(o.g, maxSolvedChains, key, set.ids, func() (*ServiceChain, error) {
		return o.solveChain(set, s, u, chainLen)
	})
	if solved {
		o.chainMiss.Add(1)
	} else {
		o.chainHits.Add(1)
	}
	return sc, err
}

// solveChain is the uncached Chain computation: build the auxiliary
// instance of Procedure 1, solve the k-stroll, materialize the walk.
func (o *Oracle) solveChain(set vmSet, s, u graph.NodeID, chainLen int) (*ServiceChain, error) {
	in, cand, err := o.instance(set, s, u, chainLen)
	if err != nil {
		return nil, err
	}
	w, err := o.solver.Solve(in)
	if err != nil {
		return nil, fmt.Errorf("chain: k-stroll %s→%s: %w", o.g.Node(s).Name, o.g.Node(u).Name, err)
	}
	return o.materialize(cand, s, w)
}

// instance returns the k-stroll instance of the query (s, u, chainLen) over
// set, and the candidate VMs its nodes 1… stand for. Blocked VMs — failed,
// or capacity-masked by a saturated session — and VMs s cannot reach are
// dropped from the candidates: they can host nothing on a chain from s,
// and keeping them would fail every instance the moment one VM is blocked
// or cut off, since the instance build treats an unreachable candidate as
// an error. u stays, so an unreachable u fails with its own error.
func (o *Oracle) instance(set vmSet, s, u graph.NodeID, chainLen int) (*kstroll.Instance, []graph.NodeID, error) {
	if chainLen < 1 {
		return nil, nil, fmt.Errorf("chain: chain length %d < 1", chainLen)
	}
	fs := o.g.Blocked()
	if fs.NodeFailed(u) {
		return nil, nil, unavailableError{vm: u}
	}
	spS := o.tree(s)
	// While no VM is dropped the candidates are set itself, hash included.
	drop := func(v graph.NodeID) bool {
		return v == s || fs.NodeFailed(v) || v != u && math.IsInf(spS.Dist[v], 1)
	}
	cand := set
	if slices.ContainsFunc(cand.ids, drop) {
		ids := slices.DeleteFunc(slices.Clone(cand.ids), drop)
		cand = vmSet{ids: ids, hash: hashNodes(ids)}
	}
	uIdx := -1
	for i, v := range cand.ids {
		if v == u {
			uIdx = i
		}
	}
	if uIdx < 0 {
		return nil, nil, fmt.Errorf("chain: last VM %d not among candidates", u)
	}
	if chainLen > len(cand.ids) {
		return nil, nil, fmt.Errorf("chain: length %d exceeds %d available VMs: %w",
			chainLen, len(cand.ids), kstroll.ErrInfeasible)
	}
	in, err := o.buildInstance(cand, spS, uIdx, chainLen)
	if err != nil {
		return nil, nil, err
	}
	return in, cand.ids, nil
}

// buildInstance constructs the auxiliary complete graph 𝒢 of Procedure 1
// from spS, the tree of the source s. Instance node 0 is s; node i+1 is
// cand.ids[i]. End is the last VM's index. Row and column 0 come from
// spS; the rest is cand's VM–VM block, which every instance over cand
// shares within a cost epoch.
func (o *Oracle) buildInstance(cand vmSet, spS *graph.ShortestPaths, uIdx, chainLen int) (*kstroll.Instance, error) {
	s := spS.Source
	m := len(cand.ids)
	n := m + 1
	lastCost := o.g.NodeCost(cand.ids[uIdx])
	srcCost := 0.0
	if o.opts.SourceSetupCost {
		srcCost = o.g.NodeCost(s)
	}
	backing := make([]float64, n*n)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	for i, vi := range cand.ids {
		d := spS.Dist[vi]
		if math.IsInf(d, 1) {
			return nil, fmt.Errorf("chain: VM %d unreachable from source %d: %w", vi, s, graph.ErrDisconnected)
		}
		// Procedure 1: the last VM's setup cost is shared onto the edges
		// incident to s; Appendix D adds the source's own setup cost.
		var share float64
		if i == uIdx {
			share = lastCost + srcCost
		} else {
			share = (lastCost + srcCost + o.g.NodeCost(vi)) / 2
		}
		cost[0][i+1] = d + share
		cost[i+1][0] = cost[0][i+1]
	}
	blk, err := o.block(cand)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		copy(cost[i+1][1:], blk[i*m:(i+1)*m])
	}
	return &kstroll.Instance{
		N:     n,
		Cost:  cost,
		Start: 0,
		End:   uIdx + 1,
		K:     chainLen + 1,
	}, nil
}

// block returns the VM–VM block of the instances over cand, memoized per
// cost epoch (see buildBlock). The block is the memo entry's own: callers
// copy it and never write it.
func (o *Oracle) block(cand vmSet) ([]float64, error) {
	blk, _, err := o.blocks.get(o.g, maxBlocks, cand.hash, cand.ids, func() ([]float64, error) {
		return o.buildBlock(cand.ids)
	})
	return blk, err
}

// buildBlock computes the m×m VM–VM block of 𝒢 over vms, row-major: entry
// (i, j) is d(vi,vj) + (c(vi)+c(vj))/2, mirrored, with the distance read
// from the tree of the pair's earlier VM, and the diagonal is 0. A
// disconnected pair fails the block with the error of the first such pair
// in (i, j > i) order, and no tree past its row is read.
func (o *Oracle) buildBlock(vms []graph.NodeID) ([]float64, error) {
	m := len(vms)
	blk := make([]float64, m*m)
	for i, vi := range vms {
		spI := o.tree(vi)
		ci := o.g.NodeCost(vi)
		for j := i + 1; j < m; j++ {
			vj := vms[j]
			d := spI.Dist[vj]
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("chain: VMs %d and %d disconnected: %w", vi, vj, graph.ErrDisconnected)
			}
			c := d + (ci+o.g.NodeCost(vj))/2
			blk[i*m+j] = c
			blk[j*m+i] = c
		}
	}
	return blk, nil
}

// materialize converts a solved stroll on 𝒢 into a walk on the real network
// (Procedure 2): VNF f_j is installed on the j-th stroll node after the
// source, and Appendix D's source setup cost is added last.
func (o *Oracle) materialize(cand []graph.NodeID, s graph.NodeID, w *kstroll.Walk) (*ServiceChain, error) {
	stops := make([]graph.NodeID, 0, shortWalk)
	for _, idx := range w.Seq {
		v := s
		if idx > 0 {
			v = cand[idx-1]
		}
		stops = append(stops, v)
	}
	sc, err := o.walk(stops, len(stops)-1)
	if err != nil {
		return nil, err
	}
	if o.opts.SourceSetupCost {
		sc.SetupCost += o.g.NodeCost(s)
	}
	return sc, nil
}

// shortWalk is the stop count the callers of walk reserve: walk keeps no
// reference to its stops, so a walk this short lists them without a heap
// allocation.
const shortWalk = 8

// walk joins consecutive stops by shortest paths into one walk from
// stops[0] (Procedure 2). stops[1] … stops[vms] host VNFs f1 … f_vms in
// order, and their setup costs make up SetupCost; LastVM is stops[vms],
// or the last stop when vms is 0. ConnCost sums the walk's edges in
// order.
func (o *Oracle) walk(stops []graph.NodeID, vms int) (*ServiceChain, error) {
	sc := &ServiceChain{Source: stops[0], LastVM: stops[len(stops)-1], Nodes: []graph.NodeID{stops[0]}}
	for i := 1; i < len(stops); i++ {
		a, b := stops[i-1], stops[i]
		path, edges := o.tree(a).Path(o.g, b)
		if path == nil {
			// An instance build proved reachability, but the tree answering
			// here may be a fresher one than the build read, and a plain
			// shortest path checks nothing first: degrade to an error
			// instead of indexing a nil path.
			return nil, fmt.Errorf("chain: no path %d→%d: %w", a, b, graph.ErrDisconnected)
		}
		sc.Nodes = append(sc.Nodes, path[1:]...)
		sc.Edges = append(sc.Edges, edges...)
		if i <= vms {
			sc.VMs = append(sc.VMs, b)
			sc.VMPos = append(sc.VMPos, len(sc.Nodes)-1)
			sc.SetupCost += o.g.NodeCost(b)
			sc.LastVM = b
		}
	}
	for _, e := range sc.Edges {
		sc.ConnCost += o.g.EdgeCost(e)
	}
	return sc, nil
}

// Path returns the cached shortest path a…b as node and edge sequences with
// its connection cost. Used by conflict resolution to splice walks.
func (o *Oracle) Path(a, b graph.NodeID) ([]graph.NodeID, []graph.EdgeID, float64, error) {
	sp := o.tree(a)
	nodes, edges := sp.Path(o.g, b)
	if nodes == nil {
		return nil, nil, 0, fmt.Errorf("chain: no path %d→%d: %w", a, b, graph.ErrDisconnected)
	}
	return nodes, edges, sp.Dist[b], nil
}

// Extension finds a low-cost walk from an arbitrary node `from` to an
// arbitrary node `to` that visits nVMs distinct interior VMs from vms.
// It powers the dynamic destination-join and VNF-insertion operations
// (Section VII-C): the interior VMs host the VNFs still missing downstream
// of `from`. With nVMs == 0 it degenerates to a shortest path.
func (o *Oracle) Extension(vms []graph.NodeID, from, to graph.NodeID, nVMs int) (*ServiceChain, error) {
	if nVMs < 0 {
		return nil, fmt.Errorf("chain: negative VM count %d", nVMs)
	}
	if nVMs == 0 {
		return o.walk([]graph.NodeID{from, to}, 0)
	}
	// Blocked VMs (failed or saturated) and VMs from cannot reach cannot
	// host the missing VNFs; drop them like instance does so one dead or
	// cut-off VM does not poison the whole extension instance. to stays, so
	// an unreachable to fails with its own error.
	fs := o.g.Blocked()
	spFrom := o.tree(from)
	cand := make([]graph.NodeID, 0, len(vms))
	for _, v := range vms {
		if v == from || v == to || fs.NodeFailed(v) || !spFrom.Reachable(v) {
			continue
		}
		cand = append(cand, v)
	}
	if nVMs > len(cand) {
		return nil, fmt.Errorf("chain: extension needs %d VMs, have %d: %w",
			nVMs, len(cand), kstroll.ErrInfeasible)
	}
	// Instance: node 0 = from, 1..m = cand, m+1 = to. Interior VM setup
	// costs are half-shared onto their incident edges; endpoints
	// contribute nothing (they are not newly enabled).
	n := len(cand) + 2
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	nodeAt := func(i int) graph.NodeID {
		switch i {
		case 0:
			return from
		case n - 1:
			return to
		default:
			return cand[i-1]
		}
	}
	halfCost := func(i int) float64 {
		if i == 0 || i == n-1 {
			return 0
		}
		return o.g.NodeCost(cand[i-1]) / 2
	}
	for i := 0; i < n; i++ {
		sp := o.tree(nodeAt(i))
		for j := i + 1; j < n; j++ {
			d := sp.Dist[nodeAt(j)]
			if math.IsInf(d, 1) {
				return nil, fmt.Errorf("chain: %d and %d disconnected: %w", nodeAt(i), nodeAt(j), graph.ErrDisconnected)
			}
			c := d + halfCost(i) + halfCost(j)
			cost[i][j] = c
			cost[j][i] = c
		}
	}
	in := &kstroll.Instance{N: n, Cost: cost, Start: 0, End: n - 1, K: nVMs + 2}
	w, err := o.solver.Solve(in)
	if err != nil {
		return nil, fmt.Errorf("chain: extension stroll: %w", err)
	}
	stops := make([]graph.NodeID, 0, shortWalk)
	for _, idx := range w.Seq {
		stops = append(stops, nodeAt(idx))
	}
	return o.walk(stops, len(stops)-2)
}
