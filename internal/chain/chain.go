// Package chain constructs service chains: walks through the network that
// visit a prescribed number of distinct VMs so that the VNFs f1…f|C| can be
// installed in order (Procedures 1 and 2 of the paper).
//
// The central object is the Oracle, which caches shortest-path trees over
// the underlying network and converts (source, last VM, chain length)
// queries into k-stroll instances on the auxiliary complete graph 𝒢 of
// Procedure 1. Solved strolls are materialized back into walks on the real
// network with VNF placements (Procedure 2). A tree that a cost change made
// stale is carried or repaired from its previous version when
// graph.RepairTree can, and rebuilt by a full run otherwise.
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

// Oracle answers service-chain queries over one network. It caches Dijkstra
// trees per origin node; the cache is safe for concurrent use and computes
// each tree exactly once even under concurrent demand (per-origin
// singleflight), so parallel candidate generation does not duplicate
// Dijkstra work or serialize on one lock while trees are being built.
//
// Entries are keyed by the graph's cost epoch: a tree computed at epoch e
// is served only while graph.CostEpoch() == e, so cost mutations through
// SetEdgeCost/SetNodeCost invalidate lazily — the next query at the new
// epoch recomputes exactly the trees it touches, and an Oracle held across
// a stream of unchanged-cost requests keeps answering from warm state.
// Recomputing a stale tree first tries graph.RepairTree on the tree it
// replaces: a carry when nothing the tree depends on changed, a repair of
// the broken subtrees when few elements changed, and a full Dijkstra run
// otherwise. All three give the tree a full run would.
type Oracle struct {
	g      *graph.Graph
	solver kstroll.Solver
	opts   Options

	// mu guards the trees map itself; each entry synchronizes its own
	// computation through its once, so readers only hold mu for the lookup.
	mu    sync.RWMutex
	trees map[graph.NodeID]*treeEntry

	// hits counts tree lookups answered from a current-epoch cache entry.
	// Every cold or stale lookup is one of the other three: misses counts
	// full Dijkstra runs, repaired and carried the stale trees
	// graph.RepairTree repaired or carried.
	hits     atomic.Uint64
	misses   atomic.Uint64
	repaired atomic.Uint64
	carried  atomic.Uint64

	// Solved-chain memoization: Chain() results keyed by (source, last VM,
	// chain length, candidate-set hash) within one cost epoch, with the
	// same singleflight discipline as the tree cache. chainEpoch records
	// the epoch the map was built at; a mismatch drops the map wholesale
	// (unlike trees, solved chains are cheap to lose and expensive to keep
	// per epoch). chainMu guards the map and epoch.
	chainMu    sync.Mutex
	chainEpoch uint64
	chainCache map[chainKey]*chainEntry
	chainHits  atomic.Uint64
	chainMiss  atomic.Uint64

	// VM–VM blocks of Procedure 1's instances (see block), keyed by the
	// candidate set's hash within one cost epoch, under the solved-chain
	// memo's discipline: singleflight entries, an exact set check, a cap,
	// and a wholesale drop when the epoch moves. blockMu guards the map
	// and epoch.
	blockMu    sync.Mutex
	blockEpoch uint64
	blocks     map[uint64]*blockEntry
}

// maxSolvedChains bounds the solved-chain cache within one cost epoch: a
// long-lived session under stable costs never sees an epoch bump, so
// without a cap the memo would grow with every distinct query for the
// process lifetime. When the map reaches the cap it is dropped wholesale
// (hot keys re-solve once and re-warm immediately) — crude, but eviction
// never costs more than the solve it saves. Variable, not const, so
// tests can shrink it.
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

// chainEntry is a singleflight slot for one solved chain: the first
// goroutine computes inside once, concurrent same-key queries block on it
// instead of re-solving the k-stroll instance. vms is the candidate set
// the entry was created for, written under chainMu before the entry is
// published — a lookup whose set differs (a 64-bit hash collision)
// bypasses the cache instead of trusting the hash.
type chainEntry struct {
	vms  []graph.NodeID
	once sync.Once
	sc   *ServiceChain
	err  error
}

// blockEntry is a singleflight slot for the VM–VM block of one candidate
// set; vms is the set, for the exact check a hash collision needs.
type blockEntry struct {
	vms  []graph.NodeID
	once sync.Once
	cost []float64
	err  error
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
// astronomically unlikely but not trusted: the entry stores the actual
// set and mismatches fall back to an uncached solve.
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

// treeEntry is a singleflight slot for one origin's Dijkstra tree at one
// cost epoch: the first goroutine to reach the entry computes the tree
// inside once, any concurrent goroutine blocks on it instead of
// recomputing. A stale-epoch entry is replaced wholesale on next access;
// the replacement keeps the stale entry's tree in prev, as the base of a
// repair, until it is filled.
type treeEntry struct {
	epoch uint64
	once  sync.Once
	sp    *graph.ShortestPaths
	// done is set once sp is; a replacement reads sp only after it.
	done atomic.Bool
	prev *graph.ShortestPaths
}

// newTreeEntry returns an empty entry for epoch that replaces old (nil
// when there is none). old's tree is read only once old is filled: an
// entry another goroutine is still filling has no tree to offer.
func newTreeEntry(epoch uint64, old *treeEntry) *treeEntry {
	e := &treeEntry{epoch: epoch}
	if old != nil && old.done.Load() {
		e.prev = old.sp
	}
	return e
}

// fill publishes sp as e's tree and drops the repair base. Callers run it
// inside e.once.
func (e *treeEntry) fill(sp *graph.ShortestPaths) {
	e.sp = sp
	e.prev = nil
	e.done.Store(true)
}

// reuse returns prev, a stale tree, brought up to the current epoch by
// graph.RepairTree: prev itself when carried, a repaired tree, or nil
// when only a full run can build the tree (always when prev is nil).
func (o *Oracle) reuse(prev *graph.ShortestPaths) *graph.ShortestPaths {
	if prev == nil {
		return nil
	}
	return graph.RepairTree(o.g, prev)
}

// countReuse charges a tree reuse returned from prev as a carry or a
// repair. Callers run it inside the filled entry's once, so that every
// cold or stale lookup is charged exactly once.
func (o *Oracle) countReuse(sp, prev *graph.ShortestPaths) {
	if sp == prev {
		o.carried.Add(1)
	} else {
		o.repaired.Add(1)
	}
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

func (o *Oracle) tree(n graph.NodeID) *graph.ShortestPaths {
	o.mu.RLock()
	epoch := o.g.CostEpoch()
	e, ok := o.trees[n]
	o.mu.RUnlock()
	if !ok || e.epoch != epoch {
		o.mu.Lock()
		// Re-read under the lock: a mutation that landed while waiting
		// must not publish an entry stamped with the epoch observed
		// before it (the costs Dijkstra reads are the post-mutation ones).
		epoch = o.g.CostEpoch()
		if e, ok = o.trees[n]; !ok || e.epoch != epoch {
			e = newTreeEntry(epoch, e)
			o.trees[n] = e
		}
		o.mu.Unlock()
	}
	hit := true
	e.once.Do(func() {
		hit = false
		sp := o.reuse(e.prev)
		if sp != nil {
			o.countReuse(sp, e.prev)
		} else {
			o.misses.Add(1)
			sp = graph.Dijkstra(o.g, n)
		}
		e.fill(sp)
	})
	if hit {
		o.hits.Add(1)
	}
	return e.sp
}

// Tree returns the oracle's cached shortest-path tree rooted at n,
// computing it (singleflight, epoch-keyed) on first demand. It satisfies
// steiner.PathProvider, so KMB runs over the oracle's graph can feed off
// the same cache as the chain queries.
//
// The returned tree is the live cache entry, shared by every consumer of
// the session: callers must treat it as strictly read-only (Dist, Parent,
// and ParentEdge included). Mutating it would silently corrupt every
// later query until the next cost-epoch bump; callers that need a
// scratch copy must take one themselves.
func (o *Oracle) Tree(n graph.NodeID) *graph.ShortestPaths { return o.tree(n) }

// WarmTrees computes the shortest-path trees of every origin in origins
// that is not already cached at the current epoch. A stale tree is first
// carried or repaired, as a demand lookup would; the rest run in batched
// Dijkstra passes (one shared arena and CSR fetch per chunk) instead of
// one pooled run per origin. It returns the number of entries filled
// here, of any kind. Origins whose tree another goroutine is already
// computing are skipped — the singleflight entry covers them.
//
// Warming is miss-neutral: each tree computed here counts as exactly the
// one miss, repair or carry the first demand lookup would have charged,
// so the counters (and the benchmarks gating on them) see the same
// totals whether a session warms or faults trees in.
//
// ctx is checked between chunks: on cancellation the remaining entries
// are left unfulfilled, and the next demand lookup computes them through
// the usual singleflight path.
func (o *Oracle) WarmTrees(ctx context.Context, origins []graph.NodeID) int {
	// prev is e.prev, read while the entry is still private: fill clears
	// e.prev, so it may not be read outside e.once after publication.
	type slot struct {
		n    graph.NodeID
		e    *treeEntry
		prev *graph.ShortestPaths
	}
	var pending []slot
	seen := make(map[graph.NodeID]bool, len(origins))
	o.mu.Lock()
	// The epoch is read under the lock: entries published here must be
	// stamped with the epoch the batched Dijkstra passes actually see,
	// not one observed before a concurrent mutation.
	epoch := o.g.CostEpoch()
	for _, n := range origins {
		if seen[n] {
			continue
		}
		seen[n] = true
		e, ok := o.trees[n]
		if ok && e.epoch == epoch {
			continue
		}
		e = newTreeEntry(epoch, e)
		o.trees[n] = e
		pending = append(pending, slot{n: n, e: e, prev: e.prev})
	}
	o.mu.Unlock()
	if len(pending) == 0 {
		return 0
	}
	const chunk = 16
	rest := make([]slot, 0, chunk)
	batch := make([]graph.NodeID, 0, chunk)
	filled := 0
	for lo := 0; lo < len(pending); lo += chunk {
		if ctx != nil && ctx.Err() != nil {
			// Abandoned entries stay published with an unfired once; the
			// next Tree() call on them computes as usual.
			return filled
		}
		hi := min(lo+chunk, len(pending))
		rest, batch = rest[:0], batch[:0]
		for _, s := range pending[lo:hi] {
			sp := o.reuse(s.prev)
			if sp == nil {
				rest = append(rest, s)
				batch = append(batch, s.n)
				continue
			}
			s.e.once.Do(func() {
				o.countReuse(sp, s.prev)
				s.e.fill(sp)
				filled++
			})
		}
		if len(batch) == 0 {
			continue
		}
		sps := graph.DijkstraBatch(o.g, batch, nil)
		for i, s := range rest {
			s.e.once.Do(func() {
				o.misses.Add(1)
				s.e.fill(sps[i])
				filled++
			})
		}
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
// invalidate lazily, exactly like the tree cache. Callers receive a
// private copy, so mutating the result never corrupts the cache.
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
	o.chainMu.Lock()
	// Read under the lock: a mutation landing while waiting must not let
	// this call publish an entry into the pre-mutation epoch's memo.
	epoch := o.g.CostEpoch()
	if o.chainCache == nil || o.chainEpoch != epoch {
		o.chainCache = make(map[chainKey]*chainEntry)
		o.chainEpoch = epoch
	}
	e, ok := o.chainCache[key]
	if ok && !slices.Equal(e.vms, set.ids) {
		// Hash collision between distinct candidate sets: solve uncached
		// rather than alias the other set's chain.
		o.chainMu.Unlock()
		o.chainMiss.Add(1)
		return o.solveChain(set, s, u, chainLen)
	}
	if !ok {
		if len(o.chainCache) >= maxSolvedChains {
			o.chainCache = make(map[chainKey]*chainEntry)
		}
		e = &chainEntry{vms: set.ids}
		o.chainCache[key] = e
	}
	o.chainMu.Unlock()
	hit := true
	e.once.Do(func() {
		hit = false
		o.chainMiss.Add(1)
		e.sc, e.err = o.solveChain(set, s, u, chainLen)
	})
	if hit {
		o.chainHits.Add(1)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.sc, nil
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
	o.blockMu.Lock()
	// Read under the lock, for the reason chain gives.
	epoch := o.g.CostEpoch()
	if o.blocks == nil || o.blockEpoch != epoch {
		o.blocks = make(map[uint64]*blockEntry)
		o.blockEpoch = epoch
	}
	e, ok := o.blocks[cand.hash]
	if ok && !slices.Equal(e.vms, cand.ids) {
		// Hash collision: build uncached, as chain solves uncached.
		o.blockMu.Unlock()
		return o.buildBlock(cand.ids)
	}
	if !ok {
		if len(o.blocks) >= maxBlocks {
			o.blocks = make(map[uint64]*blockEntry)
		}
		e = &blockEntry{vms: cand.ids}
		o.blocks[cand.hash] = e
	}
	o.blockMu.Unlock()
	e.once.Do(func() { e.cost, e.err = o.buildBlock(e.vms) })
	return e.cost, e.err
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
// (Procedure 2): consecutive stroll nodes are joined by shortest paths, and
// VNF f_{j} is installed on the j-th stroll node after the source.
func (o *Oracle) materialize(cand []graph.NodeID, s graph.NodeID, w *kstroll.Walk) (*ServiceChain, error) {
	toNode := func(idx int) graph.NodeID {
		if idx == 0 {
			return s
		}
		return cand[idx-1]
	}
	sc := &ServiceChain{Source: s}
	sc.Nodes = append(sc.Nodes, s)
	for i := 1; i < len(w.Seq); i++ {
		a, b := toNode(w.Seq[i-1]), toNode(w.Seq[i])
		sp := o.tree(a)
		pathNodes := sp.PathTo(b)
		pathEdges := sp.EdgesTo(b)
		if pathNodes == nil {
			return nil, fmt.Errorf("chain: no path %d→%d: %w", a, b, graph.ErrDisconnected)
		}
		sc.Nodes = append(sc.Nodes, pathNodes[1:]...)
		sc.Edges = append(sc.Edges, pathEdges...)
		sc.VMs = append(sc.VMs, b)
		sc.VMPos = append(sc.VMPos, len(sc.Nodes)-1)
		sc.SetupCost += o.g.NodeCost(b)
	}
	if o.opts.SourceSetupCost {
		sc.SetupCost += o.g.NodeCost(s)
	}
	sc.LastVM = sc.VMs[len(sc.VMs)-1]
	for _, e := range sc.Edges {
		sc.ConnCost += o.g.EdgeCost(e)
	}
	return sc, nil
}

// Path returns the cached shortest path a…b as node and edge sequences with
// its connection cost. Used by conflict resolution to splice walks.
func (o *Oracle) Path(a, b graph.NodeID) ([]graph.NodeID, []graph.EdgeID, float64, error) {
	sp := o.tree(a)
	if !sp.Reachable(b) {
		return nil, nil, 0, fmt.Errorf("chain: no path %d→%d: %w", a, b, graph.ErrDisconnected)
	}
	return sp.PathTo(b), sp.EdgesTo(b), sp.Dist[b], nil
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
		sp := o.tree(from)
		pathNodes := sp.PathTo(to)
		if pathNodes == nil {
			return nil, fmt.Errorf("chain: no path %d→%d: %w", from, to, graph.ErrDisconnected)
		}
		sc := &ServiceChain{Source: from, LastVM: to, Nodes: pathNodes, Edges: sp.EdgesTo(to)}
		for _, e := range sc.Edges {
			sc.ConnCost += o.g.EdgeCost(e)
		}
		return sc, nil
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
	sc := &ServiceChain{Source: from}
	sc.Nodes = append(sc.Nodes, from)
	for i := 1; i < len(w.Seq); i++ {
		a, b := nodeAt(w.Seq[i-1]), nodeAt(w.Seq[i])
		sp := o.tree(a)
		pathNodes := sp.PathTo(b)
		if pathNodes == nil {
			// The instance build proved reachability, but the tree answering
			// here may be a different (fresher) one than the build consulted;
			// degrade to an error instead of indexing a nil path.
			return nil, fmt.Errorf("chain: no path %d→%d: %w", a, b, graph.ErrDisconnected)
		}
		sc.Nodes = append(sc.Nodes, pathNodes[1:]...)
		sc.Edges = append(sc.Edges, sp.EdgesTo(b)...)
		if i < len(w.Seq)-1 {
			sc.VMs = append(sc.VMs, b)
			sc.VMPos = append(sc.VMPos, len(sc.Nodes)-1)
			sc.SetupCost += o.g.NodeCost(b)
		}
	}
	if len(sc.VMs) > 0 {
		sc.LastVM = sc.VMs[len(sc.VMs)-1]
	}
	for _, e := range sc.Edges {
		sc.ConnCost += o.g.EdgeCost(e)
	}
	return sc, nil
}
