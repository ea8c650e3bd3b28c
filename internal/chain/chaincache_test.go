package chain

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"sof/internal/graph"
	"sof/internal/kstroll"
)

// cacheTestInstance is a random network with enough VMs for repeated
// chain queries.
func cacheTestInstance(seed int64) (*graph.Graph, []graph.NodeID, []graph.NodeID) {
	g := graph.RandomConnected(graph.RandomConfig{
		Nodes: 40, ExtraEdges: 60, VMFraction: 0.4, MaxEdge: 8, MaxSetup: 6,
	}, seed)
	var sources []graph.NodeID
	for i := 0; i < g.NumNodes() && len(sources) < 4; i++ {
		if !g.IsVM(graph.NodeID(i)) {
			sources = append(sources, graph.NodeID(i))
		}
	}
	return g, g.VMs(), sources
}

// TestSolvedChainCacheWarmStream asserts the solved-chain cache returns
// chains structurally identical to cold solves across a warm request
// stream, and that the hit/miss counters account for every query.
func TestSolvedChainCacheWarmStream(t *testing.T) {
	g, vms, sources := cacheTestInstance(3)
	cold := NewOracle(g, Options{})
	warm := NewOracle(g, Options{})
	pairs := Pairs(sources, vms)

	coldRes, err := cold.Chains(context.Background(), vms, pairs, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the warm oracle through the same stream several times; every
	// pass must reproduce the cold results exactly.
	for pass := 0; pass < 3; pass++ {
		warmRes, err := warm.Chains(context.Background(), vms, pairs, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range coldRes {
			if (coldRes[i].Err == nil) != (warmRes[i].Err == nil) {
				t.Fatalf("pass %d pair %d: err mismatch: %v vs %v", pass, i, coldRes[i].Err, warmRes[i].Err)
			}
			if coldRes[i].Err != nil {
				continue
			}
			if !reflect.DeepEqual(coldRes[i].Chain, warmRes[i].Chain) {
				t.Fatalf("pass %d pair %d: warm chain differs structurally from cold solve", pass, i)
			}
		}
	}
	stats := warm.Stats()
	if stats.ChainMisses != uint64(len(pairs)) {
		t.Fatalf("chain misses = %d, want one per distinct pair (%d)", stats.ChainMisses, len(pairs))
	}
	if want := uint64(2 * len(pairs)); stats.ChainHits != want {
		t.Fatalf("chain hits = %d, want %d (two warm passes)", stats.ChainHits, want)
	}
}

// TestSolvedChainCacheReturnsPrivateCopies ensures a caller mutating its
// result cannot corrupt later cache answers.
func TestSolvedChainCacheReturnsPrivateCopies(t *testing.T) {
	gg, src, vmset, _ := lineNet()
	o := NewOracle(gg, Options{})
	first, err := o.Chain(vmset, src, vmset[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	first.VMs[0] = 99 // vandalize the returned copy
	first.Nodes[0] = 99
	second, err := o.Chain(vmset, src, vmset[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if second.VMs[0] == 99 || second.Nodes[0] == 99 {
		t.Fatal("cache returned the mutated caller copy")
	}
}

// TestSolvedChainCacheInvalidation asserts SetEdgeCost / SetNodeCost
// (the setters behind the public SetLinkCost / SetVMCost) invalidate the
// solved-chain cache lazily, while no-op writes keep it warm.
func TestSolvedChainCacheInvalidation(t *testing.T) {
	g, src, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	base, err := o.Chain(vms, src, vms[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats().ChainMisses != 1 {
		t.Fatalf("misses = %d, want 1", o.Stats().ChainMisses)
	}

	// No-op write: same value, epoch unchanged, cache stays warm.
	g.SetNodeCost(vms[0], g.NodeCost(vms[0]))
	if _, err := o.Chain(vms, src, vms[2], 3); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.ChainMisses != 1 || st.ChainHits != 1 {
		t.Fatalf("after no-op write: %+v, want 1 miss / 1 hit", st)
	}

	// Real VM-cost change: next query re-solves and prices the new cost.
	g.SetNodeCost(vms[0], g.NodeCost(vms[0])+10)
	upd, err := o.Chain(vms, src, vms[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.ChainMisses != 2 {
		t.Fatalf("after SetNodeCost: misses = %d, want 2", st.ChainMisses)
	}
	if math.Abs(upd.SetupCost-(base.SetupCost+10)) > 1e-9 {
		t.Fatalf("updated setup cost %v, want %v", upd.SetupCost, base.SetupCost+10)
	}

	// Real link-cost change: ditto for connection costs.
	g.SetEdgeCost(0, g.EdgeCost(0)+5)
	upd2, err := o.Chain(vms, src, vms[2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.ChainMisses != 3 {
		t.Fatalf("after SetEdgeCost: misses = %d, want 3", st.ChainMisses)
	}
	if math.Abs(upd2.ConnCost-(base.ConnCost+5)) > 1e-9 {
		t.Fatalf("updated conn cost %v, want %v", upd2.ConnCost, base.ConnCost+5)
	}
}

// TestSolvedChainCacheKeysOnCandidateSet ensures two queries that differ
// only in their candidate VM set do not alias.
func TestSolvedChainCacheKeysOnCandidateSet(t *testing.T) {
	g, src, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	full, err := o.Chain(vms, src, vms[2], 2)
	if err != nil {
		t.Fatal(err)
	}
	// Restricting to {v2, v3} forces a different (more expensive) chain.
	restricted, err := o.Chain(vms[1:], src, vms[2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats().ChainMisses != 2 {
		t.Fatalf("misses = %d, want 2 distinct solves", o.Stats().ChainMisses)
	}
	if reflect.DeepEqual(full.VMs, restricted.VMs) {
		t.Fatalf("restricted candidate set returned the unrestricted chain %v", restricted.VMs)
	}
}

// TestSolvedChainCacheBounded shrinks the cap and overflows it: the memo
// must stay bounded, keep answering correctly, and re-warm after the
// wholesale drop.
func TestSolvedChainCacheBounded(t *testing.T) {
	old := maxSolvedChains
	maxSolvedChains = 3
	defer func() { maxSolvedChains = old }()

	g, vms, sources := cacheTestInstance(7)
	o := NewOracle(g, Options{})
	ref := NewOracle(g, Options{})
	for round := 0; round < 2; round++ {
		for _, s := range sources {
			for _, u := range vms[:3] {
				got, err := o.Chain(vms, s, u, 2)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Chain(vms, s, u, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("overflowing cache changed the chain for (%d,%d)", s, u)
				}
				o.chains.mu.Lock()
				if n := len(o.chains.m); n > maxSolvedChains {
					o.chains.mu.Unlock()
					t.Fatalf("cache grew to %d entries, cap is %d", n, maxSolvedChains)
				}
				o.chains.mu.Unlock()
			}
		}
	}
}

// TestSolvedChainCacheHashCollision fabricates a candidate-set hash
// collision by planting an entry under the key another set would compute,
// and checks the lookup detects the set mismatch and solves uncached
// instead of aliasing the planted chain.
func TestSolvedChainCacheHashCollision(t *testing.T) {
	g, src, vms, _ := lineNet()
	o := NewOracle(g, Options{})
	want, err := o.Chain(vms, src, vms[2], 2)
	if err != nil {
		t.Fatal(err)
	}

	// Plant a wrong chain under the key Chain(vms, ...) computes, but
	// recorded as solved for a different candidate set — exactly what a
	// hash collision would leave behind.
	epoch := g.CostEpoch()
	key := chainKey{src: src, last: vms[2], chainLen: 2, vmsHash: hashNodes(vms)}
	bogus := want.Clone()
	bogus.VMs = []graph.NodeID{vms[1], vms[2]}
	e := &memoEntry[*ServiceChain]{set: []graph.NodeID{vms[1], vms[2]}}
	e.once.Do(func() { e.v = bogus })
	o.chains.mu.Lock()
	o.chains.m = map[chainKey]*memoEntry[*ServiceChain]{key: e}
	o.chains.epoch = epoch
	o.chains.mu.Unlock()

	got, err := o.Chain(vms, src, vms[2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("collision lookup returned the planted chain %v, want fresh solve %v", got.VMs, want.VMs)
	}
}

// TestSolvedChainCacheSingleflight hammers one key from many goroutines;
// the k-stroll must be solved exactly once.
func TestSolvedChainCacheSingleflight(t *testing.T) {
	g, vms, sources := cacheTestInstance(5)
	o := NewOracle(g, Options{})
	var wg sync.WaitGroup
	results := make([]*ServiceChain, 16)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc, err := o.Chain(vms, sources[0], vms[0], 3)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = sc
		}(w)
	}
	wg.Wait()
	if got := o.Stats().ChainMisses; got != 1 {
		t.Fatalf("chain misses = %d, want 1 (singleflight)", got)
	}
	for w := 1; w < len(results); w++ {
		if !reflect.DeepEqual(results[0], results[w]) {
			t.Fatalf("goroutine %d saw a different chain", w)
		}
	}
}

// poisoningSolver wraps a real k-stroll solver and, after solving,
// replaces one VM's cached shortest-path tree with an all-unreachable
// one — fabricating the tree swap that Extension's materialization loop
// must survive (returning ErrDisconnected rather than panicking).
type poisoningSolver struct {
	o      *Oracle
	victim graph.NodeID
	inner  kstroll.Solver
}

func (p *poisoningSolver) Name() string { return "poisoning" }

func (p *poisoningSolver) Solve(in *kstroll.Instance) (*kstroll.Walk, error) {
	w, err := p.inner.Solve(in)
	if err != nil {
		return nil, err
	}
	n := p.o.g.NumNodes()
	sp := &graph.ShortestPaths{
		Source:     p.victim,
		Dist:       make([]float64, n),
		ParentEdge: make([]graph.EdgeID, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = math.Inf(1)
		sp.ParentEdge[i] = graph.NoEdge
	}
	p.o.entry(p.victim).latest.Store(&epochTree{sp: sp, epoch: p.o.g.CostEpoch()})
	return w, nil
}

// TestExtensionGuardsNilPath white-boxes the materialization guard: when
// a hop's tree stops answering mid-materialization, Extension must return
// graph.ErrDisconnected instead of panicking on the nil path.
func TestExtensionGuardsNilPath(t *testing.T) {
	g, src, vms, dst := lineNet()
	o := NewOracle(g, Options{})
	o.solver = &poisoningSolver{o: o, victim: vms[0], inner: kstroll.Auto()}
	// The walk src→…→dst must route through vms[0] (the line topology
	// forces it), whose tree the solver poisons after the solve.
	_, err := o.Extension(vms, src, dst, 1)
	if err == nil {
		t.Fatal("expected an error from the poisoned tree")
	}
	if !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("error %v does not wrap graph.ErrDisconnected", err)
	}
}
