package chain

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"sof/internal/graph"
	"sof/internal/topology"
)

// TestWarmTreesMissNeutral pins the warming contract: warming a set of
// origins costs exactly one miss per distinct origin, demand lookups on
// warmed origins are pure hits, and re-warming is free. The miss count
// must equal what a demand-faulted session would pay — the CI benchmark
// gate on dijkstras/op rides on this.
func TestWarmTreesMissNeutral(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 8, Seed: 5})
	o := NewOracle(net.G, Options{})
	origins := append([]graph.NodeID{0, 1, 2, 1, 0}, net.VMs...)
	distinct := make(map[graph.NodeID]bool)
	for _, n := range origins {
		distinct[n] = true
	}

	if got := o.WarmTrees(context.Background(), origins); got != len(distinct) {
		t.Fatalf("WarmTrees computed %d trees, want %d distinct origins", got, len(distinct))
	}
	if st := o.Stats(); st.Misses != uint64(len(distinct)) || st.Hits != 0 {
		t.Fatalf("after warm: misses=%d hits=%d, want misses=%d hits=0", st.Misses, st.Hits, len(distinct))
	}

	// Demand lookups on warmed origins: hits only, and the shared entries.
	for n := range distinct {
		if sp := o.Tree(n); sp.Source != n {
			t.Fatalf("Tree(%d).Source = %d", n, sp.Source)
		}
	}
	if st := o.Stats(); st.Misses != uint64(len(distinct)) {
		t.Fatalf("demand lookups after warm added misses: %d, want %d", st.Misses, len(distinct))
	}

	// Re-warming an already-warm set computes nothing.
	if got := o.WarmTrees(context.Background(), origins); got != 0 {
		t.Fatalf("re-warm computed %d trees, want 0", got)
	}
}

// built is the number of trees an oracle built: full runs, repairs and
// carries. Every cold or stale lookup adds exactly one.
func built(st CacheStats) uint64 { return st.Misses + st.Repaired + st.Carried }

// sameTree fails the test unless the served tree got is, bit for bit, the
// tree a full run over g builds from got.Source.
func sameTree(t *testing.T, g *graph.Graph, got *graph.ShortestPaths) {
	t.Helper()
	want := graph.Dijkstra(g, got.Source)
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] || got.ParentEdge[v] != want.ParentEdge[v] {
			t.Fatalf("tree from %d, node %d: served (%v,%d,%d), full run (%v,%d,%d)", got.Source, v,
				got.Dist[v], got.Parent[v], got.ParentEdge[v], want.Dist[v], want.Parent[v], want.ParentEdge[v])
		}
	}
}

// TestWarmTreesEpochInvalidation: a cost mutation stales every warmed
// tree; the next warm rebuilds each of them once at the new epoch (a full
// run, a repair or a carry) and serves the fresh trees.
func TestWarmTreesEpochInvalidation(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 6, Seed: 9})
	o := NewOracle(net.G, Options{})
	origins := net.VMs[:3]
	if got := o.WarmTrees(context.Background(), origins); got != 3 {
		t.Fatalf("first warm filled %d, want 3", got)
	}
	before := o.Stats()
	net.G.SetEdgeCost(0, net.G.EdgeCost(0)+1)
	if got := o.WarmTrees(context.Background(), origins); got != 3 {
		t.Fatalf("warm after re-pricing filled %d, want 3", got)
	}
	if st := o.Stats(); built(st) != built(before)+3 || st.Hits != before.Hits {
		t.Fatalf("warm after re-pricing: stats %+v after %+v, want 3 trees built and no hit", st, before)
	}
	for _, n := range origins {
		sameTree(t, net.G, o.Tree(n))
	}
}

// TestOracleConcurrentStaleReaders races Tree and WarmTrees from several
// goroutines over entries a cost change made stale, several rounds in a
// row: each stale entry is filled exactly once, whoever gets there
// first, and every served tree is the full run's. Run it under -race.
func TestOracleConcurrentStaleReaders(t *testing.T) {
	net, err := topology.Inet(400, 800, 20, topology.Config{NumVMs: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := net.G
	o := NewOracle(g, Options{})
	origins := append(append([]graph.NodeID(nil), net.VMs...), net.Access[:20]...)
	o.WarmTrees(context.Background(), origins)
	rng := rand.New(rand.NewSource(4))
	var reused uint64
	for round := 0; round < 8; round++ {
		for k := 0; k < 1+rng.Intn(3); k++ {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			g.SetEdgeCost(e, g.EdgeCost(e)*(0.5+rng.Float64()))
		}
		before := o.Stats()
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			order := append([]graph.NodeID(nil), origins...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			wg.Add(1)
			go func(warm bool) {
				defer wg.Done()
				if warm {
					o.WarmTrees(context.Background(), order)
					return
				}
				for _, n := range order {
					o.Tree(n)
				}
			}(w%2 == 0)
		}
		wg.Wait()
		st := o.Stats()
		if built(st)-built(before) != uint64(len(origins)) {
			t.Fatalf("round %d: %d trees built for %d stale entries (stats %+v after %+v)",
				round, built(st)-built(before), len(origins), st, before)
		}
		reused += st.Repaired + st.Carried - before.Repaired - before.Carried
		for _, n := range origins {
			sameTree(t, g, o.Tree(n))
		}
	}
	if reused == 0 {
		t.Fatal("no stale tree was repaired or carried; the race exercises full runs only")
	}
}

// TestWarmTreesCancellation: a cancelled warm leaves the un-computed
// entries harmless — the next demand lookup computes them through the
// usual singleflight path, with no double counting.
func TestWarmTreesCancellation(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 6, Seed: 13})
	o := NewOracle(net.G, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var origins []graph.NodeID
	for n := 0; n < net.G.NumNodes(); n++ {
		origins = append(origins, graph.NodeID(n))
	}
	if got := o.WarmTrees(ctx, origins); got != 0 {
		t.Fatalf("cancelled warm computed %d trees, want 0", got)
	}
	// Every origin still resolves on demand.
	for _, n := range origins {
		if sp := o.Tree(n); sp == nil || sp.Source != n {
			t.Fatalf("Tree(%d) after cancelled warm is broken", n)
		}
	}
	if st := o.Stats(); st.Misses != uint64(len(origins)) {
		t.Fatalf("misses=%d after demand-faulting %d origins", st.Misses, len(origins))
	}
}
