package dist

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
	"sof/internal/topology"
)

func softLayerInstance(seed int64) (*topology.Network, core.Request, *core.Options) {
	net := topology.SoftLayer(topology.Config{NumVMs: 20, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	req := core.Request{
		Sources:  net.RandomNodes(rng, 5),
		Dests:    net.RandomNodes(rng, 4),
		ChainLen: 2,
	}
	return net, req, &core.Options{VMs: net.VMs}
}

// TestDistributedMatchesCentralized is the distributed correctness claim
// of Section VI: on the same instance, the leader-completed forest costs
// exactly what the centralized SOFDA costs, for any number of domains.
func TestDistributedMatchesCentralized(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		net, req, opts := softLayerInstance(seed)
		central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: centralized: %v", seed, err)
		}
		for _, domains := range []int{1, 3, 5} {
			cluster := NewCluster(net.G, domains, chain.Options{})
			f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
			if err != nil {
				t.Fatalf("seed %d domains %d: distributed: %v", seed, domains, err)
			}
			if err := f.Validate(req.Sources, req.Dests); err != nil {
				t.Errorf("seed %d domains %d: infeasible forest: %v", seed, domains, err)
			}
			if f.TotalCost() != central.TotalCost() {
				t.Errorf("seed %d domains %d: distributed cost %v != centralized %v",
					seed, domains, f.TotalCost(), central.TotalCost())
			}
		}
	}
}

func TestDistributedZeroChainDegenerate(t *testing.T) {
	net, req, opts := softLayerInstance(3)
	req.ChainLen = 0
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(net.G, 3, chain.Options{})
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("distributed %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

func TestClusterCancelledContext(t *testing.T) {
	net, req, opts := softLayerInstance(9)
	cluster := NewCluster(net.G, 3, chain.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cluster.SOFDA(ctx, req, Options{Core: opts}); err == nil {
		t.Fatal("SOFDA with cancelled context returned nil error")
	}
	// The cluster must remain usable after a cancelled embedding.
	if _, err := cluster.SOFDA(context.Background(), req, Options{Core: opts}); err != nil {
		t.Fatalf("SOFDA after cancellation: %v", err)
	}
}

// TestClusterConcurrentSOFDA runs several embeddings on one cluster at
// once (run with -race): the domains' oracles and the leader gather path
// must tolerate interleaved batches.
func TestClusterConcurrentSOFDA(t *testing.T) {
	net, req, opts := softLayerInstance(13)
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(net.G, 3, chain.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 2*runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts, Parallelism: 2})
			if err != nil {
				t.Errorf("concurrent SOFDA: %v", err)
				return
			}
			if f.TotalCost() != central.TotalCost() {
				t.Errorf("concurrent SOFDA cost %v != centralized %v", f.TotalCost(), central.TotalCost())
			}
		}()
	}
	wg.Wait()
}

// TestInvalidateCacheAfterCostChange mutates edge costs between two
// embeddings on one long-lived cluster: after InvalidateCache the
// distributed cost must track a fresh centralized run again.
func TestInvalidateCacheAfterCostChange(t *testing.T) {
	net, req, opts := softLayerInstance(21)
	cluster := NewCluster(net.G, 3, chain.Options{})
	if _, err := cluster.SOFDA(context.Background(), req, Options{Core: opts}); err != nil {
		t.Fatal(err)
	}
	// Warm caches, then reprice every backbone link.
	rng := rand.New(rand.NewSource(99))
	for e := 0; e < net.G.NumEdges(); e++ {
		net.G.SetEdgeCost(graph.EdgeID(e), 1+rng.Float64()*20)
	}
	cluster.InvalidateCache()
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("after cost change: distributed %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

// TestDomainsExceedNodeCount embeds with far more domains than nodes:
// most domains own no nodes at all (and thus receive no pairs), yet the
// partition stays total and the cost stays centralized.
func TestDomainsExceedNodeCount(t *testing.T) {
	net, req, opts := softLayerInstance(4)
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(net.G, 2*net.G.NumNodes(), chain.Options{})
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA with %d domains over %d nodes: %v", cluster.NumDomains(), net.G.NumNodes(), err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("distributed %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

// TestSingleNodeDomains gives every node its own controller — the finest
// partition the ID-range scheme produces.
func TestSingleNodeDomains(t *testing.T) {
	net, req, opts := softLayerInstance(6)
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(net.G, net.G.NumNodes(), chain.Options{})
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA with one node per domain: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("distributed %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

// TestEmptyDomainReceivesNoPairs embeds a single-source request over many
// domains: every domain but the source's receives no pairs and must never
// be dispatched to (pinned by a transport that counts distinct domains).
func TestEmptyDomainReceivesNoPairs(t *testing.T) {
	net, req, opts := softLayerInstance(8)
	req.Sources = req.Sources[:1]
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewChannelTransport(net.G, 5, chain.Options{})
	counter := &countingTransport{inner: inner, domains: make(map[int]int)}
	cluster := NewClusterWith(net.G, 5, Config{Transport: counter})
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("distributed %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
	counter.mu.Lock()
	defer counter.mu.Unlock()
	if len(counter.domains) != 1 {
		t.Errorf("single-source request dispatched to %d domains, want 1 (%v)", len(counter.domains), counter.domains)
	}
}

// countingTransport records which domains were actually sent to.
type countingTransport struct {
	inner   Transport
	mu      sync.Mutex
	domains map[int]int
}

func (c *countingTransport) SendStream(ctx context.Context, domainID int, req *CandidateRequest, sink func(*CandidateFragment) error) error {
	c.mu.Lock()
	c.domains[domainID]++
	c.mu.Unlock()
	return c.inner.SendStream(ctx, domainID, req, sink)
}

// TestDomainWithoutCandidateVMs restricts the candidate VM set to VMs that
// all live in the last domain: the other domains own sources but no
// candidate VMs, so their chains must reach across domain boundaries — and
// the cost must still match the centralized solve under the same
// restriction.
func TestDomainWithoutCandidateVMs(t *testing.T) {
	net, req, _ := softLayerInstance(12)
	restricted := &core.Options{VMs: net.VMs[:3]}
	central, err := core.SOFDACtx(context.Background(), net.G, req, restricted)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(net.G, 3, chain.Options{})
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: restricted})
	if err != nil {
		t.Fatalf("SOFDA with VM-free domains: %v", err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Errorf("infeasible forest: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("distributed %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

func TestDomainPartitionCoversAllNodes(t *testing.T) {
	net, _, _ := softLayerInstance(1)
	for _, domains := range []int{1, 2, 3, 7, 1000} {
		cluster := NewCluster(net.G, domains, chain.Options{})
		counts := make([]int, cluster.NumDomains())
		for n := 0; n < net.G.NumNodes(); n++ {
			d := cluster.domainOf(graph.NodeID(n))
			if d < 0 || d >= cluster.NumDomains() {
				t.Fatalf("domains=%d: node %d mapped to domain %d", domains, n, d)
			}
			counts[d]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != net.G.NumNodes() {
			t.Fatalf("domains=%d: partition covers %d of %d nodes", domains, total, net.G.NumNodes())
		}
	}
}

// TestLeaderTreeMisses pins the shortest-path trees the leader builds on
// its own oracle for one distributed embed (Cogent, 16 VMs, 3 sources, 8
// destinations, chain length 3). The domains solve the chains, so the
// leader's trees are the destinations' trees its pruning rule and the
// Steiner phase read, and the VM trees its pruning checks and ŝ's row
// read: at most 8 + 16. A change to what the leader reads moves the count
// and must say why.
func TestLeaderTreeMisses(t *testing.T) {
	net := topology.Cogent(topology.Config{NumVMs: 16, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	req := core.Request{Sources: net.RandomNodes(rng, 3), Dests: net.RandomNodes(rng, 8), ChainLen: 3}
	opts := &core.Options{VMs: net.VMs}
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	leader := chain.NewOracle(net.G, chain.Options{})
	cluster := NewCluster(net.G, 3, chain.Options{})
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: &core.Options{VMs: net.VMs, Oracle: leader}})
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Fatalf("distributed cost %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
	if got := leader.Stats().Misses; got != 23 {
		t.Fatalf("the leader built %d trees on its oracle, want 23", got)
	}
}
