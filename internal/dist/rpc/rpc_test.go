package rpc

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/dist"
	"sof/internal/graph"
	"sof/internal/kstroll"
	"sof/internal/topology"
)

// buildSoftLayer reconstructs the test network deterministically — the
// leader and every domain server call it independently, sharing nothing
// but the seed, exactly like separate OS processes would.
func buildSoftLayer(seed int64) *topology.Network {
	return topology.SoftLayer(topology.Config{NumVMs: 20, Seed: seed})
}

func softLayerInstance(seed int64) (*topology.Network, core.Request, *core.Options) {
	net := buildSoftLayer(seed)
	rng := rand.New(rand.NewSource(seed))
	req := core.Request{
		Sources:  net.RandomNodes(rng, 5),
		Dests:    net.RandomNodes(rng, 4),
		ChainLen: 2,
	}
	return net, req, &core.Options{VMs: net.VMs}
}

// startDomains spins n real domain servers on 127.0.0.1:0 listeners, each
// over its own graph built by build, and returns their addresses. Servers
// are torn down with the test.
func startDomains(t testing.TB, n int, build func(i int) *topology.Network) []string {
	t.Helper()
	addrs, _ := startCountedDomains(t, n, build)
	return addrs
}

// startCountedDomains is startDomains plus a counter of the connections
// the servers accepted across all domains — the number of dials the
// leader's transport made.
func startCountedDomains(t testing.TB, n int, build func(i int) *topology.Network) ([]string, *atomic.Int64) {
	t.Helper()
	accepted := new(atomic.Int64)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen domain %d: %v", i, err)
		}
		srv := Serve(countingListener{Listener: lis, accepted: accepted}, NewDomainServer(build(i).G, chain.Options{}))
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs, accepted
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestRPCEquivalenceMatrix is the distributed correctness claim of
// Section VI carried over a real wire: on the 4-seed × 3-domain-count
// matrix, SOFDA through TCP domain servers — each rebuilding the network
// from the seed in its own right — costs exactly what the centralized
// solver costs, with every candidate streamed as fragments and dominated
// ones pruned at the leader. The matrix runs once: every process builds
// its trees with the same SSSP kernel, and the graph suites pin that
// kernel to the heap reference tree for tree.
func TestRPCEquivalenceMatrix(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		network, req, opts := softLayerInstance(seed)
		central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: centralized: %v", seed, err)
		}
		for _, domains := range []int{1, 3, 5} {
			addrs := startDomains(t, domains, func(int) *topology.Network { return buildSoftLayer(seed) })
			tr := NewTransport(addrs)
			cluster := dist.NewClusterWith(network.G, domains, dist.Config{Transport: tr, RetryBudget: 1})
			f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
			st := cluster.StreamStats()
			cluster.Close()
			tr.Close()
			if err != nil {
				t.Fatalf("seed %d domains %d: rpc distributed: %v", seed, domains, err)
			}
			if err := f.Validate(req.Sources, req.Dests); err != nil {
				t.Errorf("seed %d domains %d: infeasible forest: %v", seed, domains, err)
			}
			if f.TotalCost() != central.TotalCost() {
				t.Errorf("seed %d domains %d: rpc cost %v != centralized %v",
					seed, domains, f.TotalCost(), central.TotalCost())
			}
			if st.StreamedResults == 0 {
				t.Errorf("seed %d domains %d: moved no fragments (%+v)", seed, domains, st)
			}
		}
	}
}

// TestRPCStreamConnectionReuse runs several embeddings over one transport:
// the per-domain stream connections are dialed once, pooled between
// exchanges, and costs stay pinned to the centralized result.
func TestRPCStreamConnectionReuse(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs, accepted := startCountedDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()
	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
	defer cluster.Close()
	var dialed int64
	for i := 0; i < 4; i++ {
		f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
		if err != nil {
			t.Fatalf("embedding %d: %v", i, err)
		}
		if f.TotalCost() != central.TotalCost() {
			t.Fatalf("embedding %d: cost %v != centralized %v", i, f.TotalCost(), central.TotalCost())
		}
		// Every exchange has read its Done trailer by now, so the domains
		// accepted every connection this embedding dialed.
		if i == 0 {
			dialed = accepted.Load()
		} else if got := accepted.Load(); got != dialed {
			t.Fatalf("embedding %d dialed %d new connections; pooled connections were not reused", i, got-dialed)
		}
	}
	if dialed == 0 || dialed > 3 {
		t.Fatalf("first embedding dialed %d connections, want one per addressed domain (1..3)", dialed)
	}
}

// TestRPCConnectionReuseAcrossEmbeddings runs embeddings concurrently over
// one shared transport: each exchange takes a pooled connection to itself
// (dialing when the pool is empty), so concurrent streams to one domain
// never interleave on a connection, every cost stays pinned to the
// centralized result, and a later embedding is served from the pool
// without dialing again.
func TestRPCConnectionReuseAcrossEmbeddings(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs, accepted := startCountedDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()
	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
	defer cluster.Close()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts, Parallelism: 1})
				if err != nil {
					t.Errorf("concurrent embedding: %v", err)
					return
				}
				if f.TotalCost() != central.TotalCost() {
					t.Errorf("concurrent embedding: cost %v != centralized %v", f.TotalCost(), central.TotalCost())
				}
			}
		}()
	}
	wg.Wait()
	dialed := accepted.Load()
	if dialed == 0 || dialed > 3*workers {
		t.Fatalf("concurrent embeddings dialed %d connections, want 1..%d (one per domain and concurrent exchange)", dialed, 3*workers)
	}
	if _, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts}); err != nil {
		t.Fatalf("embedding after the concurrent ones: %v", err)
	}
	if got := accepted.Load(); got != dialed {
		t.Fatalf("embedding after the concurrent ones dialed %d new connections; the pool was not reused", got-dialed)
	}
}

// slowSolver delays every k-stroll solve, making a domain's batch slow
// enough that "abort at the next fragment write" is deterministically
// observable: the leader's RST reaches the domain long before the batch
// could finish on its own.
type slowSolver struct {
	inner kstroll.Solver
	delay time.Duration
}

func (s slowSolver) Solve(in *kstroll.Instance) (*kstroll.Walk, error) {
	time.Sleep(s.delay)
	return s.inner.Solve(in)
}

func (s slowSolver) Name() string { return "slow-" + s.inner.Name() }

// TestRPCStreamCancellationAbortsRemoteBatch pins remote abort on the
// wire: a leader that cancels a deadline-free context mid-stream severs
// the connection, and the remote domain must observe the dead peer at its
// next fragment write and abort the oracle fan-out — not finish the batch
// into the void.
func TestRPCStreamCancellationAbortsRemoteBatch(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDomainServer(buildSoftLayer(7).G, chain.Options{
		Solver: slowSolver{inner: kstroll.Auto(), delay: 2 * time.Millisecond},
	})
	srv := Serve(lis, ds)
	defer srv.Close()
	tr := NewTransport([]string{srv.Addr()})
	defer tr.Close()

	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		Parallelism: 1, // sequential domain, so the abort point is crisp
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = tr.SendStream(ctx, 0, creq, func(f *dist.CandidateFragment) error {
		cancel() // walk away after the first fragment, no deadline involved
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SendStream after mid-stream cancel = %v, want context.Canceled", err)
	}
	// The domain aborts at its next fragment write; give the wind-down a
	// moment, then require the solve counter to have stopped far short of
	// the batch (and to stay stopped).
	var solved uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := ds.dom.CacheStats().ChainMisses
		if s == solved && s > 0 {
			break // stable across a polling interval
		}
		solved = s
		if time.Now().After(deadline) {
			t.Fatal("domain solve counter never stabilized")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if solved >= uint64(len(pairs))/2 {
		t.Fatalf("domain solved %d of %d pairs after the leader cancelled — abandoned batch not aborted", solved, len(pairs))
	}
}

// TestFragmentCodecRoundTrip pins decode(encode(x)) == x on real captured
// fragments, trailer included.
func TestFragmentCodecRoundTrip(t *testing.T) {
	for i, frag := range captureFragments(t) {
		data, err := EncodeFragment(frag)
		if err != nil {
			t.Fatalf("fragment %d: encode: %v", i, err)
		}
		got, err := DecodeFragment(data)
		if err != nil {
			t.Fatalf("fragment %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, frag) {
			t.Errorf("fragment %d round trip mismatch:\n got %+v\nwant %+v", i, got, frag)
		}
	}
}

// TestRPCRepricedLeaderFallsBack changes the leader's graph state so it
// diverges from the domain servers' (which rebuilt the original network
// and never saw the change): every link repriced, one link of the
// centralized forest failed, or that link capacity-masked. The domains'
// digests no longer match; they refuse the requests, the leader's local
// fallback answers instead, and the forest matches a fresh centralized
// run on the leader's graph — never crossing an element the leader has
// blocked. Without the fallback the refusal surfaces as ErrGraphMismatch.
func TestRPCRepricedLeaderFallsBack(t *testing.T) {
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(23) })
	tr := NewTransport(addrs)
	defer tr.Close()
	for _, row := range []struct {
		name           string
		block, unblock func(g *graph.Graph, e graph.EdgeID) bool
	}{
		{name: "repriced"},
		{"failed-link", (*graph.Graph).FailEdge, (*graph.Graph).RestoreEdge},
		{"masked-link", (*graph.Graph).MaskEdge, (*graph.Graph).UnmaskEdge},
	} {
		network, req, opts := softLayerInstance(23)
		if row.block == nil {
			rng := rand.New(rand.NewSource(5))
			for e := 0; e < network.G.NumEdges(); e++ {
				network.G.SetEdgeCost(graph.EdgeID(e), 1+rng.Float64()*20)
			}
		} else {
			// Block the first link of the centralized forest whose loss
			// leaves the request feasible.
			pristine, err := core.SOFDACtx(context.Background(), network.G, req, opts)
			if err != nil {
				t.Fatal(err)
			}
			blocked := false
			for _, e := range pristine.Footprint().Edges {
				row.block(network.G, e)
				if _, err := core.SOFDACtx(context.Background(), network.G, req, opts); err == nil {
					blocked = true
					break
				}
				row.unblock(network.G, e)
			}
			if !blocked {
				t.Fatalf("%s: every link of the centralized forest is a bridge", row.name)
			}
		}
		central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
		if err != nil {
			t.Fatalf("%s: centralized: %v", row.name, err)
		}

		cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
		f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
		cluster.Close()
		if err != nil {
			t.Fatalf("%s: SOFDA with stale domains: %v", row.name, err)
		}
		if f.TotalCost() != central.TotalCost() {
			t.Errorf("%s: fallback cost %v != centralized %v on the leader's graph", row.name, f.TotalCost(), central.TotalCost())
		}
		for _, e := range f.Footprint().Edges {
			if network.G.EdgeBlocked(e) {
				t.Errorf("%s: forest crosses link %d, which the leader has blocked", row.name, e)
			}
		}

		// Without the fallback the mismatch must surface as the sentinel
		// even across the wire: it travels inside a refusal fragment (not
		// as a flattened error string), so errors.Is finds it leader-side.
		strict := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, DisableFallback: true})
		_, err = strict.SOFDA(context.Background(), req, dist.Options{Core: opts})
		strict.Close()
		if !errors.Is(err, dist.ErrGraphMismatch) {
			t.Fatalf("%s: SOFDA with stale domains and no fallback = %v, want wrapped ErrGraphMismatch", row.name, err)
		}
	}
}

// TestRPCTopologyDivergenceFallsBack starts domain servers on a network
// built from a different seed than the leader's. Both graphs can land on
// the same cost epoch (the epoch only counts mutations), so this is
// exactly the divergence only the topology digest catches: the domains
// must refuse, the fallback must answer, and the cost must match the
// leader-local centralized solve — never a silently wrong forest priced
// on the wrong graph.
func TestRPCTopologyDivergenceFallsBack(t *testing.T) {
	network, req, opts := softLayerInstance(42)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(1) })
	tr := NewTransport(addrs)
	defer tr.Close()

	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA against wrong-seed domains: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("fallback cost %v != centralized %v", f.TotalCost(), central.TotalCost())
	}

	strict := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, DisableFallback: true})
	defer strict.Close()
	if _, err := strict.SOFDA(context.Background(), req, dist.Options{Core: opts}); !errors.Is(err, dist.ErrGraphMismatch) {
		t.Fatalf("strict SOFDA against wrong-seed domains = %v, want wrapped ErrGraphMismatch", err)
	}
}

// TestDomainServerExpiredTimeout pins deadline propagation: a request
// whose wire time budget is already spent must fail with the context
// error before any result, not burn oracle time — in the domain handler,
// and as an errored trailer across the wire. The budget is a relative
// duration, so the test needs no clock agreement with the "leader".
func TestDomainServerExpiredTimeout(t *testing.T) {
	network, req, opts := softLayerInstance(1)
	ds := NewDomainServer(network.G, chain.Options{})
	creq := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		VMs:         opts.VMs,
		Pairs:       chain.Pairs(req.Sources, opts.VMs),
		Timeout:     -int64(time.Second),
	}
	emitted := 0
	err := ds.dom.AnswerStream(context.Background(), creq, func(*dist.CandidateFragment) error {
		emitted++
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || emitted != 0 {
		t.Fatalf("AnswerStream with spent time budget = %v after %d fragments, want context.DeadlineExceeded before any", err, emitted)
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(lis, ds)
	defer srv.Close()
	tr := NewTransport([]string{srv.Addr()})
	defer tr.Close()
	err = tr.SendStream(context.Background(), 0, creq, func(*dist.CandidateFragment) error {
		emitted++
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) || emitted != 0 {
		t.Fatalf("SendStream with spent time budget = %v after %d fragments, want the remote deadline error before any", err, emitted)
	}
}

// TestRPCSourceSetupMismatchRefused starts domains whose oracles price
// source setup (Appendix D) while the leader does not: graph epoch and
// digest agree, so only the handshake's pricing field can catch it. The
// strict leader must refuse; the default leader must answer from the
// fallback and match the centralized solve under its own pricing.
func TestRPCSourceSetupMismatchRefused(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := Serve(lis, NewDomainServer(buildSoftLayer(7).G, chain.Options{SourceSetupCost: true}))
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	tr := NewTransport(addrs)
	defer tr.Close()

	strict := dist.NewClusterWith(network.G, 2, dist.Config{Transport: tr, DisableFallback: true})
	defer strict.Close()
	if _, err := strict.SOFDA(context.Background(), req, dist.Options{Core: opts}); !errors.Is(err, dist.ErrGraphMismatch) {
		t.Fatalf("strict SOFDA against source-setup domains = %v, want wrapped ErrGraphMismatch", err)
	}

	lenient := dist.NewClusterWith(network.G, 2, dist.Config{Transport: tr})
	defer lenient.Close()
	f, err := lenient.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA with fallback against source-setup domains: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("fallback cost %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

// TestDomainServerGraphMismatch pins the wire handshake: a request whose
// topology digest disagrees is answered with a single Done fragment
// carrying the domain's own epoch and digest and no results — a
// well-formed message, so the refusal survives codecs that flatten
// errors. A request whose epoch drifted but whose digest proves the graphs
// identical is solved normally: epoch counters are bookkeeping, content
// equality is what the handshake protects.
func TestDomainServerGraphMismatch(t *testing.T) {
	network, req, opts := softLayerInstance(1)
	ds := NewDomainServer(network.G, chain.Options{})
	pairs := chain.Pairs(req.Sources, opts.VMs)

	refusal := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G) ^ 1,
		ChainLen:    req.ChainLen,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	var frags []*dist.CandidateFragment
	if err := ds.dom.AnswerStream(context.Background(), refusal, func(f *dist.CandidateFragment) error {
		frags = append(frags, f)
		return nil
	}); err != nil {
		t.Fatalf("wrong digest: AnswerStream = %v, want refusal fragment, not error", err)
	}
	if len(frags) != 1 || !frags[0].Done || len(frags[0].Results) != 0 {
		t.Fatalf("wrong digest: got %d fragments (%+v), want one Done fragment with no results", len(frags), frags)
	}
	if frags[0].CostEpoch != network.G.CostEpoch() || frags[0].GraphDigest != dist.GraphDigest(network.G) {
		t.Error("wrong digest: refusal does not carry the domain's own epoch/digest")
	}

	drifted := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch() + 7,
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	results := 0
	if err := ds.dom.AnswerStream(context.Background(), drifted, func(f *dist.CandidateFragment) error {
		results += len(f.Results)
		return nil
	}); err != nil {
		t.Fatalf("drifted epoch, equal digest: AnswerStream = %v", err)
	}
	if results != len(pairs) {
		t.Errorf("drifted epoch, equal digest: answered %d results for %d pairs — epoch drift over an identical graph must not refuse",
			results, len(pairs))
	}
}

// TestRPCEpochDriftOverIdenticalGraphStaysDistributed pins the silent-
// degradation regression: a leader that bumped its cost epoch without
// changing its graph state (a cost or a link failure set and restored)
// must keep being served by remote domains whose counters never moved —
// under DisableFallback, so a refusal would fail loudly instead of being
// papered over.
func TestRPCEpochDriftOverIdenticalGraphStaysDistributed(t *testing.T) {
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()
	for _, row := range []struct {
		name  string
		drift func(g *graph.Graph)
	}{
		{"cost-restored", func(g *graph.Graph) {
			orig := g.EdgeCost(0)
			g.SetEdgeCost(0, orig+1)
			g.SetEdgeCost(0, orig)
		}},
		{"fail-restored", func(g *graph.Graph) {
			g.FailEdge(0)
			g.RestoreEdge(0)
		}},
	} {
		network, req, opts := softLayerInstance(7)
		central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
		if err != nil {
			t.Fatal(err)
		}
		before := network.G.CostEpoch()
		row.drift(network.G)
		if network.G.CostEpoch() == before {
			t.Fatalf("%s: the leader's epoch did not drift", row.name)
		}
		cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, DisableFallback: true})
		f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
		cluster.Close()
		if err != nil {
			t.Fatalf("%s: SOFDA after leader epoch drift (no fallback armed): %v", row.name, err)
		}
		if f.TotalCost() != central.TotalCost() {
			t.Errorf("%s: cost after epoch drift %v != centralized %v", row.name, f.TotalCost(), central.TotalCost())
		}
	}
}

// captureMessages builds a real request and the wire results a domain
// computes for it off the equivalence-test instance — the same payloads
// the wire moves, reused as the codec tests' ground truth and the fuzz
// targets' seed corpus.
func captureMessages(tb testing.TB) (*dist.CandidateRequest, []dist.CandidateResult) {
	tb.Helper()
	network, req, opts := softLayerInstance(1)
	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		Parallelism: 1,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	oracle := chain.NewOracle(network.G, chain.Options{})
	results, err := oracle.Chains(context.Background(), opts.VMs, pairs, req.ChainLen, 1)
	if err != nil {
		tb.Fatalf("capture: %v", err)
	}
	return creq, dist.WireResults(results)
}

// captureFragments runs a real AnswerStream over the captured request and
// returns every fragment it emits — results-bearing fragments plus the
// Done trailer — as ground truth for the codec round-trip tests. How many
// fragments it sees depends on scheduling (the stream coalesces whatever
// has completed), so the fragment fuzz target seeds from captureMessages'
// results instead.
func captureFragments(tb testing.TB) []*dist.CandidateFragment {
	tb.Helper()
	network, req, opts := softLayerInstance(1)
	dom := dist.NewDomain(network.G, chain.Options{})
	creq := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch(),
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		Parallelism: 1,
		VMs:         opts.VMs,
		Pairs:       chain.Pairs(req.Sources, opts.VMs),
	}
	var frags []*dist.CandidateFragment
	if err := dom.AnswerStream(context.Background(), creq, func(f *dist.CandidateFragment) error {
		frags = append(frags, f)
		return nil
	}); err != nil {
		tb.Fatalf("capture fragments: %v", err)
	}
	if len(frags) < 2 {
		tb.Fatalf("capture fragments: got %d fragments, want results plus trailer", len(frags))
	}
	return frags
}

// TestCandidateCodecRoundTrip pins decode(encode(x)) == x on a real
// captured request, field for field (TestFragmentCodecRoundTrip covers
// the fragments).
func TestCandidateCodecRoundTrip(t *testing.T) {
	req, _ := captureMessages(t)
	reqData, err := EncodeRequest(req)
	if err != nil {
		t.Fatalf("encode request: %v", err)
	}
	gotReq, err := DecodeRequest(reqData)
	if err != nil {
		t.Fatalf("decode request: %v", err)
	}
	if !reflect.DeepEqual(gotReq, req) {
		t.Errorf("request round trip mismatch:\n got %+v\nwant %+v", gotReq, req)
	}
}

// TestCandidateCodecCorruptedPayload flips bytes of a valid encoding at
// every position: decode must error or succeed, never panic (the fuzz
// targets explore this space much harder; this is the deterministic
// smoke version).
func TestCandidateCodecCorruptedPayload(t *testing.T) {
	req, _ := captureMessages(t)
	data, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0xff
		_, _ = DecodeRequest(corrupt) // must not panic
	}
	if _, err := DecodeRequest(data[:len(data)/2]); err == nil {
		t.Error("decoding a truncated request succeeded")
	}
	if _, err := DecodeFragment([]byte("definitely not gob")); err == nil {
		t.Error("decoding garbage as a fragment succeeded")
	}
}
