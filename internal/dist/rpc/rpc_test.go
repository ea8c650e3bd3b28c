package rpc

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
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

// startDomains spins n real net/rpc domain servers on 127.0.0.1:0
// listeners, each over its own graph built by build, and returns their
// addresses. Servers are torn down with the test.
func startDomains(t testing.TB, n int, build func(i int) *topology.Network) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen domain %d: %v", i, err)
		}
		srv, err := Serve(lis, NewDomainServer(build(i).G, chain.Options{}))
		if err != nil {
			t.Fatalf("serve domain %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// TestRPCEquivalenceMatrix is the distributed correctness claim of
// Section VI carried over a real wire: on the 4-seed × 3-domain-count
// matrix, SOFDA through net/rpc domain servers — each rebuilding the
// network from the seed in its own right — costs exactly what the
// centralized solver costs. Three exchanges run over the same servers:
// the one-shot batch call, the server-streamed fragment join (with
// dominated-candidate pruning armed), and the streamed join with eager
// per-source closure — all of which must agree bit for bit. The whole
// matrix runs twice: once with the indexed heap pinned (the package
// default graph.DeltaSteppingMinNodes set negative) and once with the
// delta-stepping SSSP core forced on (the default pinned to 1). The
// domain servers build their own oracles, so the process-wide default is
// the only gate that reaches them. Delta-stepping's trees match the
// heap's exactly, so no cost moves.
func TestRPCEquivalenceMatrix(t *testing.T) {
	savedDelta := graph.DeltaSteppingMinNodes
	t.Cleanup(func() { graph.DeltaSteppingMinNodes = savedDelta })
	centralBySeed := make(map[int64]float64)
	for _, queue := range []string{"heap", "delta"} {
		if queue == "heap" {
			graph.DeltaSteppingMinNodes = -1
		} else {
			graph.DeltaSteppingMinNodes = 1
		}
		for _, seed := range []int64{1, 7, 23, 42} {
			network, req, opts := softLayerInstance(seed)
			central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
			if err != nil {
				t.Fatalf("seed %d: centralized: %v", seed, err)
			}
			if prev, ok := centralBySeed[seed]; ok && prev != central.TotalCost() {
				t.Errorf("seed %d: centralized cost moved across SSSP queues (%s): %v vs %v",
					seed, queue, prev, central.TotalCost())
			}
			centralBySeed[seed] = central.TotalCost()
			for _, domains := range []int{1, 3, 5} {
				addrs := startDomains(t, domains, func(int) *topology.Network { return buildSoftLayer(seed) })
				tr := NewTransport(addrs)
				for _, mode := range []struct {
					name string
					cfg  dist.Config
				}{
					{"batch", dist.Config{}},
					{"stream", dist.Config{Streaming: true}},
					{"stream-eager", dist.Config{Streaming: true, EagerClosure: true}},
				} {
					cfg := mode.cfg
					cfg.Transport = tr
					cfg.RetryBudget = 1
					cluster := dist.NewClusterWith(network.G, domains, cfg)
					f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
					if err != nil {
						cluster.Close()
						tr.Close()
						t.Fatalf("seed %d domains %d %s queue=%s: rpc distributed: %v", seed, domains, mode.name, queue, err)
					}
					if err := f.Validate(req.Sources, req.Dests); err != nil {
						t.Errorf("seed %d domains %d %s queue=%s: infeasible forest: %v", seed, domains, mode.name, queue, err)
					}
					if f.TotalCost() != central.TotalCost() {
						t.Errorf("seed %d domains %d %s queue=%s: rpc cost %v != centralized %v",
							seed, domains, mode.name, queue, f.TotalCost(), central.TotalCost())
					}
					st := cluster.StreamStats()
					if mode.name != "batch" && st.StreamedResults == 0 {
						t.Errorf("seed %d domains %d %s: streamed run moved no fragments (%+v)", seed, domains, mode.name, st)
					}
					if mode.name == "stream-eager" && st.EarlyClosures == 0 {
						t.Errorf("seed %d domains %d: eager run closed nothing early (%+v)", seed, domains, st)
					}
					cluster.Close()
				}
				tr.Close()
			}
		}
	}
}

// TestRPCStreamConnectionReuse runs several streamed embeddings over one
// transport: the per-domain stream connections are dialed once, pooled
// between exchanges, and costs stay pinned to the centralized result.
func TestRPCStreamConnectionReuse(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()
	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, Streaming: true})
	defer cluster.Close()
	for i := 0; i < 4; i++ {
		f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
		if err != nil {
			t.Fatalf("streamed embedding %d: %v", i, err)
		}
		if f.TotalCost() != central.TotalCost() {
			t.Fatalf("streamed embedding %d: cost %v != centralized %v", i, f.TotalCost(), central.TotalCost())
		}
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

// TestRPCStreamCancellationAbortsRemoteBatch pins the abandoned-batch fix
// on the wire: a leader that cancels a deadline-free context mid-stream
// severs the connection, and the remote domain must observe the dead peer
// at its next fragment write and abort the oracle fan-out — not finish
// the batch into the void, as the batch exchange documented it would.
func TestRPCStreamCancellationAbortsRemoteBatch(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDomainServer(buildSoftLayer(7).G, chain.Options{
		Solver: slowSolver{inner: kstroll.Auto(), delay: 2 * time.Millisecond},
	})
	srv, err := Serve(lis, ds)
	if err != nil {
		t.Fatal(err)
	}
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

// TestRPCConnectionReuseAcrossEmbeddings runs several embeddings over one
// transport: the per-domain connections are dialed once and reused, and
// costs stay pinned to the centralized result every time.
func TestRPCConnectionReuseAcrossEmbeddings(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()
	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
	defer cluster.Close()
	for i := 0; i < 4; i++ {
		f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
		if err != nil {
			t.Fatalf("embedding %d: %v", i, err)
		}
		if f.TotalCost() != central.TotalCost() {
			t.Fatalf("embedding %d: cost %v != centralized %v", i, f.TotalCost(), central.TotalCost())
		}
	}
}

// TestRPCRepricedLeaderFallsBack reprices the leader's links so its graph
// content diverges from the domain servers' (which rebuilt the original
// network and never saw the mutation). The domains' digests no longer
// match; they refuse the stale-priced requests, the leader's local
// fallback answers instead, and the forest still matches a fresh
// centralized run on the mutated graph.
func TestRPCRepricedLeaderFallsBack(t *testing.T) {
	network, req, opts := softLayerInstance(23)
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(23) })
	tr := NewTransport(addrs)
	defer tr.Close()

	rng := rand.New(rand.NewSource(5))
	for e := 0; e < network.G.NumEdges(); e++ {
		network.G.SetEdgeCost(graph.EdgeID(e), 1+rng.Float64()*20)
	}
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}

	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA with stale domains: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("fallback cost %v != centralized %v on the repriced graph", f.TotalCost(), central.TotalCost())
	}

	// Without the fallback the mismatch must surface as the sentinel even
	// across the wire: it travels inside the response (not as a flattened
	// server error), so errors.Is still finds it leader-side.
	strict := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, DisableFallback: true})
	defer strict.Close()
	if _, err := strict.SOFDA(context.Background(), req, dist.Options{Core: opts}); !errors.Is(err, dist.ErrGraphMismatch) {
		t.Fatalf("SOFDA with stale domains and no fallback = %v, want wrapped ErrGraphMismatch", err)
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
// error, not burn oracle time. The budget is a relative duration, so the
// test needs no clock agreement with the "leader".
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
	var resp dist.CandidateResponse
	err := ds.Candidates(creq, &resp)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Candidates with spent time budget = %v, want context.DeadlineExceeded", err)
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
		srv, err := Serve(lis, NewDomainServer(buildSoftLayer(7).G, chain.Options{SourceSetupCost: true}))
		if err != nil {
			t.Fatal(err)
		}
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
// topology digest disagrees is answered with the domain's own values and
// no results — a well-formed response, so the refusal survives codecs
// that flatten errors. A request whose epoch drifted but whose digest
// proves the graphs identical is solved normally: epoch counters are
// bookkeeping, content equality is what the handshake protects.
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
	var resp dist.CandidateResponse
	if err := ds.Candidates(refusal, &resp); err != nil {
		t.Fatalf("wrong digest: Candidates = %v, want refusal response, not error", err)
	}
	if len(resp.Results) != 0 {
		t.Errorf("wrong digest: refusal carried %d results", len(resp.Results))
	}
	if resp.CostEpoch != network.G.CostEpoch() || resp.GraphDigest != dist.GraphDigest(network.G) {
		t.Error("wrong digest: refusal does not carry the domain's own epoch/digest")
	}

	drifted := &dist.CandidateRequest{
		CostEpoch:   network.G.CostEpoch() + 7,
		GraphDigest: dist.GraphDigest(network.G),
		ChainLen:    req.ChainLen,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	var resp2 dist.CandidateResponse
	if err := ds.Candidates(drifted, &resp2); err != nil {
		t.Fatalf("drifted epoch, equal digest: Candidates = %v", err)
	}
	if len(resp2.Results) != len(pairs) {
		t.Errorf("drifted epoch, equal digest: answered %d results for %d pairs — epoch drift over an identical graph must not refuse",
			len(resp2.Results), len(pairs))
	}
}

// TestRPCEpochDriftOverIdenticalGraphStaysDistributed pins the silent-
// degradation regression: a leader that bumped its cost epoch without
// changing any cost (bump-and-restore, InvalidateCache) must keep being
// served by remote domains whose counters never moved — under
// DisableFallback, so a refusal would fail loudly instead of being
// papered over.
func TestRPCEpochDriftOverIdenticalGraphStaysDistributed(t *testing.T) {
	network, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), network.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := startDomains(t, 3, func(int) *topology.Network { return buildSoftLayer(7) })
	tr := NewTransport(addrs)
	defer tr.Close()

	// Drift the leader's epoch over unchanged content.
	orig := network.G.EdgeCost(0)
	network.G.SetEdgeCost(0, orig+1)
	network.G.SetEdgeCost(0, orig)
	cluster := dist.NewClusterWith(network.G, 3, dist.Config{Transport: tr, DisableFallback: true})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, dist.Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA after leader epoch drift (no fallback armed): %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("cost after epoch drift %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

// captureMessages builds a real request and its real response off the
// equivalence-test instance — the same payloads the wire moves, reused as
// the codec tests' ground truth and the fuzz targets' seed corpus.
func captureMessages(tb testing.TB) (*dist.CandidateRequest, *dist.CandidateResponse) {
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
	return creq, &dist.CandidateResponse{
		CostEpoch:   creq.CostEpoch,
		GraphDigest: creq.GraphDigest,
		Results:     dist.WireResults(results),
	}
}

// captureFragments runs a real AnswerStream over the captured request and
// returns every fragment it emits — results-bearing fragments plus the
// Done trailer — as ground truth for the codec round-trip tests. How many
// fragments it sees depends on scheduling (the stream coalesces whatever
// has completed), so the fragment fuzz target seeds from the batch
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

// TestCandidateCodecRoundTrip pins decode(encode(x)) == x on real captured
// messages, field for field.
func TestCandidateCodecRoundTrip(t *testing.T) {
	req, resp := captureMessages(t)
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
	respData, err := EncodeResponse(resp)
	if err != nil {
		t.Fatalf("encode response: %v", err)
	}
	gotResp, err := DecodeResponse(respData)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		t.Errorf("response round trip mismatch: got %d results, want %d",
			len(gotResp.Results), len(resp.Results))
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
	if _, err := DecodeResponse([]byte("definitely not gob")); err == nil {
		t.Error("decoding garbage as a response succeeded")
	}
}
