package sof

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sof/internal/graph"
	"sof/internal/topology"
)

// solverTestRequests draws n random SoftLayer requests with a fixed seed.
func solverTestRequests(net *topology.Network, n int) []Request {
	rng := rand.New(rand.NewSource(7))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Sources:      net.RandomNodes(rng, 2+rng.Intn(3)),
			Destinations: net.RandomNodes(rng, 2+rng.Intn(3)),
			ChainLength:  2,
		}
	}
	return reqs
}

func TestSolverMatchesNetworkEmbed(t *testing.T) {
	net, s, d := buildLine(t)
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}
	solver := NewSolver(net)
	for _, algo := range []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmENEMP, AlgorithmEST, AlgorithmST, AlgorithmExact} {
		want, err := net.Embed(req, algo)
		if err != nil {
			t.Fatalf("%s wrapper: %v", algo, err)
		}
		got, err := solver.EmbedAlgorithm(context.Background(), req, algo)
		if err != nil {
			t.Fatalf("%s solver: %v", algo, err)
		}
		if got.TotalCost() != want.TotalCost() {
			t.Errorf("%s: solver cost %v != wrapper cost %v", algo, got.TotalCost(), want.TotalCost())
		}
	}
	if _, err := solver.EmbedAlgorithm(context.Background(), req, "nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}

	// Wrapper compatibility: a non-nil empty VMs slice means "no candidate
	// VMs" (the embed must fail), not "no restriction".
	if _, err := net.EmbedContext(context.Background(), req, AlgorithmSOFDA,
		&EmbedOptions{VMs: []NodeID{}}); err == nil {
		t.Error("empty non-nil EmbedOptions.VMs embedded against all VMs")
	}
}

// TestSolverWarmCacheEpochInvalidation is the cost-epoch contract: embeds
// under unchanged costs pay zero additional Dijkstra computations, a
// genuine cost change invalidates (and the post-change result matches a
// fresh solve), and rewriting a cost to its current value keeps the cache
// warm.
func TestSolverWarmCacheEpochInvalidation(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 15, Seed: 3})
	snet := FromGraph(net.G)
	solver := NewSolver(snet, WithVMs(net.VMs...))
	rng := rand.New(rand.NewSource(3))
	req := Request{
		Sources:      net.RandomNodes(rng, 4),
		Destinations: net.RandomNodes(rng, 4),
		ChainLength:  2,
	}
	ctx := context.Background()

	first, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cold := solver.CacheStats()
	if cold.Misses == 0 {
		t.Fatal("cold embed performed no Dijkstra computations")
	}

	second, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warm := solver.CacheStats()
	if treesBuilt(warm) != treesBuilt(cold) {
		t.Errorf("unchanged-cost re-embed rebuilt %d trees; cache entries did not survive",
			treesBuilt(warm)-treesBuilt(cold))
	}
	if warm.Hits <= cold.Hits {
		t.Error("warm embed recorded no cache hits")
	}
	if second.TotalCost() != first.TotalCost() {
		t.Errorf("warm cost %v != cold cost %v", second.TotalCost(), first.TotalCost())
	}

	// Rewriting a cost to its current value must not advance the epoch.
	if err := snet.SetLinkCost(0, net.G.EdgeCost(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Embed(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got := solver.CacheStats(); treesBuilt(got) != treesBuilt(cold) {
		t.Errorf("same-value SetLinkCost invalidated the cache (%d trees rebuilt)", treesBuilt(got)-treesBuilt(cold))
	}

	// A real change invalidates: the next embed rebuilds trees (full runs,
	// repairs or carries), serves the fresh ones, and matches a fresh
	// one-shot solve on the mutated network.
	if err := snet.SetLinkCost(0, net.G.EdgeCost(0)*10+1); err != nil {
		t.Fatal(err)
	}
	mutated, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after := solver.CacheStats()
	if treesBuilt(after) == treesBuilt(cold) {
		t.Error("cost change did not invalidate the cache")
	}
	for _, src := range req.Sources {
		checkFreshTree(t, solver, src)
	}
	fresh, err := snet.Embed(req, AlgorithmSOFDA)
	if err != nil {
		t.Fatal(err)
	}
	if mutated.TotalCost() != fresh.TotalCost() {
		t.Errorf("post-mutation session cost %v != fresh solve %v", mutated.TotalCost(), fresh.TotalCost())
	}
}

// treesBuilt is the number of trees a session's oracle built: full runs,
// repairs and carries. Every cold or stale tree lookup adds exactly one.
func treesBuilt(st CacheStats) uint64 { return st.Misses + st.Repaired + st.Carried }

// checkFreshTree fails the test unless the session serves, for origin n,
// bit for bit the tree a full run over the network's current state
// builds.
func checkFreshTree(t *testing.T, s *Solver, n NodeID) {
	t.Helper()
	got, want := s.oracle.Tree(n), graph.Dijkstra(s.net.g, n)
	for v := range want.Dist {
		if got.Dist[v] != want.Dist[v] || got.Parent[v] != want.Parent[v] || got.ParentEdge[v] != want.ParentEdge[v] {
			t.Fatalf("tree from %d, node %d: served (%v,%d,%d), full run (%v,%d,%d)", n, v,
				got.Dist[v], got.Parent[v], got.ParentEdge[v], want.Dist[v], want.Parent[v], want.ParentEdge[v])
		}
	}
}

func TestSolverEmbedBatch(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 15, Seed: 5})
	solver := NewSolver(FromGraph(net.G), WithVMs(net.VMs...))
	reqs := solverTestRequests(net, 6)
	results, err := solver.EmbedBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	single := NewSolver(FromGraph(net.G), WithVMs(net.VMs...))
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
		want, err := single.Embed(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Forest.TotalCost() != want.TotalCost() {
			t.Errorf("request %d: batch cost %v != individual cost %v", i, r.Forest.TotalCost(), want.TotalCost())
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	results, err = solver.EmbedBatch(cancelled, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch error = %v", err)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("request %d has no error after pre-cancelled batch", i)
		}
	}
}

// TestSolverEmbedStreamFewerDijkstras is the acceptance bar of the session
// API: a 50-request unchanged-cost stream through one Solver must perform
// strictly fewer Dijkstra computations than 50 independent Network.Embed
// calls. Network.Embed is by construction a one-shot Solver per call, so
// the independent side is counted through 50 fresh sessions (identical
// work) and cross-checked against actual Network.Embed costs.
func TestSolverEmbedStreamFewerDijkstras(t *testing.T) {
	const n = 50
	net := topology.SoftLayer(topology.Config{NumVMs: 15, Seed: 9})
	snet := FromGraph(net.G)
	reqs := solverTestRequests(net, n)

	var independent uint64
	costs := make([]float64, n)
	for i, req := range reqs {
		oneShot := NewSolver(snet, WithVMs(net.VMs...))
		f, err := oneShot.Embed(context.Background(), req)
		if err != nil {
			t.Fatalf("one-shot %d: %v", i, err)
		}
		costs[i] = f.TotalCost()
		independent += oneShot.CacheStats().Misses

		wrapper, err := snet.EmbedContext(context.Background(), req, AlgorithmSOFDA, &EmbedOptions{VMs: net.VMs})
		if err != nil {
			t.Fatalf("Network.Embed %d: %v", i, err)
		}
		if wrapper.TotalCost() != costs[i] {
			t.Fatalf("request %d: wrapper cost %v != one-shot session cost %v", i, wrapper.TotalCost(), costs[i])
		}
	}

	shared := NewSolver(snet, WithVMs(net.VMs...))
	in := make(chan Request)
	go func() {
		defer close(in)
		for _, r := range reqs {
			in <- r
		}
	}()
	got := 0
	for res := range shared.EmbedStream(context.Background(), in) {
		if res.Err != nil {
			t.Fatalf("stream request %d: %v", res.Index, res.Err)
		}
		if res.Forest.TotalCost() != costs[res.Index] {
			t.Errorf("stream request %d: cost %v != independent cost %v",
				res.Index, res.Forest.TotalCost(), costs[res.Index])
		}
		got++
	}
	if got != n {
		t.Fatalf("stream delivered %d results, want %d", got, n)
	}
	streamed := shared.CacheStats().Misses
	if streamed >= independent {
		t.Errorf("shared stream performed %d Dijkstras, independent embeds %d; want strictly fewer",
			streamed, independent)
	}
	t.Logf("Dijkstra computations: stream=%d independent=%d (%.1fx fewer)",
		streamed, independent, float64(independent)/float64(streamed))
}

func TestSolverEmbedStreamCancellation(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 15, Seed: 11})
	solver := NewSolver(FromGraph(net.G), WithVMs(net.VMs...))
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan Request)
	out := solver.EmbedStream(ctx, in)
	reqs := solverTestRequests(net, 2)
	in <- reqs[0]
	<-out
	cancel()
	// The stream must terminate even though the input channel stays open.
	for range out {
	}
}

// TestSolverAdmissionThresholdStream drives EmbedStream through adaptive
// admission (Lukovszki & Schmid's online admission model): requests whose
// utilization price exceeds their budget must come back as typed
// ErrAdmissionRejected results, the others must still embed, and a
// rejection must not perturb later embeds — a session that never saw the
// rejected requests embeds the admitted ones at the same costs and ends
// with the same load on every link and VM.
func TestSolverAdmissionThresholdStream(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 8, Seed: 3})
	fresh := func() *Network { return FromGraph(topology.SoftLayer(topology.Config{NumVMs: 8, Seed: 3}).G) }
	reqs := solverTestRequests(net, 12)
	session := func(opts ...Option) *Solver {
		return NewSolver(fresh(), append([]Option{WithVMs(net.VMs...), WithParallelism(1), WithCapacity(10, 10)}, opts...)...)
	}

	solver := session(WithAdaptiveAdmission(16, 0.01))
	in := make(chan Request)
	go func() {
		defer close(in)
		for _, r := range reqs {
			in <- r
		}
	}()
	admitted := make(map[int]float64)
	rejected := 0
	for res := range solver.EmbedStream(context.Background(), in) {
		switch {
		case res.Err == nil && res.Forest != nil:
			admitted[res.Index] = res.Forest.TotalCost()
		case errors.Is(res.Err, ErrAdmissionRejected):
			rejected++
		default:
			t.Errorf("request %d: unexpected result err=%v", res.Index, res.Err)
		}
	}
	if len(admitted) == 0 || rejected == 0 {
		t.Fatalf("admission did not split the stream: %d admitted, %d rejected", len(admitted), rejected)
	}

	replay := session()
	for i, r := range reqs {
		want, ok := admitted[i]
		if !ok {
			continue
		}
		f, err := replay.Embed(context.Background(), r)
		if err != nil {
			t.Fatalf("replaying admitted request %d: %v", i, err)
		}
		if f.TotalCost() != want {
			t.Errorf("request %d: admitted cost %v != %v without the rejected requests — a rejection perturbed the session",
				i, want, f.TotalCost())
		}
	}
	g := net.G
	for e := 0; e < g.NumEdges(); e++ {
		if got, want := solver.LinkLoad(EdgeID(e)), replay.LinkLoad(EdgeID(e)); got != want {
			t.Errorf("link %d load %v != %v without the rejected requests", e, got, want)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if got, want := solver.VMLoad(NodeID(v)), replay.VMLoad(NodeID(v)); got != want {
			t.Errorf("VM %d load %v != %v without the rejected requests", v, got, want)
		}
	}
}

// TestForestJoinRespectsVMRestriction is the regression test for dynamic
// operations leaking outside the embed-time VM restriction: for Join,
// InsertVNF and MigrateVM alike, the cheapest answer runs through the
// forbidden (and very cheap) VM w, and the restricted forest must take
// the dearer allowed VM instead.
func TestForestJoinRespectsVMRestriction(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v := b.AddVM("allowed", 1)
	u := b.AddVM("allowed-far", 1)
	w := b.AddVM("forbidden", 0.1)
	d1 := b.AddSwitch("d1")
	d2 := b.AddSwitch("d2")
	b.Link(s, v, 1)
	b.Link(v, d1, 1)
	// Tempting path to d2 through the forbidden VM (too long a detour to
	// win the embed to d1 itself)...
	b.Link(s, w, 1)
	b.Link(w, d2, 0.1)
	// ...and expensive legitimate ones, including the far allowed VM.
	b.Link(v, d2, 10)
	b.Link(d1, d2, 10)
	b.Link(v, u, 5)
	b.Link(u, d1, 5)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func(*Forest) error
	}{
		{"Join", func(f *Forest) error { _, err := f.Join(d2); return err }},
		{"InsertVNF", func(f *Forest) error { return f.InsertVNF(2) }},
		{"MigrateVM", func(f *Forest) error { return f.MigrateVM(v) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 1}
			f, err := NewSolver(net, WithVMs(v, u)).Embed(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.op(f); err != nil {
				t.Fatal(err)
			}
			if slices.Contains(f.UsedVMs(), w) {
				t.Fatalf("%s used a VM excluded by the embed-time restriction", tc.name)
			}
			if err := f.Validate(); err != nil {
				t.Fatal(err)
			}

			// Sanity: without the restriction the cheap VM is exactly what
			// the operation picks, so the case is actually exercising the
			// guard.
			free, err := NewSolver(net).Embed(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(free.UsedVMs(), w) {
				t.Fatal("unrestricted embed already uses the cheap VM; the control would prove nothing")
			}
			if err := tc.op(free); err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(free.UsedVMs(), w) {
				t.Errorf("unrestricted %s did not use the cheap VM; restriction scenario is vacuous", tc.name)
			}
		})
	}
}

// TestSolverSolvedChainCacheWarmStream is the session-level contract for
// the solved-chain memo: replaying a request under unchanged costs embeds
// at the same cost without new k-stroll solves, the hit rate is visible
// through CacheStats, and SetLinkCost/SetVMCost invalidate it.
func TestSolverSolvedChainCacheWarmStream(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 15, Seed: 9})
	snet := FromGraph(net.G)
	solver := NewSolver(snet, WithVMs(net.VMs...))
	rng := rand.New(rand.NewSource(9))
	req := Request{
		Sources:      net.RandomNodes(rng, 3),
		Destinations: net.RandomNodes(rng, 3),
		ChainLength:  2,
	}
	ctx := context.Background()

	first, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cold := solver.CacheStats()
	if cold.ChainMisses == 0 {
		t.Fatal("cold embed solved no chains")
	}

	second, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warm := solver.CacheStats()
	if warm.ChainMisses != cold.ChainMisses {
		t.Errorf("unchanged-cost re-embed re-solved %d chains", warm.ChainMisses-cold.ChainMisses)
	}
	if warm.ChainHits <= cold.ChainHits {
		t.Error("warm embed recorded no solved-chain hits")
	}
	if second.TotalCost() != first.TotalCost() {
		t.Errorf("warm cost %v != cold cost %v", second.TotalCost(), first.TotalCost())
	}

	// A VM-cost change invalidates the memo; the re-embed must match a
	// fresh session on the mutated network exactly.
	if err := snet.SetVMCost(net.VMs[0], net.G.NodeCost(net.VMs[0])+7); err != nil {
		t.Fatal(err)
	}
	mutated, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after := solver.CacheStats()
	if after.ChainMisses == warm.ChainMisses {
		t.Error("SetVMCost did not invalidate the solved-chain cache")
	}
	fresh, err := NewSolver(snet, WithVMs(net.VMs...)).Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if mutated.TotalCost() != fresh.TotalCost() {
		t.Errorf("post-mutation cost %v != fresh session %v", mutated.TotalCost(), fresh.TotalCost())
	}

	// And a link-cost change does too.
	pre := solver.CacheStats().ChainMisses
	if err := snet.SetLinkCost(0, net.G.EdgeCost(0)+3); err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Embed(ctx, req); err != nil {
		t.Fatal(err)
	}
	if solver.CacheStats().ChainMisses == pre {
		t.Error("SetLinkCost did not invalidate the solved-chain cache")
	}
}
