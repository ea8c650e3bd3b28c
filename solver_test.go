package sof

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// TestSolverMatchesOneShotSessions runs every algorithm through one
// shared session and through a fresh session each: the costs must agree.
func TestSolverMatchesOneShotSessions(t *testing.T) {
	net, s, d := buildLine(t)
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}
	solver := NewSolver(net)
	for _, algo := range []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS, AlgorithmENEMP, AlgorithmEST, AlgorithmST, AlgorithmExact} {
		want, err := NewSolver(net, WithAlgorithm(algo)).Embed(context.Background(), req)
		if err != nil {
			t.Fatalf("%s one-shot: %v", algo, err)
		}
		got, err := solver.EmbedAlgorithm(context.Background(), req, algo)
		if err != nil {
			t.Fatalf("%s solver: %v", algo, err)
		}
		if got.TotalCost() != want.TotalCost() {
			t.Errorf("%s: solver cost %v != one-shot cost %v", algo, got.TotalCost(), want.TotalCost())
		}
	}
	if _, err := solver.EmbedAlgorithm(context.Background(), req, "nope"); err == nil {
		t.Error("unknown algorithm accepted")
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
	fresh, err := NewSolver(snet).Embed(ctx, req)
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
		if got.Dist[v] != want.Dist[v] || got.ParentEdge[v] != want.ParentEdge[v] {
			t.Fatalf("tree from %d, node %d: served (%v,%d), full run (%v,%d)", n, v,
				got.Dist[v], got.ParentEdge[v], want.Dist[v], want.ParentEdge[v])
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

	// Cancelled mid-batch: the context cancels itself once the session
	// has registered two forests. Commits run in request order and each
	// checks ctx first, so at either width exactly the first two finish.
	for _, par := range []int{1, 2} {
		rec := NewSolver(FromGraph(net.G), WithVMs(net.VMs...), WithRecovery(), WithParallelism(par))
		inner, cancel := context.WithCancel(context.Background())
		const k = 2
		ctx := cancelAfterForests{Context: inner, cancel: cancel, s: rec, k: k}
		results, err := rec.EmbedBatch(ctx, solverTestRequests(net, 10))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par %d: mid-batch cancel returned %v", par, err)
		}
		for i, r := range results {
			if r.Index != i {
				t.Errorf("par %d: result %d carries index %d", par, i, r.Index)
			}
			finished := r.Forest != nil && r.Err == nil
			cancelled := r.Forest == nil && errors.Is(r.Err, context.Canceled)
			if i < k && !finished || i >= k && !cancelled {
				t.Errorf("par %d: request %d has forest %v and error %v; want the first %d finished, the rest cancelled",
					par, i, r.Forest != nil, r.Err, k)
			}
		}
	}
}

// TestEmbedBatchAndStreamCommitInRequestOrder is the parallelism matrix on
// capacitated sessions. On 20 SoftLayer seeds, 24 requests whose commits
// saturate links and VMs, with TTLs and adaptive admission, go through a
// sequential Embed loop and through EmbedBatch and EmbedStream at widths
// 1, 2 and 4. Each run must give every request the loop's outcome (the
// same error, or a forest with the same cost bits, lease id and
// footprint), deliver the stream's results in request order, and leave
// the loop's leases and LiveForests order.
func TestEmbedBatchAndStreamCommitInRequestOrder(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 20; seed++ {
		session := func(par int) *Solver {
			net := topology.SoftLayer(topology.Config{NumVMs: 10, Seed: seed})
			return NewSolver(FromGraph(net.G), WithParallelism(par),
				WithCapacity(3, 2), WithAdaptiveAdmission(16, 2), WithRecovery())
		}
		net := topology.SoftLayer(topology.Config{NumVMs: 10, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, 24)
		for i := range reqs {
			reqs[i] = Request{
				Sources:      net.RandomNodes(rng, 2),
				Destinations: net.RandomNodes(rng, 4),
				ChainLength:  2,
				TTL:          1 + rng.Int63n(5),
			}
		}

		loop := session(1)
		want := make([]string, len(reqs))
		for i, r := range reqs {
			want[i] = requestOutcome(loop.Embed(ctx, r))
		}
		wantBooks := sessionBooks(loop)

		check := func(label string, s *Solver, results []Result) {
			t.Helper()
			for i, r := range results {
				if got := requestOutcome(r.Forest, r.Err); r.Index != i || got != want[i] {
					t.Errorf("seed %d %s: result %d (index %d) is %s, the loop's is %s", seed, label, i, r.Index, got, want[i])
					return
				}
			}
			if got := sessionBooks(s); got != wantBooks {
				t.Errorf("seed %d %s: books\n%s\nthe loop's\n%s", seed, label, got, wantBooks)
			}
		}
		for _, par := range []int{1, 2, 4} {
			s := session(par)
			results, err := s.EmbedBatch(ctx, reqs)
			if err != nil {
				t.Fatalf("seed %d: EmbedBatch at width %d: %v", seed, par, err)
			}
			check(fmt.Sprintf("EmbedBatch width %d", par), s, results)

			s = session(par)
			in := make(chan Request)
			go func() {
				defer close(in)
				for _, r := range reqs {
					in <- r
				}
			}()
			var streamed []Result
			for r := range s.EmbedStream(ctx, in) {
				streamed = append(streamed, r)
			}
			if len(streamed) != len(reqs) {
				t.Fatalf("seed %d: EmbedStream at width %d delivered %d of %d results", seed, par, len(streamed), len(reqs))
			}
			check(fmt.Sprintf("EmbedStream width %d", par), s, streamed)
		}
	}
}

// requestOutcome is what one request's result shows: its error text, or
// its forest's lease id, cost bits and footprint.
func requestOutcome(f *Forest, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	id, _ := f.Lease()
	edges, vms := f.Footprint()
	return fmt.Sprintf("lease %d cost %x edges %v vms %v", id, math.Float64bits(f.TotalCost()), edges, vms)
}

// sessionBooks renders a session's leases and its LiveForests order.
func sessionBooks(s *Solver) string {
	var live []LeaseID
	for _, f := range s.LiveForests() {
		id, _ := f.Lease()
		live = append(live, id)
	}
	return fmt.Sprintf("leases %+v\nlive %v", s.Leases(), live)
}

// cancelAfterForests is a context that cancels itself at the first Err
// call that finds at least k of the session s's LiveForests.
type cancelAfterForests struct {
	context.Context
	cancel context.CancelFunc
	s      *Solver
	k      int
}

func (c cancelAfterForests) Err() error {
	if len(c.s.LiveForests()) >= c.k {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSolverEmbedStreamFewerDijkstras is the acceptance bar of the session
// API: a 50-request unchanged-cost stream through one Solver must perform
// strictly fewer Dijkstra computations than 50 one-shot sessions, one per
// request, and return the same costs.
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
		if res.Index != got {
			t.Fatalf("stream delivered request %d as result %d; want arrival order", res.Index, got)
		}
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

// TestEmbedBatchSharesRowPool runs SOFDA embeds two at a time through
// EmbedBatch on an ample session, so their Steiner phases draw ŝ's row
// and the tight-set walk's scratch from the shared pools at once (run
// with -race): every result must equal a sequential Embed loop's.
func TestEmbedBatchSharesRowPool(t *testing.T) {
	ctx := context.Background()
	session := func(par int) (*Solver, *topology.Network) {
		net, err := topology.Inet(600, 1200, 60, topology.Config{NumVMs: 16, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return NewSolver(FromGraph(net.G), WithParallelism(par)), net
	}
	loop, net := session(1)
	rng := rand.New(rand.NewSource(3))
	reqs := make([]Request, 40)
	for i := range reqs {
		reqs[i] = Request{
			Sources:      net.RandomNodes(rng, 2+rng.Intn(2)),
			Destinations: net.RandomNodes(rng, 3+rng.Intn(5)),
			ChainLength:  2,
		}
	}
	want := make([]string, len(reqs))
	for i, r := range reqs {
		want[i] = requestOutcome(loop.Embed(ctx, r))
	}
	for round := 0; round < 3; round++ {
		s, _ := session(2)
		results, err := s.EmbedBatch(ctx, reqs)
		if err != nil {
			t.Fatalf("round %d: EmbedBatch at width 2: %v", round, err)
		}
		for i, r := range results {
			if got := requestOutcome(r.Forest, r.Err); got != want[i] {
				t.Fatalf("round %d: result %d is %s, the loop's is %s", round, i, got, want[i])
			}
		}
	}
}
