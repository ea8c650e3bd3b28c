package dist

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
	"sof/internal/kstroll"
)

// TestStreamedMatchesBatchAndCentralized is the streaming correctness
// claim: on the 4-seed × 3-domain-count matrix, the server-streamed
// fragment exchange costs exactly what the batch path costs — every
// candidate computed in one shot on a separate oracle and fed to an
// unpruned core.AuxGraphBuilder — and what the centralized solver costs.
// Every one of the |S|·|M| pairs must cross the domain boundary as a
// streamed result.
func TestStreamedMatchesBatchAndCentralized(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		net, req, opts := softLayerInstance(seed)
		central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: centralized: %v", seed, err)
		}
		pairs := chain.Pairs(req.Sources, net.VMs)
		results, err := chain.NewOracle(net.G, chain.Options{}).Chains(context.Background(), net.VMs, pairs, req.ChainLen, 1)
		if err != nil {
			t.Fatalf("seed %d: batch candidates: %v", seed, err)
		}
		builder, err := core.NewAuxGraphBuilder(net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: builder: %v", seed, err)
		}
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			if _, err := builder.AddCandidate(r.Chain); err != nil {
				t.Fatalf("seed %d: AddCandidate: %v", seed, err)
			}
		}
		batch, err := builder.Complete(context.Background())
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}
		if batch.TotalCost() != central.TotalCost() {
			t.Fatalf("seed %d: batch cost %v != centralized %v", seed, batch.TotalCost(), central.TotalCost())
		}
		for _, domains := range []int{1, 3, 5} {
			cluster := NewCluster(net.G, domains, chain.Options{})
			f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
			st := cluster.StreamStats()
			if err != nil {
				t.Fatalf("seed %d domains %d: streamed: %v", seed, domains, err)
			}
			if err := f.Validate(req.Sources, req.Dests); err != nil {
				t.Errorf("seed %d domains %d: infeasible forest: %v", seed, domains, err)
			}
			if f.TotalCost() != batch.TotalCost() {
				t.Errorf("seed %d domains %d: streamed cost %v != batch %v (centralized %v)",
					seed, domains, f.TotalCost(), batch.TotalCost(), central.TotalCost())
			}
			if st.StreamedFragments == 0 || st.StreamedResults != uint64(len(pairs)) {
				t.Errorf("seed %d domains %d: stream counters %+v, want fragments and %d streamed results",
					seed, domains, st, len(pairs))
			}
		}
	}
}

// TestStreamedPruneOnOffIdenticalCost is the prune-safety property pinned
// directly: across seeds and domain counts, the leader — which always
// prunes dominated candidates — builds the forest of the unpruned
// centralized reference (core.SOFDACtx): the same links and VMs, and the
// same cost bit for bit. Pruning must actually fire on the matrix — the
// rule is doing work, not vacuously passing.
func TestStreamedPruneOnOffIdenticalCost(t *testing.T) {
	pruned := uint64(0)
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
				t.Fatalf("seed %d domains %d: %v", seed, domains, err)
			}
			if math.Float64bits(f.TotalCost()) != math.Float64bits(central.TotalCost()) {
				t.Errorf("seed %d domains %d: pruned leader cost %v != unpruned SOFDACtx %v",
					seed, domains, f.TotalCost(), central.TotalCost())
			}
			if got, want := f.Footprint(), central.Footprint(); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d domains %d: pruned leader footprint %+v != unpruned SOFDACtx %+v",
					seed, domains, got, want)
			}
			pruned += cluster.StreamStats().PrunedCandidates
		}
	}
	if pruned == 0 {
		t.Error("pruning never fired across the whole matrix; the property test is vacuous")
	}
}

// gateSolver wraps the default k-stroll solver and counts the solves it
// runs. Solve number hold signals held and then blocks until release is
// closed; every other solve runs straight through. It lets the abort
// tests land their abort while a solve is known to be in flight, instead
// of racing the domain's fan-out.
type gateSolver struct {
	inner   kstroll.Solver
	hold    int32
	solves  atomic.Int32
	held    chan struct{}
	release chan struct{}
}

func newGateSolver(hold int32) *gateSolver {
	return &gateSolver{inner: kstroll.Auto(), hold: hold, held: make(chan struct{}), release: make(chan struct{})}
}

func (s *gateSolver) Solve(in *kstroll.Instance) (*kstroll.Walk, error) {
	if s.solves.Add(1) == s.hold {
		close(s.held)
		<-s.release
	}
	return s.inner.Solve(in)
}

func (s *gateSolver) Name() string { return "gate-" + s.inner.Name() }

// checkAbortBound requires the aborted exchange to have stopped solving:
// with solve number 2 held when the abort landed, exactly one solve had
// finished, and at most Parallelism+1 may follow it — the solves in
// flight, plus the one pair handed out as the abort landed.
func checkAbortBound(t *testing.T, gate *gateSolver, req *CandidateRequest) {
	t.Helper()
	solved := int(gate.solves.Load())
	if solved < 2 {
		t.Fatalf("domain ran %d solves; the held solve never started", solved)
	}
	if after := solved - 1; after > req.Parallelism+1 {
		t.Fatalf("domain ran %d solves after the abort (of %d pairs), want at most Parallelism+1 = %d — the abandoned batch was not aborted",
			after, len(req.Pairs), req.Parallelism+1)
	}
}

// TestStreamingCancellationAbortsDomainFanout is the regression pin for
// the abandoned-batch fix: a leader that cancels mid-stream must stop the
// domain-side oracle fan-out at the next fragment, not let the domain
// finish the whole batch. The request runs sequentially (Parallelism 1)
// and the leader cancels on the first fragment while the domain's second
// solve is held, so "aborted promptly" has a crisp bound: at most
// Parallelism+1 solves after the abort.
func TestStreamingCancellationAbortsDomainFanout(t *testing.T) {
	net, req, opts := softLayerInstance(7)
	gate := newGateSolver(2)
	tr := NewChannelTransport(net.G, 1, chain.Options{Solver: gate})
	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &CandidateRequest{
		ChainLen:    req.ChainLen,
		Parallelism: 1,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := true
	err := tr.SendStream(ctx, 0, creq, func(f *CandidateFragment) error {
		if first {
			first = false
			<-gate.held
			cancel() // the leader walks away mid-batch
			close(gate.release)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SendStream after mid-stream cancel = %v, want context.Canceled", err)
	}
	// SendStream returns only once the domain has wound down, so the
	// solve count is final here.
	checkAbortBound(t, gate, creq)
	// The transport must stay usable for a healthy follow-up exchange.
	got := 0
	if err := tr.SendStream(context.Background(), 0, creq, func(f *CandidateFragment) error {
		got += len(f.Results)
		return nil
	}); err != nil {
		t.Fatalf("SendStream after an aborted stream: %v", err)
	}
	if got != len(pairs) {
		t.Fatalf("follow-up stream delivered %d of %d results", got, len(pairs))
	}
}

// TestStreamingSinkErrorAbortsDomain pins the same abort path for a sink
// that fails (the rpc leader's behavior when its peer severs the conn):
// the domain stops solving within the same bound and SendStream returns
// the sink's error.
func TestStreamingSinkErrorAbortsDomain(t *testing.T) {
	net, req, opts := softLayerInstance(9)
	gate := newGateSolver(2)
	tr := NewChannelTransport(net.G, 1, chain.Options{Solver: gate})
	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &CandidateRequest{ChainLen: req.ChainLen, Parallelism: 1, VMs: opts.VMs, Pairs: pairs}
	errSink := errors.New("sink gave up")
	err := tr.SendStream(context.Background(), 0, creq, func(f *CandidateFragment) error {
		<-gate.held
		// SendStream aborts the domain only after this sink returns, and
		// then waits for the domain to wind down, so no event marks the
		// abort for the test to wait on: release the held solve shortly
		// after it instead. Released early, the bound still admits the
		// pair handed out as the abort lands.
		time.AfterFunc(10*time.Millisecond, func() { close(gate.release) })
		return errSink
	})
	if !errors.Is(err, errSink) {
		t.Fatalf("SendStream with failing sink = %v, want the sink error", err)
	}
	checkAbortBound(t, gate, creq)
}

// TestAnswerStreamStampsLiveEpoch pins mid-stream re-pricing detection:
// fragments carry the domain's epoch and digest as they are *now*, not as
// captured at the handshake — a cost change during the exchange must show
// up on the next fragment (epoch drift in-process; on wire requests the
// digest moves too, refusing the remainder).
func TestAnswerStreamStampsLiveEpoch(t *testing.T) {
	net, req, opts := softLayerInstance(11)
	dom := NewDomain(net.G, chain.Options{})
	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &CandidateRequest{
		CostEpoch:   net.G.CostEpoch(),
		GraphDigest: GraphDigest(net.G),
		ChainLen:    req.ChainLen,
		Parallelism: 1,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	var first, last *CandidateFragment
	if err := dom.AnswerStream(context.Background(), creq, func(f *CandidateFragment) error {
		if first == nil {
			first = f
			// Re-price mid-exchange: every later fragment must see it.
			net.G.SetEdgeCost(0, net.G.EdgeCost(0)+1)
		}
		last = f
		return nil
	}); err != nil {
		t.Fatalf("AnswerStream: %v", err)
	}
	if first == nil || last == nil || first == last {
		t.Fatal("stream too short to observe mid-stream re-pricing")
	}
	if last.CostEpoch == first.CostEpoch {
		t.Errorf("trailer epoch %d == first fragment epoch %d after a mid-stream re-pricing", last.CostEpoch, first.CostEpoch)
	}
	if last.GraphDigest == first.GraphDigest {
		t.Errorf("trailer digest equals the pre-re-pricing digest; the drift is invisible to a wire leader")
	}
}

// partialStreamTransport delivers fragments normally until failAfter
// results have crossed, then kills the stream — the shape of a domain
// that crashes mid-exchange.
type partialStreamTransport struct {
	inner     *ChannelTransport
	failAfter int32
	seen      atomic.Int32
}

var errStreamCut = errors.New("injected mid-stream failure")

func (p *partialStreamTransport) SendStream(ctx context.Context, domainID int, req *CandidateRequest, sink func(*CandidateFragment) error) error {
	return p.inner.SendStream(ctx, domainID, req, func(f *CandidateFragment) error {
		if p.seen.Load() >= p.failAfter {
			return errStreamCut
		}
		if err := sink(f); err != nil {
			return err
		}
		p.seen.Add(int32(len(f.Results)))
		return nil
	})
}

// TestStreamingPartialFailureRetriesRemainder cuts every stream after a
// few results: the leader must keep the delivered prefix, re-request only
// the remainder, and — once the retry budget is spent — answer the rest
// from the local fallback, landing on the centralized cost regardless.
func TestStreamingPartialFailureRetriesRemainder(t *testing.T) {
	net, req, opts := softLayerInstance(23)
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewChannelTransport(net.G, 3, chain.Options{})
	flaky := &partialStreamTransport{inner: inner, failAfter: 5}
	cluster := NewClusterWith(net.G, 3, Config{Transport: flaky, RetryBudget: 1})
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatalf("streamed SOFDA over a mid-stream-failing transport: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("cost %v != centralized %v after partial-stream fallback", f.TotalCost(), central.TotalCost())
	}
}

// TestChannelTransportConcurrentExchanges pins that exchanges to one
// in-process domain run at once: while a solve of the first exchange is
// held, a second exchange to the same domain completes. The second asks
// from another source, so it shares no memo entry with the held solve.
func TestChannelTransportConcurrentExchanges(t *testing.T) {
	net, req, opts := softLayerInstance(7)
	gate := newGateSolver(1)
	tr := NewChannelTransport(net.G, 1, chain.Options{Solver: gate})
	exchange := func(s graph.NodeID) (*CandidateRequest, *atomic.Int32, chan error) {
		creq := &CandidateRequest{ChainLen: req.ChainLen, Parallelism: 1, VMs: opts.VMs, Pairs: chain.Pairs([]graph.NodeID{s}, opts.VMs)}
		results := new(atomic.Int32)
		done := make(chan error, 1)
		go func() {
			done <- tr.SendStream(context.Background(), 0, creq, func(f *CandidateFragment) error {
				results.Add(int32(len(f.Results)))
				return nil
			})
		}()
		return creq, results, done
	}
	firstReq, firstResults, firstDone := exchange(req.Sources[0])
	<-gate.held
	secondReq, secondResults, secondDone := exchange(req.Sources[1])
	var err error
	select {
	case err = <-secondDone:
	case <-time.After(10 * time.Second):
		err = errors.New("it did not complete in 10s")
	}
	close(gate.release)
	if err != nil {
		t.Fatalf("second exchange while the first one's solve is held: %v", err)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	for _, x := range []struct {
		req     *CandidateRequest
		results *atomic.Int32
	}{{firstReq, firstResults}, {secondReq, secondResults}} {
		if got := int(x.results.Load()); got != len(x.req.Pairs) {
			t.Errorf("exchange from %d delivered %d of %d results", x.req.Pairs[0].Source, got, len(x.req.Pairs))
		}
	}
}

// TestAnswerStreamRefusesForeignIDs pins the domain's guard against ids
// its graph does not have: each request below names a node outside the
// graph, or a switch among its candidate VMs. Each is refused with an
// error before any fragment and before the oracle reads the ids, and the
// same domain then answers a valid request.
func TestAnswerStreamRefusesForeignIDs(t *testing.T) {
	net, req, opts := softLayerInstance(7)
	dom := NewDomain(net.G, chain.Options{})
	sw := graph.NodeID(0)
	for net.G.IsVM(sw) {
		sw++
	}
	valid := func() *CandidateRequest {
		return &CandidateRequest{
			ChainLen:    req.ChainLen,
			Parallelism: 2,
			VMs:         slices.Clone(opts.VMs),
			Pairs:       chain.Pairs(req.Sources, opts.VMs),
		}
	}
	const far = graph.NodeID(1 << 20)
	for _, row := range []struct {
		name  string
		spoil func(r *CandidateRequest)
	}{
		{"source outside", func(r *CandidateRequest) { r.Pairs[0].Source = far }},
		{"negative source", func(r *CandidateRequest) { r.Pairs[0].Source = -5 }},
		{"last VM outside", func(r *CandidateRequest) { r.Pairs[len(r.Pairs)-1].LastVM = far }},
		{"candidate VM outside", func(r *CandidateRequest) { r.VMs[len(r.VMs)-1] = far }},
		{"switch among VMs", func(r *CandidateRequest) {
			r.VMs = append(r.VMs, sw)
			r.Pairs = append(r.Pairs, chain.Pair{Source: req.Sources[0], LastVM: sw})
		}},
	} {
		bad := valid()
		row.spoil(bad)
		frags := 0
		err := dom.AnswerStream(context.Background(), bad, func(*CandidateFragment) error {
			frags++
			return nil
		})
		if err == nil || frags != 0 {
			t.Errorf("%s: AnswerStream = %v after %d fragments, want an error before any", row.name, err, frags)
		}
		good := valid()
		var got atomic.Int32
		done := make(chan error, 1)
		go func() {
			done <- dom.AnswerStream(context.Background(), good, func(f *CandidateFragment) error {
				got.Add(int32(len(f.Results)))
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil || int(got.Load()) != len(good.Pairs) {
				t.Errorf("%s: valid request afterwards = %v after %d of %d results", row.name, err, got.Load(), len(good.Pairs))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the domain did not answer a valid request afterwards", row.name)
		}
	}
}
