package dist

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
)

var errInjected = errors.New("injected transport fault")
var errDropped = errors.New("injected drop: no response before timeout")

// faultKind is one scheduled behavior of the flaky transport.
type faultKind int

const (
	faultPass  faultKind = iota // deliver normally
	faultErr                    // fail immediately
	faultDrop                   // the request vanishes; error after a timeout
	faultDelay                  // deliver after a pause
)

// flakyTransport wraps a real Transport and injects drops, delays, and
// errors per call on a seeded schedule, so every failure sequence a test
// exercises is reproducible from its seed.
type flakyTransport struct {
	inner Transport
	delay time.Duration

	mu       sync.Mutex
	schedule []faultKind
	calls    int
}

// newFlakyTransport derives a schedule of n fault decisions from seed.
// The first call always passes so at least one healthy interaction is in
// every trace; the rest draw uniformly over all four kinds.
func newFlakyTransport(inner Transport, seed int64, n int) *flakyTransport {
	rng := rand.New(rand.NewSource(seed))
	schedule := make([]faultKind, n)
	for i := 1; i < n; i++ {
		schedule[i] = faultKind(rng.Intn(4))
	}
	return &flakyTransport{inner: inner, delay: 10 * time.Millisecond, schedule: schedule}
}

func (f *flakyTransport) next() faultKind {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := f.schedule[f.calls%len(f.schedule)]
	f.calls++
	return k
}

func (f *flakyTransport) SendStream(ctx context.Context, domainID int, req *CandidateRequest, sink func(*CandidateFragment) error) error {
	switch f.next() {
	case faultErr:
		return errInjected
	case faultDrop:
		// Nothing ever answers; the caller's patience (or ctx) decides.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.delay):
			return errDropped
		}
	case faultDelay:
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(f.delay / 4):
		}
	}
	return f.inner.SendStream(ctx, domainID, req, sink)
}

// TestFlakyTransportRetryAndFallback runs embeddings through a transport
// that errors, drops, and delays on seeded schedules: the leader's
// retry-then-fallback path must still return a feasible forest whose cost
// matches the centralized solver's every single time.
func TestFlakyTransportRetryAndFallback(t *testing.T) {
	net, req, opts := softLayerInstance(7)
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		inner := NewChannelTransport(net.G, 3, chain.Options{})
		flaky := newFlakyTransport(inner, seed, 17)
		cluster := NewClusterWith(net.G, 3, Config{Transport: flaky, RetryBudget: 1})
		for i := 0; i < 4; i++ {
			f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
			if err != nil {
				t.Fatalf("seed %d embedding %d: %v", seed, i, err)
			}
			if err := f.Validate(req.Sources, req.Dests); err != nil {
				t.Errorf("seed %d embedding %d: infeasible forest: %v", seed, i, err)
			}
			if f.TotalCost() != central.TotalCost() {
				t.Errorf("seed %d embedding %d: cost %v != centralized %v",
					seed, i, f.TotalCost(), central.TotalCost())
			}
		}
	}
}

// deadTransport fails every exchange before delivering anything.
type deadTransport struct{}

func (deadTransport) SendStream(context.Context, int, *CandidateRequest, func(*CandidateFragment) error) error {
	return errInjected
}

// TestDeadTransportFallsBackToLocalOracle kills the transport outright:
// with the fallback armed, every domain's pairs are solved on the leader's
// local oracle and the cost still matches centralized — a domain crash
// degrades where the work runs, never the result.
func TestDeadTransportFallsBackToLocalOracle(t *testing.T) {
	net, req, opts := softLayerInstance(13)
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewClusterWith(net.G, 3, Config{Transport: deadTransport{}, RetryBudget: 2})
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatalf("SOFDA over a dead transport: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("fallback cost %v != centralized %v", f.TotalCost(), central.TotalCost())
	}
}

// TestDeadTransportNoFallbackSurfacesError pins the strict mode: with the
// fallback disabled, the injected error must surface (wrapped, so
// errors.Is still finds it) instead of deadlocking or panicking.
func TestDeadTransportNoFallbackSurfacesError(t *testing.T) {
	net, req, opts := softLayerInstance(13)
	cluster := NewClusterWith(net.G, 3, Config{Transport: deadTransport{}, RetryBudget: 1, DisableFallback: true})
	_, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if !errors.Is(err, errInjected) {
		t.Fatalf("SOFDA over a dead transport without fallback = %v, want wrapped errInjected", err)
	}
}

// TestUndersizedTransportFailsLoudly builds a cluster with more domains
// than its transport serves: the deterministic ErrNoSuchDomain must fail
// the embedding immediately — not burn the retry budget, and above all
// not be silently absorbed by the fallback, which would permanently
// un-distribute part of every embedding without anyone noticing.
func TestUndersizedTransportFailsLoudly(t *testing.T) {
	net, req, opts := softLayerInstance(5)
	// Sources pinned to both ends of the access range so a high domain
	// (one the 2-domain transport does not serve) certainly owns pairs.
	req.Sources = []graph.NodeID{net.Access[0], net.Access[len(net.Access)-1]}
	inner := NewChannelTransport(net.G, 2, chain.Options{})
	cluster := NewClusterWith(net.G, 4, Config{Transport: inner, RetryBudget: 3})
	if _, err := cluster.SOFDA(context.Background(), req, Options{Core: opts}); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("SOFDA over an undersized transport = %v, want wrapped ErrNoSuchDomain", err)
	}
}

// gateTransport answers domain 0 through the inner transport, signals on
// firstDone, and blackholes every other domain until its context dies —
// the shape of a partition that hits mid-splice.
type gateTransport struct {
	inner     Transport
	firstOnce sync.Once
	firstDone chan struct{}
}

func (g *gateTransport) SendStream(ctx context.Context, domainID int, req *CandidateRequest, sink func(*CandidateFragment) error) error {
	if domainID == 0 {
		err := g.inner.SendStream(ctx, 0, req, sink)
		g.firstOnce.Do(func() { close(g.firstDone) })
		return err
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestCancellationMidSplice cancels the leader after the first domain has
// answered but while another domain hangs: SOFDA must return ctx.Err()
// promptly instead of waiting out the dead domain, and the cancellation
// must not be laundered into a fallback solve.
func TestCancellationMidSplice(t *testing.T) {
	net, _, opts := softLayerInstance(9)
	// Sources pinned to both ends of the access-node ID range so at least
	// two domains receive pairs — one to answer, one to hang.
	req := core.Request{
		Sources:  []graph.NodeID{net.Access[0], net.Access[len(net.Access)-1]},
		Dests:    []graph.NodeID{net.Access[3], net.Access[10]},
		ChainLen: 2,
	}
	inner := NewChannelTransport(net.G, 3, chain.Options{})
	gate := &gateTransport{inner: inner, firstDone: make(chan struct{})}
	cluster := NewClusterWith(net.G, 3, Config{Transport: gate})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-gate.firstDone
		cancel()
	}()
	start := time.Now()
	_, err := cluster.SOFDA(ctx, req, Options{Core: opts})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SOFDA cancelled mid-splice = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled SOFDA took %v to return", elapsed)
	}
	// The transport must remain usable for a healthy follow-up embedding
	// (the hung domain's goroutine drains into the event buffer).
	healthy := NewClusterWith(net.G, 3, Config{Transport: inner})
	if _, err := healthy.SOFDA(context.Background(), req, Options{Core: opts}); err != nil {
		t.Fatalf("embedding after cancellation: %v", err)
	}
}
