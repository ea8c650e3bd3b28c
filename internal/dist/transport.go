package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"sof/internal/chain"
	"sof/internal/graph"
)

// Transport carries the leader↔domain candidate protocol. SendStream
// delivers one request to the given domain controller and invokes sink for
// every CandidateFragment the domain emits — including the Done trailer —
// on the calling goroutine, in stream order. It returns once the trailer
// has been consumed, the sink errors (which must abort the remote exchange
// so the domain stops solving), the transport fails, or ctx is done. A
// sink error is returned verbatim. Implementations must be safe for
// concurrent calls to distinct domains (the leader scatters one goroutine
// per domain) and should return ctx.Err() promptly once the context is
// cancelled rather than waiting out a dead domain.
//
// A SendStream error means the undelivered remainder of the exchange is
// unusable, while results already handed to the sink stay valid; per-pair
// infeasibilities travel inside the fragments instead. The leader retries
// the remainder on a budget and then falls back to solving it on a local
// oracle, so transport failures degrade latency, never correctness.
type Transport interface {
	SendStream(ctx context.Context, domainID int, req *CandidateRequest, sink func(*CandidateFragment) error) error
}

// ChannelTransport is the in-process reference Transport: one long-lived
// worker goroutine per domain, each owning a private chain oracle over the
// shared graph, fed through unbuffered job channels. It is both the
// deployment used by NewCluster (a multi-controller emulation inside one
// process) and the test double RPC transports are checked against — the
// payloads it moves are exactly the messages a wire transport carries.
type ChannelTransport struct {
	g       *graph.Graph
	domains []*domainWorker
	wg      sync.WaitGroup
	// done is closed by Close; SendStreams and workers select on it, so a
	// SendStream racing Close degrades to ErrTransportClosed instead of
	// touching a closed channel (the leader's fallback then answers).
	done chan struct{}

	mu     sync.Mutex
	closed bool
}

// ErrTransportClosed is returned by ChannelTransport.SendStream after Close.
var ErrTransportClosed = errors.New("dist: transport is closed")

// ErrNoSuchDomain is wrapped by Transport.SendStream when the domain ID is not
// one the transport serves — a leader misconfiguration (cluster domain
// count exceeding the transport's), not a transient fault. The leader
// neither retries it nor launders it into the fallback: the embedding
// fails loudly so the operator learns the deployment is undersized.
var ErrNoSuchDomain = errors.New("dist: transport has no such domain")

// domainWorker is one emulated controller: the shared domain-side handler
// plus the job stream its goroutine serves.
type domainWorker struct {
	dom  *Domain
	jobs chan chanJob
}

// chanJob is one in-flight SendStream: the request, the caller's context,
// the channel the worker emits fragments into (and closes when the
// exchange ends), and a buffered reply slot for the exchange-level error,
// so the worker never blocks on a caller that gave up.
type chanJob struct {
	ctx   context.Context
	req   *CandidateRequest
	frags chan *CandidateFragment
	reply chan<- error
}

// NewChannelTransport starts numDomains domain workers over g, each with a
// private oracle configured by chainOpts. Callers must Close it to stop
// the workers; Cluster does so automatically for the transport it creates.
func NewChannelTransport(g *graph.Graph, numDomains int, chainOpts chain.Options) *ChannelTransport {
	if numDomains < 1 {
		numDomains = 1
	}
	t := &ChannelTransport{g: g, done: make(chan struct{})}
	for i := 0; i < numDomains; i++ {
		d := &domainWorker{
			dom:  NewDomain(g, chainOpts),
			jobs: make(chan chanJob),
		}
		t.domains = append(t.domains, d)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			d.serve(t.done)
		}()
	}
	return t
}

// serve answers jobs until the transport closes.
func (d *domainWorker) serve(done <-chan struct{}) {
	for {
		select {
		case job := <-d.jobs:
			err := d.dom.AnswerStream(job.ctx, job.req, func(f *CandidateFragment) error {
				select {
				case job.frags <- f:
					return nil
				case <-job.ctx.Done():
					return job.ctx.Err()
				case <-done:
					return ErrTransportClosed
				}
			})
			close(job.frags)
			job.reply <- err
		case <-done:
			return
		}
	}
}

// Domain is the domain-side half of the protocol, shared by the channel
// transport's workers and rpc.DomainServer: one controller's graph view,
// private oracle, and epoch-memoized topology digest.
type Domain struct {
	g      *graph.Graph
	oracle *chain.Oracle
	opts   chain.Options
	memo   digestMemo
}

// NewDomain returns a domain controller over g with a fresh oracle.
func NewDomain(g *graph.Graph, chainOpts chain.Options) *Domain {
	return &Domain{g: g, oracle: chain.NewOracle(g, chainOpts), opts: chainOpts}
}

// CacheStats reports the domain oracle's cache counters — Dijkstra-tree
// and solved-chain hits/misses. ChainMisses counts k-stroll solves, which
// is what the cancellation tests observe: an aborted batch must stop
// solving well before the pair count.
func (d *Domain) CacheStats() chain.CacheStats { return d.oracle.Stats() }

// AnswerStream handles one candidate request: verify the request's
// topology digest and source-setup pricing against this domain's view,
// rebuild the leader's cancellation horizon from the wire timeout, fan the
// pairs out over the oracle, and emit the results as CandidateFragments as
// pairs complete (coalescing whatever is ready into each fragment). The
// exchange ends with a Done trailer.
//
// Fragments carry completion-order results located by FragmentResult.Index
// — the leader splices, so the domain never stalls a fast pair behind a
// slow one. A handshake mismatch is NOT an error but a single Done
// fragment carrying the domain's own epoch/digest/pricing and no results:
// transports may flatten errors to strings, but a fragment crosses any
// codec intact, so the leader can classify the mismatch as non-retryable
// (ErrGraphMismatch) instead of burning its retry budget. An emit error
// aborts the oracle fan-out before the next fragment: the feeder stops,
// in-flight solves finish, and the error is returned — this is how a
// severed stream (dead leader, sink failure) cancels a remote batch
// mid-flight instead of burning the domain's oracle on abandoned work.
func (d *Domain) AnswerStream(ctx context.Context, req *CandidateRequest, emit func(*CandidateFragment) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// The digest (plus the pricing mode) decides: it is a content hash of
	// topology, costs and blocked elements, so digest equality proves the
	// two graphs agree even when the epoch counters drifted (e.g. the
	// leader bumped its epoch and restored the costs — refusing on epoch
	// alone would silently and permanently degrade a remote deployment to
	// leader-local solving). The epoch only short-circuits the hash: when
	// it matches the memo's last computation the digest is an atomic load
	// away. Digest 0 means the leader shares this domain's graph and
	// skipped the handshake (see CandidateRequest); nothing is hashed then.
	digest := uint64(0)
	if req.GraphDigest != 0 {
		digest = d.memo.of(d.g)
	}
	// Fragments are stamped with the domain's *live* epoch and digest, not
	// the handshake-time capture: a re-pricing mid-exchange moves both, so
	// the leader observes the drift on the very next fragment (a counter
	// bump in-process, a digest refusal of the stream's remainder on wire
	// transports, never a silent mix of stale and fresh costs). The digest
	// re-read is an atomic epoch load while costs
	// are stable (see digestMemo). Digest-0 requests keep digest 0: the
	// leader shares this domain's graph and skipped the content handshake.
	stamp := func(f *CandidateFragment) *CandidateFragment {
		f.CostEpoch = d.g.CostEpoch()
		f.GraphDigest = digest
		if req.GraphDigest != 0 {
			f.GraphDigest = d.memo.of(d.g)
		}
		f.SourceSetup = d.opts.SourceSetupCost
		return f
	}
	if digest != req.GraphDigest || d.opts.SourceSetupCost != req.SourceSetup {
		return emit(stamp(&CandidateFragment{Done: true}))
	}
	if req.Timeout != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.Timeout))
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	n := len(req.Pairs)
	if n == 0 {
		return emit(stamp(&CandidateFragment{Done: true}))
	}
	par := req.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}

	// Cheapest-first scheduling: the batch's full tree demand (every pair
	// source plus every candidate VM) is known up front, so warm it in one
	// batched pass — miss-neutral, see chain.Oracle.WarmTrees — and order
	// the solves within each source block by the chain-cost lower bound
	// dist(source, lastVM). Cheap chains then tend to finish (and stream)
	// first, tightening the leader's prune bound sooner. Source blocks keep
	// their request order so the leader's in-order reorder-buffer prefix
	// still fills front to back; and since the leader splices by index, the
	// solve order changes wall-clock shape only, never any result.
	origins := make([]graph.NodeID, 0, len(req.Pairs)+len(req.VMs))
	firstAt := make(map[graph.NodeID]int, len(req.Pairs))
	for i, p := range req.Pairs {
		if _, ok := firstAt[p.Source]; !ok {
			firstAt[p.Source] = i
			origins = append(origins, p.Source)
		}
	}
	origins = append(origins, req.VMs...)
	d.oracle.WarmTrees(ctx, origins)
	lb := make([]float64, n)
	for i, p := range req.Pairs {
		lb[i] = d.oracle.Tree(p.Source).Dist[p.LastVM]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		sa, sb := firstAt[req.Pairs[ia].Source], firstAt[req.Pairs[ib].Source]
		if sa != sb {
			return sa < sb
		}
		if lb[ia] != lb[ib] {
			return lb[ia] < lb[ib]
		}
		return ia < ib
	})

	// completed is buffered to the pair count so workers never block on it:
	// the emitter can bail out on a dead stream and the pool still drains.
	completed := make(chan FragmentResult, n)
	solve := func(i int) FragmentResult {
		p := req.Pairs[i]
		fr := FragmentResult{Index: i}
		sc, err := d.oracle.Chain(req.VMs, p.Source, p.LastVM, req.ChainLen)
		fr.Result = CandidateResult{Pair: p, Chain: sc}
		if err != nil {
			fr.Result.Err = err.Error()
			fr.Result.Chain = nil
		}
		return fr
	}
	sctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	// Defers run LIFO: cancel first (stops the feeder), then wait for the
	// workers' in-flight solves — so an early return aborts the fan-out
	// promptly instead of finishing the abandoned batch.
	defer wg.Wait()
	defer cancel()
	jobs := make(chan int)
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				completed <- solve(i)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for _, i := range order {
			// A select with both cases ready picks at random, so an
			// abort that is already visible must be checked first: only
			// the job on offer when it lands can still go out.
			if sctx.Err() != nil {
				return
			}
			select {
			case jobs <- i:
			case <-sctx.Done():
				return
			}
		}
	}()

	seq := 0
	received := 0
	for received < n {
		var frag CandidateFragment
		select {
		case fr := <-completed:
			frag.Results = append(frag.Results, fr)
			received++
		case <-sctx.Done():
			return sctx.Err()
		}
	coalesce:
		// Opportunistic batching: everything already solved rides in this
		// fragment, so fragment count adapts to the leader/domain speed
		// ratio instead of being fixed per pair.
		for received < n {
			select {
			case fr := <-completed:
				frag.Results = append(frag.Results, fr)
				received++
			default:
				break coalesce
			}
		}
		// Cheapest-first emission within the fragment: feasible results
		// ascending by chain cost, infeasible last, ties by index. The
		// leader splices by index, so this is presentation order for
		// consumers that act on fragments as they arrive — combined with
		// the lower-bound solve order it makes "cheap chains early" hold
		// fragment by fragment, not just stream-wide.
		sort.SliceStable(frag.Results, func(a, b int) bool {
			ra, rb := &frag.Results[a], &frag.Results[b]
			ca, cb := math.Inf(1), math.Inf(1)
			if ra.Result.Chain != nil {
				ca = ra.Result.Chain.TotalCost()
			}
			if rb.Result.Chain != nil {
				cb = rb.Result.Chain.TotalCost()
			}
			if ca != cb {
				return ca < cb
			}
			return ra.Index < rb.Index
		})
		frag.Seq = seq
		if err := emit(stamp(&frag)); err != nil {
			return err
		}
		seq++
	}
	return emit(stamp(&CandidateFragment{Seq: seq, Done: true}))
}

// NumDomains returns the number of domain workers.
func (t *ChannelTransport) NumDomains() int { return len(t.domains) }

// SendStream dispatches the request to the domain's worker and invokes
// sink for each fragment the domain emits, on the calling goroutine. A
// sink error cancels the worker-side fan-out (the domain aborts before its
// next fragment) and is returned after the stream winds down; caller
// cancellation propagates the same way.
func (t *ChannelTransport) SendStream(ctx context.Context, domainID int, req *CandidateRequest, sink func(*CandidateFragment) error) error {
	if domainID < 0 || domainID >= len(t.domains) {
		return fmt.Errorf("dist: domain %d out of range [0,%d): %w", domainID, len(t.domains), ErrNoSuchDomain)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The worker emits under sctx, so cancelling it — on a sink error —
	// aborts the domain-side oracle fan-out at the next fragment.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	reply := make(chan error, 1)
	job := chanJob{ctx: sctx, req: req, frags: make(chan *CandidateFragment), reply: reply}
	select {
	case t.domains[domainID].jobs <- job:
	case <-t.done:
		return ErrTransportClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	var sinkErr error
	for {
		select {
		case f, ok := <-job.frags:
			if !ok {
				err := <-reply
				if sinkErr != nil {
					return sinkErr
				}
				return err
			}
			if sinkErr == nil {
				if err := sink(f); err != nil {
					sinkErr = err
					cancel() // abort the domain; keep draining until it closes frags
				}
			}
		case <-ctx.Done():
			// The worker shares (a child of) ctx and winds down on its own.
			return ctx.Err()
		case <-t.done:
			return ErrTransportClosed
		}
	}
}

// Close stops the domain workers and waits for them to drain. Idempotent
// and safe against concurrent SendStreams: late ones fail with
// ErrTransportClosed rather than panicking.
func (t *ChannelTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
