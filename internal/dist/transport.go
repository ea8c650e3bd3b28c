package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sof/internal/chain"
	"sof/internal/fanout"
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

// ChannelTransport is the in-process reference Transport: one Domain per
// controller, each owning a private chain oracle over the shared graph.
// SendStream answers on the caller's goroutine (the leader already runs
// one per domain), so exchanges to one domain run concurrently, as they
// do on an rpc domain server. It is both the deployment used by
// NewCluster (a multi-controller emulation inside one process) and the
// test double RPC transports are checked against — the payloads it moves
// are exactly the messages a wire transport carries.
type ChannelTransport struct {
	domains []*Domain
}

// ErrNoSuchDomain is wrapped by Transport.SendStream when the domain ID is not
// one the transport serves — a leader misconfiguration (cluster domain
// count exceeding the transport's), not a transient fault. The leader
// neither retries it nor launders it into the fallback: the embedding
// fails loudly so the operator learns the deployment is undersized.
var ErrNoSuchDomain = errors.New("dist: transport has no such domain")

// NewChannelTransport returns numDomains domains over g, each with a
// private oracle configured by chainOpts. It starts no goroutines and
// holds nothing to release.
func NewChannelTransport(g *graph.Graph, numDomains int, chainOpts chain.Options) *ChannelTransport {
	t := &ChannelTransport{domains: make([]*Domain, max(numDomains, 1))}
	for i := range t.domains {
		t.domains[i] = NewDomain(g, chainOpts)
	}
	return t
}

// Domain is the domain-side half of the protocol, shared by
// ChannelTransport and the rpc server: one controller's graph view,
// private oracle, and epoch-memoized topology digest. It answers
// concurrent exchanges.
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
// refuse ids the graph does not have, rebuild the leader's cancellation
// horizon from the wire timeout, fan the pairs out over the oracle in
// request order (fanout.For on fanout.Width(req.Parallelism, pairs)
// goroutines), and emit the results as CandidateFragments as pairs
// complete (coalescing whatever is ready into each fragment). The
// exchange ends with a Done trailer.
//
// Fragments carry completion-order results located by FragmentResult.Index
// — the leader splices, so the domain never stalls a fast pair behind a
// slow one. A handshake mismatch is NOT an error but a single Done
// fragment carrying the domain's own epoch/digest/pricing and no results:
// transports may flatten errors to strings, but a fragment crosses any
// codec intact, so the leader can classify the mismatch as non-retryable
// (ErrGraphMismatch) instead of burning its retry budget. A request that
// names a node outside the graph, or a non-VM among its VMs, is an error,
// returned before the oracle is touched. An emit error aborts the oracle
// fan-out before the next fragment: no further pair is handed out,
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
	if err := d.checkIDs(req); err != nil {
		return err
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
	// Warm every tree the batch reads, each pair source and every
	// candidate VM, in one batched pass (miss-neutral, see
	// chain.Oracle.WarmTrees). The pairs are then solved in request order:
	// the leader feeds Ĝ strictly in pair order from its reorder buffer,
	// so request order fills the buffer's prefix soonest.
	origins := make([]graph.NodeID, 0, n+len(req.VMs))
	for i, p := range req.Pairs {
		if i == 0 || p.Source != req.Pairs[i-1].Source {
			origins = append(origins, p.Source)
		}
	}
	d.oracle.WarmTrees(ctx, append(origins, req.VMs...))

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
	// Defers run LIFO: cancel first (no pair is handed out after it), then
	// wait for the fan-out's end with its in-flight solves — so an early
	// return aborts the fan-out promptly instead of finishing the
	// abandoned batch. The emitter watches sctx itself, so For's verdict
	// is not needed.
	end := make(chan struct{})
	defer func() { <-end }()
	defer cancel()
	go func() {
		defer close(end)
		_ = fanout.For(sctx, n, req.Parallelism, func(i int) { completed <- solve(i) })
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
		frag.Seq = seq
		if err := emit(stamp(&frag)); err != nil {
			return err
		}
		seq++
	}
	return emit(stamp(&CandidateFragment{Seq: seq, Done: true}))
}

// checkIDs refuses a request whose pairs name a node outside the graph,
// or whose candidate VMs name a node outside it or one that is not a VM:
// the oracle indexes its arrays by these ids.
func (d *Domain) checkIDs(req *CandidateRequest) error {
	for i, p := range req.Pairs {
		if !d.g.Valid(p.Source) || !d.g.Valid(p.LastVM) {
			return fmt.Errorf("dist: pair %d (%d→%d) names a node outside the domain's %d nodes", i, p.Source, p.LastVM, d.g.NumNodes())
		}
	}
	for _, u := range req.VMs {
		if !d.g.Valid(u) || !d.g.IsVM(u) {
			return fmt.Errorf("dist: candidate %d is not a VM of the domain's graph", u)
		}
	}
	return nil
}

// SendStream answers the request on the domain, on the calling
// goroutine, handing sink every fragment as it is emitted. A sink error or
// a cancelled ctx aborts the domain's fan-out at the next fragment, and
// SendStream returns once the domain has wound down: after at most
// Parallelism+1 more solves.
func (t *ChannelTransport) SendStream(ctx context.Context, domainID int, req *CandidateRequest, sink func(*CandidateFragment) error) error {
	if domainID < 0 || domainID >= len(t.domains) {
		return fmt.Errorf("dist: domain %d out of range [0,%d): %w", domainID, len(t.domains), ErrNoSuchDomain)
	}
	return t.domains[domainID].AnswerStream(ctx, req, sink)
}
