// Package dist implements the distributed SOFDA deployment of Section VI:
// the network is split across several SDN controller domains, each domain
// generates candidate service chains for the sources it owns with its own
// chain oracle (private Dijkstra cache, private worker pool), and a leader
// merges the per-domain candidates and completes the forest through
// core.SOFDAFromCandidatesCtx.
//
// Because every domain answers its queries with the same deterministic
// k-stroll reduction the centralized solver uses, and the leader restores
// the centralized candidate order before completion, Cluster.SOFDA returns
// a forest whose cost equals core.SOFDACtx's on the same instance — the
// distribution changes where the work runs, not what is computed.
//
// The domain boundary is a real interface: the leader talks to domains
// only through Transport, exchanging typed CandidateRequest and
// CandidateResponse messages ([]chain.Pair in, []chain.Result out, spliced
// by global index). ChannelTransport keeps the domains in-process (the
// reference implementation and test double); package dist/rpc carries the
// same messages over net/rpc so domains run as separate OS processes. The
// leader survives transport failure: a domain Send is retried on a budget
// and then its pairs are solved on a local fallback oracle, so a domain
// crash degrades latency, never correctness.
package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
)

// ErrClosed is returned by Cluster.SOFDA after Close.
var ErrClosed = errors.New("dist: cluster is closed")

// Options configure one distributed embedding.
type Options struct {
	// Core configures the leader's completion phase (candidate VM set,
	// chain-oracle options, conflict resolution). For the distributed cost
	// to match the centralized one, Core.Chain must equal the chain
	// options the cluster was built with.
	Core *core.Options
	// Parallelism bounds each domain's candidate-generation workers:
	// GOMAXPROCS when <= 0, sequential when 1. The bound applies per
	// domain, mirroring a real deployment where every controller owns its
	// own cores.
	Parallelism int
}

// Config configures a Cluster beyond the NewCluster defaults.
type Config struct {
	// Transport carries the leader↔domain protocol. Nil means an
	// in-process ChannelTransport, which the cluster then owns and closes;
	// a supplied transport stays the caller's to close.
	Transport Transport
	// Chain configures the domain oracles of an owned ChannelTransport and
	// the leader's local fallback oracle. For the distributed cost to match
	// the centralized one it must equal the options remote domains run.
	Chain chain.Options
	// RetryBudget is how many times a failed domain Send is retried before
	// the leader falls back to its local oracle. Negative means 0.
	RetryBudget int
	// DisableFallback turns the local-oracle fallback off: a domain whose
	// Send fails past the retry budget fails the embedding with the
	// transport error instead. Mostly for tests that assert on failures.
	DisableFallback bool
	// Streaming switches the leader to the server-streamed fragment
	// exchange: domains emit CandidateFragments as pairs complete, and the
	// leader splices them into the centralized candidate order and builds
	// the auxiliary graph incrementally while slower domains are still
	// solving — with dominated candidates pruned on arrival unless
	// DisablePruning is set. The forest cost is identical to the batch
	// exchange (and to centralized SOFDA). Requires a transport
	// implementing StreamTransport; over a batch-only transport the leader
	// quietly keeps the batch exchange, so wrappers and fault-injection
	// doubles stay usable.
	Streaming bool
	// DisablePruning keeps dominated candidates: every feasible candidate
	// allocates aux-graph state. It governs both join modes — the batch
	// exchange feeds the leader through the same pruning builder the
	// streamed exchange uses. The forest cost is the same either way (the
	// prune rule is cost-safe by construction); the switch exists for the
	// equivalence tests and for measuring the pruning effect in isolation.
	DisablePruning bool
	// EagerClosure overlaps the streamed exchange's Steiner phase with the
	// gather: the moment every candidate of a source has spliced out of
	// the reorder buffer, the leader starts that source's single-tree
	// refinement (metric-closure ranking, KMB, forest assembly)
	// concurrently with the still-streaming domains, so by Complete most
	// closure passes are already done. The forest cost is bit-identical —
	// the eager runs execute the same code the completion phase would, on
	// per-source candidate sets that are provably final. No effect on the
	// batch exchange (there is no stream to overlap).
	EagerClosure bool
}

// Cluster is the leader of a multi-domain SDN deployment: it partitions
// candidate queries across domain controllers by source ownership, moves
// them over a Transport, and completes the forest from the gathered
// candidates. Create it with NewCluster or NewClusterWith, run embeddings
// with SOFDA, and release owned resources with Close.
type Cluster struct {
	g         *graph.Graph
	transport Transport
	// owned is the transport Close tears down (nil when the caller
	// supplied their own).
	owned      io.Closer
	numDomains int
	numNodes   int
	cfg        Config

	// fallback is the leader-local oracle that answers for crashed
	// domains, created on first need: a healthy cluster never pays for it.
	fallbackOnce sync.Once
	fallback     *chain.Oracle

	// memo caches the leader's topology digest per cost epoch, so each
	// embedding's handshake stamp is an atomic load, not an O(V+E) hash.
	memo digestMemo

	// Streaming-exchange counters, cumulative across embeddings (see
	// StreamStats).
	streamFragments     atomic.Uint64
	streamResults       atomic.Uint64
	streamPruned        atomic.Uint64
	streamEpochDrift    atomic.Uint64
	streamOverlapNS     atomic.Int64
	streamEarlyClosures atomic.Uint64

	// mu is held read-side for the duration of every SOFDA call and
	// write-side by Close, so Close cannot pull the transport out from
	// under an in-flight embedding.
	mu     sync.RWMutex
	closed bool
}

// NewCluster partitions the network into numDomains controller domains
// served by an in-process ChannelTransport. Node IDs are split into
// contiguous ranges — topology generators allocate IDs regionally, so
// contiguous ranges approximate geographic domains. numDomains < 1 is
// treated as 1; domains beyond the node count stay idle.
func NewCluster(g *graph.Graph, numDomains int, chainOpts chain.Options) *Cluster {
	return NewClusterWith(g, numDomains, Config{Chain: chainOpts})
}

// NewClusterWith is NewCluster with an explicit Config: callers pick the
// transport (e.g. rpc.Transport for out-of-process domains), the retry
// budget, and whether the local fallback is armed.
func NewClusterWith(g *graph.Graph, numDomains int, cfg Config) *Cluster {
	if numDomains < 1 {
		numDomains = 1
	}
	if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	}
	c := &Cluster{
		g:          g,
		numDomains: numDomains,
		numNodes:   g.NumNodes(),
		cfg:        cfg,
		transport:  cfg.Transport,
	}
	if c.transport == nil {
		ct := NewChannelTransport(g, numDomains, cfg.Chain)
		c.transport = ct
		c.owned = ct
	}
	return c
}

// NumDomains returns the number of controller domains.
func (c *Cluster) NumDomains() int { return c.numDomains }

// InvalidateCache marks every domain oracle's cached shortest-path trees
// stale with a single cost-epoch bump on the shared graph; each domain
// replaces exactly the trees its next queries touch. Explicit calls are
// only needed after cost mutations that bypass the graph's setters — the
// setters advance the epoch themselves, so in the common online/load-aware
// loop the long-lived domain oracles stay correct (and stay warm across
// re-pricing passes that did not change any cost) with no call at all.
// Out-of-process domains version their own graphs: the epoch+digest
// handshake in the protocol surfaces any divergence as ErrGraphMismatch.
func (c *Cluster) InvalidateCache() {
	c.g.BumpCostEpoch()
}

// domainOf maps a node to its owning domain by contiguous ID range.
func (c *Cluster) domainOf(n graph.NodeID) int {
	if c.numNodes == 0 {
		return 0
	}
	d := int(n) * c.numDomains / c.numNodes
	if d >= c.numDomains {
		d = c.numDomains - 1
	}
	return d
}

// fallbackOracle returns the leader-local oracle, creating it on first use.
func (c *Cluster) fallbackOracle() *chain.Oracle {
	c.fallbackOnce.Do(func() {
		c.fallback = chain.NewOracle(c.g, c.cfg.Chain)
	})
	return c.fallback
}

// candidateRequest builds the wire request for one domain's pair slice.
// It is the single construction point for both join modes, so a field
// added to the protocol cannot silently zero-value on one path only.
func (c *Cluster) candidateRequest(epoch, digest uint64, chainLen, parallelism int, vms []graph.NodeID, pairs []chain.Pair) *CandidateRequest {
	return &CandidateRequest{
		CostEpoch:   epoch,
		GraphDigest: digest,
		ChainLen:    chainLen,
		Parallelism: parallelism,
		VMs:         vms,
		Pairs:       pairs,
		SourceSetup: c.cfg.Chain.SourceSetupCost,
	}
}

// sendCandidates moves one domain's request over the transport with the
// configured retry budget, falling back to the leader-local oracle when
// the domain stays unreachable. Context errors are never retried or
// absorbed by the fallback: a cancelled embedding must surface ctx.Err().
func (c *Cluster) sendCandidates(ctx context.Context, domainID int, req *CandidateRequest) ([]CandidateResult, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.RetryBudget; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := c.transport.Send(ctx, domainID, req)
		if err == nil {
			switch {
			// Digest equality proves content equality, so the epoch is
			// deliberately absent here: counters that drifted over
			// identical graphs (bump-and-restore) must not refuse.
			case resp.GraphDigest != req.GraphDigest || resp.SourceSetup != req.SourceSetup:
				err = fmt.Errorf("dist: domain %d answered with graph digest %x sourceSetup %v, want digest %x sourceSetup %v: %w",
					domainID, resp.GraphDigest, resp.SourceSetup,
					req.GraphDigest, req.SourceSetup, ErrGraphMismatch)
			case len(resp.Results) != len(req.Pairs):
				err = fmt.Errorf("dist: domain %d answered %d results for %d pairs",
					domainID, len(resp.Results), len(req.Pairs))
			default:
				return resp.Results, nil
			}
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, ErrNoSuchDomain) {
			// Leader misconfiguration (more cluster domains than the
			// transport serves): deterministic, so retrying is pointless,
			// and absorbing it into the fallback would permanently and
			// silently un-distribute part of every embedding. Fail loudly.
			return nil, err
		}
		if errors.Is(err, ErrGraphMismatch) {
			// A re-send sees the same graphs; go straight to the fallback.
			break
		}
	}
	if c.cfg.DisableFallback {
		return nil, fmt.Errorf("dist: domain %d failed past retry budget %d: %w",
			domainID, c.cfg.RetryBudget, lastErr)
	}
	results, err := c.fallbackOracle().Chains(ctx, req.VMs, req.Pairs, req.ChainLen, req.Parallelism)
	if err != nil {
		return nil, err
	}
	return WireResults(results), nil
}

// SOFDA runs the distributed Algorithm 2: each domain generates candidate
// chains for the (source, last VM) pairs whose source it owns, the leader
// merges them in centralized order and completes the forest with
// core.SOFDAFromCandidatesCtx. The returned forest's cost equals the
// centralized core.SOFDACtx cost on the same graph, request, and options —
// also when domains fail and the fallback answers for them, because the
// fallback runs the identical deterministic reduction.
func (c *Cluster) SOFDA(ctx context.Context, req core.Request, opts Options) (*core.Forest, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Every return path cancels the derived context, so scatter goroutines
	// still in flight when SOFDA bails early (a domain error, a cancelled
	// gather) abort promptly instead of computing into the void.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := req.Validate(c.g); err != nil {
		return nil, err
	}
	o := &core.Options{}
	if opts.Core != nil {
		copied := *opts.Core
		o = &copied
	}
	if req.ChainLen == 0 {
		// Degenerate Steiner forest: no chains to distribute.
		return core.SOFDACtx(ctx, c.g, req, o)
	}
	vms := o.VMs
	if vms == nil {
		vms = c.g.VMs()
	}

	// The leader enumerates pairs in the exact order the centralized
	// solver would and scatters each to its source's domain.
	pairs := chain.Pairs(req.Sources, vms)
	perDomain := make([][]chain.Pair, c.numDomains)
	perIndices := make([][]int, c.numDomains)
	for i, p := range pairs {
		d := c.domainOf(p.Source)
		perDomain[d] = append(perDomain[d], p)
		perIndices[d] = append(perIndices[d], i)
	}
	epoch := c.g.CostEpoch()
	// Digest 0 skips the content handshake for the transport the cluster
	// built over its own graph — leader and domains share one
	// *graph.Graph there, so hashing it every re-pricing step would only
	// verify the graph against itself. Wire/supplied transports get the
	// real digest.
	digest := uint64(0)
	if c.owned == nil {
		digest = c.memo.of(c.g)
	}

	if c.cfg.Streaming {
		if st, ok := c.transport.(StreamTransport); ok {
			return c.sofdaStreaming(ctx, st, req, o, vms, pairs, perDomain, perIndices, epoch, digest, opts.Parallelism)
		}
	}

	type domainReply struct {
		domain  int
		indices []int
		results []CandidateResult
		err     error
	}
	dispatched := 0
	for _, dp := range perDomain {
		if len(dp) > 0 {
			dispatched++
		}
	}
	// Buffered to the dispatch count: after a cancelled gather returns,
	// stragglers complete into the buffer and get collected, never leak.
	out := make(chan domainReply, dispatched)
	for d, dp := range perDomain {
		if len(dp) == 0 {
			continue
		}
		creq := c.candidateRequest(epoch, digest, req.ChainLen, opts.Parallelism, vms, dp)
		go func(d int, indices []int, creq *CandidateRequest) {
			results, err := c.sendCandidates(ctx, d, creq)
			out <- domainReply{domain: d, indices: indices, results: results, err: err}
		}(d, perIndices[d], creq)
	}

	// Gather phase: splice per-domain results back into centralized order.
	// ctx.Done short-circuits the wait so a dead domain cannot stall a
	// cancelled leader — the scatter goroutines drain into the buffer.
	results := make([]chain.Result, len(pairs))
	for i := 0; i < dispatched; i++ {
		select {
		case r := <-out:
			if r.err != nil {
				if ctx.Err() != nil {
					// A cancellation that surfaced through a domain reply
					// is still a cancellation, not a domain failure.
					return nil, ctx.Err()
				}
				return nil, fmt.Errorf("dist: domain %d: %w", r.domain, r.err)
			}
			for j, idx := range r.indices {
				wire := r.results[j]
				results[idx] = chain.Result{Pair: wire.Pair, Chain: wire.Chain}
				if wire.Err != "" {
					results[idx].Err = errors.New(wire.Err)
				}
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Completion through the same pruning builder the streamed exchange
	// uses: dominated candidates are rejected on arrival (unless
	// DisablePruning) instead of allocating aux-graph state, and the
	// forest cost is provably unchanged either way.
	builder, err := core.NewAuxGraphBuilder(ctx, c.g, req, o)
	if err != nil {
		return nil, err
	}
	if !c.cfg.DisablePruning {
		builder.EnablePruning()
	}
	feasible := 0
	for _, r := range results {
		if r.Err != nil || r.Chain == nil {
			continue
		}
		feasible++
		if _, err := builder.AddCandidate(r.Chain); err != nil {
			return nil, err
		}
	}
	c.streamPruned.Add(uint64(builder.Pruned()))
	if feasible == 0 {
		return nil, fmt.Errorf("dist: no domain produced a feasible candidate chain")
	}
	return builder.Complete(ctx)
}

// Close shuts down the transport the cluster created (a Config-supplied
// transport is the caller's to close). It is idempotent; SOFDA calls after
// Close return ErrClosed.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.owned != nil {
		c.owned.Close()
	}
}
