// Package dist implements the distributed SOFDA deployment of Section VI:
// the network is split across several SDN controller domains, each domain
// generates candidate service chains for the sources it owns with its own
// chain oracle (private Dijkstra cache, private worker pool), and a leader
// merges the per-domain candidates and completes the forest through
// core.AuxGraphBuilder, the builder core.SOFDACtx feeds its own candidate
// batch to.
//
// Because every domain answers its queries with the same deterministic
// k-stroll reduction the centralized solver uses, and the leader restores
// the centralized candidate order before completion, Cluster.SOFDA returns
// a forest whose cost equals core.SOFDACtx's on the same instance — the
// distribution changes where the work runs, not what is computed.
//
// The domain boundary is a real interface: the leader talks to domains
// only through Transport, sending one CandidateRequest ([]chain.Pair) per
// domain and receiving a stream of CandidateFragments (results located by
// pair index, spliced back into the centralized order). The leader feeds
// every spliced candidate into the builder, pruning dominated ones, while
// slower domains are still solving. ChannelTransport keeps the domains
// in-process and answers on the leader's own goroutines (the reference
// implementation and test double); package dist/rpc carries the same
// messages over TCP so domains run as separate OS processes. The leader
// survives transport failure: a failed stream is retried on a budget for
// its undelivered pairs, which the leader then solves on a local fallback
// oracle, so a domain crash degrades latency, never correctness.
package dist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
)

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
	// in-process ChannelTransport over the cluster's own graph; a
	// supplied transport stays the caller's to close.
	Transport Transport
	// Chain configures the domain oracles of the in-process transport and
	// the leader's local fallback oracle. For the distributed cost to match
	// the centralized one it must equal the options remote domains run.
	Chain chain.Options
	// RetryBudget is how many times a failed domain stream is retried (for
	// its undelivered pairs) before the leader falls back to its local
	// oracle. Negative means 0.
	RetryBudget int
	// DisableFallback turns the local-oracle fallback off: a domain whose
	// stream fails past the retry budget fails the embedding with the
	// transport error instead. Mostly for tests that assert on failures.
	DisableFallback bool
}

// Cluster is the leader of a multi-domain SDN deployment: it partitions
// candidate queries across domain controllers by source ownership, moves
// them over a Transport, and completes the forest from the gathered
// candidates. Create it with NewCluster or NewClusterWith and run
// embeddings with SOFDA, from any number of goroutines. It owns no
// goroutine and no connection, so nothing needs closing: a transport
// supplied in Config stays the caller's to close.
type Cluster struct {
	g         *graph.Graph
	transport Transport
	// owned marks the in-process transport NewClusterWith built over the
	// cluster's own graph, which skips the digest handshake.
	owned      bool
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

	// Exchange counters, cumulative across embeddings (see StreamStats).
	streamFragments  atomic.Uint64
	streamResults    atomic.Uint64
	streamPruned     atomic.Uint64
	streamEpochDrift atomic.Uint64
	streamOverlapNS  atomic.Int64
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
		c.transport = NewChannelTransport(g, numDomains, cfg.Chain)
		c.owned = true
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

// SOFDA runs the distributed Algorithm 2: each domain generates candidate
// chains for the (source, last VM) pairs whose source it owns and streams
// them back, while the leader splices them in centralized order into a
// pruning core.AuxGraphBuilder and completes the forest. The returned
// forest's cost equals the centralized core.SOFDACtx cost on the same
// graph, request, and options — also when domains fail and the fallback
// answers for them, because the fallback runs the identical deterministic
// reduction.
func (c *Cluster) SOFDA(ctx context.Context, req core.Request, opts Options) (*core.Forest, error) {
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
	if !c.owned {
		digest = c.memo.of(c.g)
	}

	// Pruning is cost-safe by construction (see core.AuxGraphBuilder), so
	// the leader always prunes; core.SOFDACtx stays the unpruned reference.
	builder, err := core.NewAuxGraphBuilder(c.g, req, o)
	if err != nil {
		return nil, err
	}
	builder.EnablePruning(ctx)
	dispatched := 0
	for _, dp := range perDomain {
		if len(dp) > 0 {
			dispatched++
		}
	}
	// Buffered to every possible message (each pair delivered at most once
	// plus one done notice per domain), so domain goroutines never block on
	// the splicer and an early-erroring embed leaks nothing.
	events := make(chan streamEvent, len(pairs)+dispatched)
	for d, dp := range perDomain {
		if len(dp) == 0 {
			continue
		}
		creq := &CandidateRequest{
			CostEpoch:   epoch,
			GraphDigest: digest,
			ChainLen:    req.ChainLen,
			Parallelism: opts.Parallelism,
			VMs:         vms,
			Pairs:       dp,
			SourceSetup: c.cfg.Chain.SourceSetupCost,
		}
		go func(d int, creq *CandidateRequest, indices []int) {
			err := c.streamDomain(ctx, d, creq, indices, events)
			events <- streamEvent{done: true, domain: d, err: err}
		}(d, creq, perIndices[d])
	}

	// Gather phase: a reorder buffer holds located results, and a cursor
	// feeds the aux-graph builder exactly in the centralized candidate
	// order as the prefix becomes available — so Ĝ (and with it the
	// forest) is the one the centralized order builds, while its
	// construction overlaps the slower domains. ctx.Done short-circuits the
	// wait so a dead domain cannot stall a cancelled leader.
	results := make([]CandidateResult, len(pairs))
	have := make([]bool, len(pairs))
	cursor := 0
	var firstFeed time.Time
	for remaining := dispatched; remaining > 0; {
		select {
		case ev := <-events:
			if ev.done {
				remaining--
				if ev.err != nil {
					if ctx.Err() != nil {
						// A cancellation that surfaced through a domain
						// stream is still a cancellation, not a domain
						// failure.
						return nil, ctx.Err()
					}
					return nil, fmt.Errorf("dist: domain %d: %w", ev.domain, ev.err)
				}
				continue
			}
			have[ev.global] = true
			results[ev.global] = ev.res
			for cursor < len(pairs) && have[cursor] {
				r := results[cursor]
				cursor++
				if r.Err != "" || r.Chain == nil {
					continue // per-pair infeasibility
				}
				if firstFeed.IsZero() {
					firstFeed = time.Now()
				}
				if _, err := builder.AddCandidate(r.Chain); err != nil {
					return nil, err
				}
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Per-goroutine sends are ordered, so by the time every done notice is
	// consumed all result events have been too; a short cursor means a
	// domain violated the protocol without erroring.
	if cursor != len(pairs) {
		return nil, fmt.Errorf("dist: stream ended with %d of %d candidates spliced", cursor, len(pairs))
	}
	if !firstFeed.IsZero() {
		c.streamOverlapNS.Add(int64(time.Since(firstFeed)))
	}
	c.streamPruned.Add(uint64(builder.Pruned()))
	if builder.Added() == 0 {
		return nil, fmt.Errorf("dist: no domain produced a feasible candidate chain")
	}
	return builder.Complete(ctx)
}
