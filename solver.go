package sof

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"sof/internal/baseline"
	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/fanout"
	"sof/internal/sofexact"
)

// Solver is a long-lived embedding session over one Network. It owns the
// shared chain oracle whose Dijkstra-tree cache persists across requests:
// entries are keyed by the network's cost epoch, so a stream of requests
// under unchanged costs is answered from warm state, and SetLinkCost /
// SetVMCost invalidate lazily (only the trees the next request touches are
// recomputed) instead of dropping the whole cache.
//
// A session built WithRecovery or WithCapacity keeps one ledger of the
// forests it commits (lease.go), numbered in commit order: the forests
// RepairAll sweeps and the leases that hold their load are rows of the
// same table, under one lock.
//
// Create one Solver per network and reuse it for every request — online
// arrival loops, batch workloads, and dynamic reconfiguration all benefit
// from the shared cache. A Solver is safe for concurrent use: EmbedBatch
// and EmbedStream fan out over it, and concurrent Embed calls share the
// singleflight tree cache. Mutating costs concurrently with an in-flight
// embed is not synchronized (same as mutating the Network itself).
type Solver struct {
	net         *Network
	algo        Algorithm
	parallelism int
	vms         []NodeID
	exactBudget int
	oracle      *chain.Oracle

	recovery bool

	// mu guards the ledger — entries, keyed by commit-order id, and lastID,
	// the last id issued — and capacity, the load accounting of a session
	// built WithCapacity (nil otherwise).
	mu       sync.Mutex
	entries  map[LeaseID]*entry
	lastID   LeaseID
	capacity *capacityState
}

// ErrAdmissionRejected is the typed error carried by Result.Err (or
// returned by Embed) when the session's adaptive admission rule (see
// WithAdaptiveAdmission) rejects a request: the embedding was computed and
// found feasible, but its utilization price exceeded the request's budget.
// Callers distinguish it from infeasibility with errors.Is.
var ErrAdmissionRejected = errors.New("sof: embedding rejected by admission threshold")

// Option configures a Solver at construction time.
type Option func(*Solver)

// WithAlgorithm sets the session's default embedding algorithm
// (AlgorithmSOFDA when not given).
func WithAlgorithm(a Algorithm) Option {
	return func(s *Solver) { s.algo = a }
}

// WithParallelism bounds the session's worker width by fanout.Width's
// rule: GOMAXPROCS when <= 0, sequential when 1, and never more
// goroutines than jobs. A lone Embed spends the width on
// candidate-chain generation; EmbedBatch and EmbedStream spend it on
// concurrent requests (each embed then generates candidates sequentially),
// so the total concurrency stays at the configured width rather than its
// square.
func WithParallelism(n int) Option {
	return func(s *Solver) { s.parallelism = n }
}

// WithVMs restricts the candidate VM set for every embed of the session;
// the restriction is remembered by the returned forests, so dynamic
// operations (Join, InsertVNF, MigrateVM) never graft onto VMs outside it.
// No arguments (or an empty slice) means no restriction. A repeated id
// counts once, at its first occurrence. Every embed of the session fails
// while the set names a node outside the network or one that is not a VM.
func WithVMs(vms ...NodeID) Option {
	return func(s *Solver) {
		if len(vms) == 0 {
			s.vms = nil
			return
		}
		seen := make(map[NodeID]bool, len(vms))
		s.vms = make([]NodeID, 0, len(vms))
		for _, v := range vms {
			if !seen[v] {
				seen[v] = true
				s.vms = append(s.vms, v)
			}
		}
	}
}

// WithExactBranchBudget bounds AlgorithmExact's branch-and-bound tree
// (its internal default when <= 0). Sweeps use a small budget so points
// whose optimality cannot be proven quickly fail fast.
func WithExactBranchBudget(n int) Option {
	return func(s *Solver) { s.exactBudget = n }
}

// NewSolver opens an embedding session on net.
func NewSolver(net *Network, opts ...Option) *Solver {
	s := &Solver{net: net, algo: AlgorithmSOFDA, entries: make(map[LeaseID]*entry)}
	for _, o := range opts {
		o(s)
	}
	s.oracle = chain.NewOracle(net.g, chain.Options{})
	return s
}

// Network returns the network the session embeds on.
func (s *Solver) Network() *Network { return s.net }

// CacheStats is a snapshot of the session's cache counters: Hits counts
// tree queries answered from a current-epoch cache entry, and every other
// tree query is one full Dijkstra run (Misses), one repair of a stale
// tree (Repaired) or one stale tree served unchanged (Carried);
// ChainMisses counts k-stroll solves and ChainHits candidate-chain
// queries answered from the solved-chain memo.
type CacheStats = chain.CacheStats

// CacheStats reports the session oracle's hit/miss counters. Misses is
// the total number of full Dijkstra runs the session has paid and
// ChainMisses the total number of k-stroll solves — the two quantities
// the warm-cache benchmarks compare; Misses+Repaired+Carried is the
// number of trees built, and ChainHits/(ChainHits+ChainMisses) is the
// solved-chain cache hit rate.
func (s *Solver) CacheStats() CacheStats { return s.oracle.Stats() }

// Embed computes a service overlay forest for req with the session's
// default algorithm. The embedding aborts with ctx.Err() once ctx is done;
// for SOFDA and SOFDA-SS candidate-chain generation fans out across the
// session's parallelism, and AlgorithmExact observes cancellation at every
// branch-and-bound node expansion.
func (s *Solver) Embed(ctx context.Context, req Request) (*Forest, error) {
	return s.EmbedAlgorithm(ctx, req, s.algo)
}

// EmbedAlgorithm is Embed with a per-call algorithm override. The call
// still runs inside the session — the shortest-path cache is shared, so
// comparing algorithms on one network pays the Dijkstra work once.
func (s *Solver) EmbedAlgorithm(ctx context.Context, req Request, algo Algorithm) (*Forest, error) {
	return s.embed(ctx, req, algo, s.parallelism)
}

// embed solves req and commits the forest to the session's books.
func (s *Solver) embed(ctx context.Context, req Request, algo Algorithm, innerPar int) (*Forest, error) {
	f, err := s.solve(ctx, req, algo, innerPar)
	if err != nil {
		return nil, err
	}
	return s.commit(f, req)
}

// solve runs one embedding with an explicit candidate-generation width
// (innerPar): the batch/stream fan-outs pass 1 so their request-level
// concurrency is the only pool, single embeds pass the session width. It
// books nothing: commit does, and the repair re-embed tier swaps the
// result into a forest the ledger already holds.
func (s *Solver) solve(ctx context.Context, req Request, algo Algorithm, innerPar int) (*core.Forest, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, v := range s.vms {
		if !s.net.g.Valid(v) {
			return nil, fmt.Errorf("sof: WithVMs names node %d, which is not in the network", v)
		}
		if !s.net.g.IsVM(v) {
			return nil, fmt.Errorf("sof: WithVMs names node %d, which is not a VM", v)
		}
	}
	creq := core.Request{Sources: req.Sources, Dests: req.Destinations, ChainLen: req.ChainLength}
	copts := &core.Options{
		Parallelism: innerPar,
		VMs:         s.vms,
		Oracle:      s.oracle,
	}
	switch algo {
	case AlgorithmSOFDA:
		return core.SOFDACtx(ctx, s.net.g, creq, copts)
	case AlgorithmSOFDASS:
		if len(req.Sources) != 1 {
			return nil, errors.New("sof: SOFDA-SS requires exactly one source")
		}
		return core.SOFDASSCtx(ctx, s.net.g, req.Sources[0], req.Destinations, req.ChainLength, copts)
	case AlgorithmENEMP:
		return baseline.SolveCtx(ctx, s.net.g, creq, copts, baseline.KindENEMP)
	case AlgorithmEST:
		return baseline.SolveCtx(ctx, s.net.g, creq, copts, baseline.KindEST)
	case AlgorithmST:
		return baseline.SolveCtx(ctx, s.net.g, creq, copts, baseline.KindST)
	case AlgorithmExact:
		return sofexact.SolveCtx(ctx, s.net.g, creq, &sofexact.Options{
			VMs:            s.vms,
			MaxBranchNodes: s.exactBudget,
		})
	default:
		return nil, fmt.Errorf("sof: unknown algorithm %q", algo)
	}
}

// Result couples one request of a batch or stream with its outcome.
// Index is the request's position (slice index for EmbedBatch, arrival
// order for EmbedStream); exactly one of Forest and Err is non-nil.
type Result struct {
	Index  int
	Forest *Forest
	Err    error
}

// EmbedBatch embeds every request of the batch over the session's worker
// pool (Rost & Schmid's batch setting: the solver, not the caller, owns
// the fan-out): fanout.For on fanout.Width(parallelism, len(reqs))
// goroutines. Results are returned in request order; per-request failures
// are recorded in Result.Err rather than aborting the batch. The only
// call-level error is context cancellation, which also marks every
// request that had not finished.
func (s *Solver) EmbedBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(reqs))
	for i := range results {
		results[i] = Result{Index: i}
	}
	innerPar := s.parallelism
	if fanout.Width(s.parallelism, len(reqs)) > 1 {
		innerPar = 1 // request-level fan-out is the pool; see WithParallelism
	}
	err := ctx.Err()
	if err == nil {
		err = fanout.For(ctx, len(reqs), s.parallelism, func(i int) {
			results[i].Forest, results[i].Err = s.embed(ctx, reqs[i], s.algo, innerPar)
		})
	}
	if err != nil {
		for i := range results {
			if results[i].Forest == nil && results[i].Err == nil {
				results[i].Err = err
			}
		}
	}
	return results, err
}

// EmbedStream embeds requests as they arrive on reqs (the online setting
// of Section VIII-C and Lukovszki & Schmid's request-stream model),
// fanning them out over a pool of fanout.Width(parallelism, ∞) workers
// fed from reqs, since the stream has no length. Each Result carries the
// arrival Index of its request; with parallelism > 1 results may be
// delivered out of arrival order. Every admitted request produces exactly
// one Result — cancellation stops admission, not delivery. The returned
// channel is closed once reqs is closed (or ctx is done) and every
// in-flight embed has finished; consumers must drain it until then (after
// cancellation at most parallelism results remain, each failing fast with
// ctx.Err()). Consumers that need strict arrival-order feedback between
// requests (e.g. load-aware re-pricing) should use WithParallelism(1) or
// call Embed directly.
func (s *Solver) EmbedStream(ctx context.Context, reqs <-chan Request) <-chan Result {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan Result)
	type job struct {
		idx int
		req Request
	}
	jobs := make(chan job)
	par := fanout.Width(s.parallelism, math.MaxInt)
	innerPar := s.parallelism
	if par > 1 {
		innerPar = 1 // request-level fan-out is the pool; see WithParallelism
	}
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				f, err := s.embed(ctx, j.req, s.algo, innerPar)
				out <- Result{Index: j.idx, Forest: f, Err: err}
			}
		}()
	}
	go func() {
		defer close(jobs)
		idx := 0
		for {
			select {
			case req, ok := <-reqs:
				if !ok {
					return
				}
				select {
				case jobs <- job{idx: idx, req: req}:
					idx++
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
