package sof

import (
	"cmp"
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
// from the shared cache. A Solver is safe for concurrent use. EmbedBatch
// and EmbedStream run their requests through one pipeline that solves
// several at once and commits them in request order, so they give what a
// sequential Embed loop gives; concurrent Embed calls share the
// singleflight tree cache and commit in the order they finish. Mutating
// costs concurrently with an in-flight embed is not synchronized (same as
// mutating the Network itself).
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
// solving requests concurrently (each solve then generates candidates
// sequentially), so the total concurrency stays at the configured width
// rather than its square. The width changes no result: their commits run
// in request order at any width.
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
// comparing algorithms on one network pays the Dijkstra work once. It
// solves req, then commits the forest to the session's books.
func (s *Solver) EmbedAlgorithm(ctx context.Context, req Request, algo Algorithm) (*Forest, error) {
	cf, err := s.solve(ctx, req, algo, s.parallelism)
	if err != nil {
		return nil, err
	}
	return s.commit(cf, req)
}

// solve runs one embedding with an explicit candidate-generation width
// (innerPar): single embeds pass the session width, and the request
// pipeline passes 1, so its concurrent solves are the only pool (at
// pipeline width 1 the session width is 1 as well). It books nothing:
// commit does, and the repair re-embed tier copies the result into a
// forest the ledger already holds.
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

// EmbedBatch embeds every request of the batch through EmbedStream (Rost
// & Schmid's batch setting: the solver, not the caller, owns the
// fan-out), so each result, lease id and LiveForests position is the one
// a sequential Embed loop over reqs gives, at any width. Results are
// returned in request order; per-request failures are recorded in
// Result.Err rather than aborting the batch. The only call-level error is
// context cancellation, which also marks every request the stream never
// admitted.
func (s *Solver) EmbedBatch(ctx context.Context, reqs []Request) ([]Result, error) {
	in := make(chan Request, len(reqs))
	for _, r := range reqs {
		in <- r
	}
	close(in)
	results := make([]Result, len(reqs))
	n := 0
	for r := range s.EmbedStream(ctx, in) {
		results[r.Index] = r
		n++
	}
	// The stream admits in order and stops early only once ctx is done.
	var err error
	for i := n; i < len(reqs); i++ {
		err = ctx.Err()
		results[i] = Result{Index: i, Err: err}
	}
	return results, err
}

// EmbedStream embeds requests as they arrive on reqs (the online setting
// of Section VIII-C and Lukovszki & Schmid's request-stream model, where
// the arrival order defines the outcome). Up to fanout.Width(parallelism,
// ∞) requests are solved at once, each booking nothing, and one goroutine
// commits them in arrival order. A request whose solve began before the
// network's cost epoch last moved — an earlier commit's capacity mask, a
// cost write or a failure all move it — is solved again at its turn. So
// each Result, with its forest or error, its lease id and its place in
// LiveForests, is the one a sequential Embed loop gives, at any width,
// and results are delivered in arrival order, each carrying its arrival
// Index. At width 1 no solve starts before the previous commit. Every
// admitted request produces exactly one Result: cancellation stops
// admission, not delivery, and a request not committed by then fails with
// ctx.Err(). The returned channel is closed once reqs is closed (or ctx is
// done) and every admitted request's Result is delivered; consumers must
// drain it until then.
func (s *Solver) EmbedStream(ctx context.Context, reqs <-chan Request) <-chan Result {
	if ctx == nil {
		ctx = context.Background()
	}
	par := fanout.Width(s.parallelism, math.MaxInt)
	type arrival struct {
		idx   int
		req   Request
		epoch uint64 // the cost epoch the solve began on
		cf    *core.Forest
		err   error
		done  chan struct{} // closed when the solve has finished
	}
	// queue holds the admitted arrivals in order for the committer, and
	// slots bounds the solves running at once. Unbuffered at width 1, the
	// queue admits the next arrival only once the committer is free. At
	// width > 1 up to 4·(width−1) arrivals wait beside the running solves:
	// a shorter queue idles free slots while a slow solve holds its head,
	// and a longer one only starts more solves that a moving epoch voids.
	queue := make(chan *arrival, 4*(par-1))
	slots := make(chan struct{}, par)
	go func() {
		defer close(queue)
		for idx := 0; ctx.Err() == nil; idx++ {
			a := &arrival{idx: idx, done: make(chan struct{})}
			var ok bool
			select {
			case a.req, ok = <-reqs:
				if !ok {
					return
				}
			case <-ctx.Done():
				return
			}
			queue <- a // the committer drains the queue until it is closed
			slots <- struct{}{}
			go func() {
				a.epoch = s.net.g.CostEpoch()
				a.cf, a.err = s.solve(ctx, a.req, s.algo, 1)
				<-slots
				close(a.done)
			}()
		}
	}()
	out := make(chan Result)
	go func() {
		defer close(out)
		for a := range queue {
			<-a.done
			if a.epoch != s.net.g.CostEpoch() { // the network moved since this solve began
				a.cf, a.err = s.solve(ctx, a.req, s.algo, 1)
			}
			r := Result{Index: a.idx, Err: cmp.Or(ctx.Err(), a.err)}
			if r.Err == nil {
				r.Forest, r.Err = s.commit(a.cf, a.req)
			}
			out <- r
		}
	}()
	return out
}
