// Package online implements the online deployment scenario of Section
// VIII-C: requests arrive sequentially, each is embedded by a chosen
// algorithm under the current load-dependent costs, the accepted forest's
// demand is reserved on the links and VMs it uses, and all costs are
// re-priced with the Fortz–Thorup function before the next arrival. The
// accumulated cost curve reproduces Figure 12.
//
// The simulator drives a single long-lived capacitated sof.Solver session:
// the session owns the load ledger (a lease per accepted request), enforces
// the link and VM-slot capacities, expires TTL-bearing requests against its
// virtual clock, and masks saturated elements so later arrivals route
// around them. Candidate shortest-path state is cached across arrivals and
// invalidated lazily through the network's cost epoch, so steps whose
// re-pricing did not actually change any cost embed from a warm cache.
package online

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"time"

	"sof"
	"sof/internal/graph"
	"sof/internal/topology"
)

// Algorithm names an embedding algorithm for the simulator. The values
// coincide with the public sof.Algorithm identifiers; the simulator
// forwards them to its Solver session (there is deliberately no second
// dispatch switch here).
type Algorithm string

// Supported algorithms.
const (
	AlgoSOFDA Algorithm = "SOFDA"
	// AlgoSOFDASS is the single-source variant (Section V). Its embeds run
	// entirely on the real network through the session oracle — no per-
	// request auxiliary graph — so a warm-cache arrival stream pays almost
	// no shortest-path work. The scaled soak uses it with SrcRange {1,1}.
	AlgoSOFDASS Algorithm = "SOFDA-SS"
	AlgoENEMP   Algorithm = "eNEMP"
	AlgoEST     Algorithm = "eST"
	AlgoST      Algorithm = "ST"
)

// Config parameterizes a simulation run.
type Config struct {
	// LinkCapacity and demand follow Section VIII-A: 100 Mbps links,
	// 5 Mbps per request. Zero or negative means uncapacitated (loads are
	// tracked and priced but nothing is enforced or masked).
	LinkCapacity float64
	Demand       float64
	// VMCapacity bounds VNF instances per VM host slot; zero or negative
	// means unbounded slots.
	VMCapacity float64
	// SrcRange and DstRange bound the per-request source/destination
	// counts (inclusive), drawn uniformly.
	SrcRange [2]int
	DstRange [2]int
	// ChainLen is the demanded services per request (3 in the paper).
	ChainLen int
	Seed     int64

	// TTLRange bounds the per-request lifetime in arrival steps
	// (inclusive), drawn uniformly; the zero value disables departures and
	// every accepted service stays for the whole run (the Figure 12
	// arrival-only setting). One arrival step is one unit of the session's
	// virtual clock.
	TTLRange [2]int
	// AdmissionMu and AdmissionBudget, when AdmissionMu > 0, switch the
	// session to adaptive admission (sof.WithAdaptiveAdmission): a request
	// is admitted only while the utilization-exponential price of its
	// footprint stays within budget × destinations.
	AdmissionMu     float64
	AdmissionBudget float64

	// RepriceEvery batches the Fortz–Thorup repricing pass for scaled
	// soaks: costs are rewritten once every N accepted arrivals instead of
	// after every one (0 or 1 keeps the paper's per-accept repricing).
	// Between passes the session embeds against slightly stale prices but
	// keeps its shortest-path caches warm — the amortization that makes
	// 10k-node, 100k-request streams run at sub-millisecond arrivals.
	RepriceEvery int
	// AccessPool, when positive, restricts request endpoints to the first
	// AccessPool access nodes of the topology — a bounded set of points of
	// presence. On Inet graphs every switch is an access node, so without
	// the bound a 10k-node soak draws endpoints that essentially never
	// repeat and no tree or chain cache can ever warm; real arrival
	// streams enter at a fixed set of edge locations.
	AccessPool int
}

// DefaultSoftLayerConfig mirrors the paper's SoftLayer online setup.
func DefaultSoftLayerConfig() Config {
	return Config{
		LinkCapacity: 100, Demand: 5, VMCapacity: 10,
		SrcRange: [2]int{8, 12}, DstRange: [2]int{13, 17},
		ChainLen: 3,
	}
}

// DefaultCogentConfig mirrors the paper's Cogent online setup.
func DefaultCogentConfig() Config {
	return Config{
		LinkCapacity: 100, Demand: 5, VMCapacity: 10,
		SrcRange: [2]int{10, 30}, DstRange: [2]int{20, 60},
		ChainLen: 3,
	}
}

// Result is one step of the simulation.
type Result struct {
	Request     int
	Cost        float64
	Accumulated float64
	Trees       int
	UsedVMs     int
	Rejected    bool
	// Err is the embedding error behind a rejection (nil for accepted
	// requests).
	Err error
	// Lease identifies the accepted request's reservation in the session
	// (0 when rejected); Leave it on the Solver to depart early.
	Lease sof.LeaseID
	// TTL is the lifetime drawn for this request (0 = stays for the run).
	TTL int64
	// Expired counts the leases whose TTL lapsed at the start of this
	// step, before the arrival was embedded; Live is the number of leases
	// still holding resources after the step.
	Expired int
	Live    int
}

// LifecycleStats aggregates the admission and departure counters of a run.
type LifecycleStats struct {
	// Arrivals counts completed steps; Accepted the requests that got a
	// lease. Rejections are split by cause: capacity (the footprint did
	// not fit), admission (the static or adaptive threshold), and Infeasible
	// (no route existed, or the algorithm failed).
	Arrivals         int
	Accepted         int
	CapacityRejects  int
	AdmissionRejects int
	Infeasible       int
	// Departed counts leases released by TTL expiry during the run.
	Departed int
	// Dijkstras counts the session oracle's full shortest-path runs
	// (CacheStats.Misses) over the whole run; the quotient with Arrivals
	// is the amortized SSSP cost per request the warm cache achieves.
	// Repaired and Carried count the stale trees the oracle repaired or
	// carried across cost epochs instead (CacheStats.Repaired and
	// Carried), so the three sum to the trees the session built.
	Dijkstras uint64
	Repaired  uint64
	Carried   uint64
	// EmbedLatencies holds one wall-clock embedding duration per arrival,
	// accepted or not.
	EmbedLatencies []time.Duration
}

// AcceptRate returns the fraction of arrivals that were admitted
// (1 before any arrivals: an idle run rejects nothing).
func (st *LifecycleStats) AcceptRate() float64 {
	if st.Arrivals == 0 {
		return 1
	}
	return float64(st.Accepted) / float64(st.Arrivals)
}

// MeanDijkstras returns the mean full shortest-path runs per arrival
// (0 before any arrivals).
func (st *LifecycleStats) MeanDijkstras() float64 {
	if st.Arrivals == 0 {
		return 0
	}
	return float64(st.Dijkstras) / float64(st.Arrivals)
}

// LatencyP99 returns the 99th-percentile embedding latency (0 without
// arrivals).
func (st *LifecycleStats) LatencyP99() time.Duration {
	if len(st.EmbedLatencies) == 0 {
		return 0
	}
	lat := append([]time.Duration(nil), st.EmbedLatencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := (len(lat)*99 + 99) / 100
	if idx > len(lat) {
		idx = len(lat)
	}
	return lat[idx-1]
}

// Simulator owns the request stream and the capacitated Solver session all
// arrivals are embedded through; the session owns the load ledger.
type Simulator struct {
	net    *topology.Network
	cfg    Config
	algo   Algorithm
	solver *sof.Solver
	rng    *rand.Rand

	accumulated  float64
	step         int
	sinceReprice int
	lifecycle    LifecycleStats

	// Failure-injection state (see failures.go): the pending schedule,
	// the recovery counters, and the scratch-comparison flag.
	failures       []FailureEvent
	nextFail       int
	recovery       RecoveryStats
	compareScratch bool
}

// NewSimulator builds a simulator over net. The network starts unloaded
// (Section VIII-A: "the node/link usages are zero initially"). Extra
// Solver options are appended to the simulator's own (algorithm, VM
// restriction, and the capacitated lifecycle session); SetFailureSchedule
// adds sof.WithRecovery itself, so plain arrival-only runs track no
// forests.
func NewSimulator(net *topology.Network, algo Algorithm, cfg Config, opts ...sof.Option) *Simulator {
	linkCap, vmCap := cfg.LinkCapacity, cfg.VMCapacity
	if linkCap <= 0 {
		linkCap = math.Inf(1)
	}
	if vmCap <= 0 {
		vmCap = math.Inf(1)
	}
	sopts := []sof.Option{
		sof.WithAlgorithm(sof.Algorithm(algo)),
		sof.WithVMs(net.VMs...),
		sof.WithCapacity(linkCap, vmCap),
		sof.WithDemand(cfg.Demand),
	}
	if cfg.AdmissionMu > 0 {
		sopts = append(sopts, sof.WithAdaptiveAdmission(cfg.AdmissionMu, cfg.AdmissionBudget))
	}
	sopts = append(sopts, opts...)
	s := &Simulator{
		net:    net,
		cfg:    cfg,
		algo:   algo,
		solver: sof.NewSolver(sof.FromGraph(net.G), sopts...),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	s.solver.Reprice()
	return s
}

// Solver exposes the session the simulator embeds through (cache counters,
// the lease table, and the load accessors for tests and benchmarks).
func (s *Simulator) Solver() *sof.Solver { return s.solver }

// Lifecycle exposes the run's admission and departure counters.
func (s *Simulator) Lifecycle() *LifecycleStats { return &s.lifecycle }

// countTrees copies the session oracle's tree counters into the stats.
func (s *Simulator) countTrees() {
	st := s.solver.CacheStats()
	s.lifecycle.Dijkstras, s.lifecycle.Repaired, s.lifecycle.Carried = st.Misses, st.Repaired, st.Carried
}

// drawTTL samples a request lifetime from cfg.TTLRange (0 when the range
// is unset: the service stays for the whole run).
func (s *Simulator) drawTTL() int64 {
	lo, hi := s.cfg.TTLRange[0], s.cfg.TTLRange[1]
	if hi <= 0 {
		return 0
	}
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return int64(lo + s.rng.Intn(hi-lo+1))
}

// Step generates and embeds the next request, updates loads and prices,
// and returns the step result; see StepCtx for the cancellable form.
func (s *Simulator) Step() Result {
	r, _ := s.StepCtx(context.Background())
	return r
}

// StepCtx is Step with cancellation: once ctx is done the in-flight
// embedding aborts and the step is not counted. Each step advances the
// session's virtual clock by one (expiring lapsed TTLs), fires due failure
// events, embeds one arrival, and re-prices. A request that cannot be
// embedded for any other reason is reported as rejected (its cost does not
// accumulate; the cause lands in Result.Err).
func (s *Simulator) StepCtx(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	expired, err := s.solver.AdvanceTime(int64(s.step + 1))
	if err != nil {
		return Result{}, err
	}
	s.lifecycle.Departed += len(expired)
	if err := s.fireFailures(ctx); err != nil {
		return Result{}, err
	}
	pool := s.net.Access
	if p := s.cfg.AccessPool; p > 0 && p < len(pool) {
		pool = pool[:p]
	}
	nSrc := s.cfg.SrcRange[0] + s.rng.Intn(s.cfg.SrcRange[1]-s.cfg.SrcRange[0]+1)
	nDst := s.cfg.DstRange[0] + s.rng.Intn(s.cfg.DstRange[1]-s.cfg.DstRange[0]+1)
	if nSrc > len(pool) {
		nSrc = len(pool)
	}
	if nDst > len(pool) {
		nDst = len(pool)
	}
	req := sof.Request{
		Sources:      graph.SampleDistinct(s.rng, pool, nSrc),
		Destinations: graph.SampleDistinct(s.rng, pool, nDst),
		ChainLength:  s.cfg.ChainLen,
		TTL:          s.drawTTL(),
	}
	start := time.Now()
	forest, err := s.solver.Embed(ctx, req)
	embedTime := time.Since(start)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Result{}, ctxErr
		}
		s.step++
		s.lifecycle.Arrivals++
		s.countTrees()
		s.lifecycle.EmbedLatencies = append(s.lifecycle.EmbedLatencies, embedTime)
		switch {
		case errors.Is(err, sof.ErrCapacityExceeded):
			s.lifecycle.CapacityRejects++
		case errors.Is(err, sof.ErrAdmissionRejected):
			s.lifecycle.AdmissionRejects++
		default:
			s.lifecycle.Infeasible++
		}
		return Result{
			Request: s.step, Rejected: true, Err: err,
			Accumulated: s.accumulated, TTL: req.TTL,
			Expired: len(expired), Live: s.solver.LiveLeases(),
		}, nil
	}
	s.step++
	s.lifecycle.Arrivals++
	s.lifecycle.Accepted++
	s.countTrees()
	s.lifecycle.EmbedLatencies = append(s.lifecycle.EmbedLatencies, embedTime)
	res := Result{
		Request: s.step,
		Cost:    forest.TotalCost(),
		Trees:   forest.Trees(),
		UsedVMs: len(forest.UsedVMs()),
		TTL:     req.TTL,
		Expired: len(expired),
	}
	if id, ok := forest.Lease(); ok {
		res.Lease = id
	}
	s.accumulated += res.Cost
	res.Accumulated = s.accumulated
	res.Live = s.solver.LiveLeases()
	s.sinceReprice++
	if n := s.cfg.RepriceEvery; n <= 1 || s.sinceReprice >= n {
		s.solver.Reprice()
		s.sinceReprice = 0
	}
	return res, nil
}

// Run executes n steps and returns their results; see RunCtx for the
// cancellable form.
func (s *Simulator) Run(n int) []Result {
	out, _ := s.RunCtx(context.Background(), n)
	return out
}

// RunCtx executes up to n steps, stopping early (with the results
// gathered so far and ctx.Err()) once ctx is done.
func (s *Simulator) RunCtx(ctx context.Context, n int) ([]Result, error) {
	out := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		r, err := s.StepCtx(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Accumulated returns the total accepted cost so far.
func (s *Simulator) Accumulated() float64 { return s.accumulated }
