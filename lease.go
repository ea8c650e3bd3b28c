package sof

// The session ledger and capacitated lifecycle sessions. A session built
// WithRecovery or WithCapacity books every forest it commits as one entry
// of one table, keyed by a commit-order id and guarded by the session's
// mu: RepairAll sweeps the entries still marked swept, and on a
// capacitated session each entry is also the forest's lease.
//
// A Solver built WithCapacity tracks the load every accepted embedding
// places on links and VM slots, enforces the capacities, and releases the
// load when the service departs — explicitly (Leave) or by TTL expiry
// against the session's virtual clock (AdvanceTime). Each accepted embed
// owns a lease recording its resource footprint; the lease is the unit of
// release, so load conservation is an invariant: at any instant every
// tracker's load equals the sum of the live leases' demands.
//
// Enforcement reaches the embedding algorithms through the graph's
// capacity-mask layer: the moment a link or VM slot has no headroom for one
// more request, the session masks it and every traversal prices it as
// unusable — exactly how failed elements are excluded, except that masked
// elements are full, not broken, so forests already crossing them keep
// serving and no repair fires. The authoritative check is still the
// two-phase reservation under the session lock (a forest may cross one
// edge several times and overshoot the mask threshold): a footprint that
// does not fit is rejected with ErrCapacityExceeded and no state changes.
//
// Admission control has one rejection site: WithAdaptiveAdmission —
// Lukovszki & Schmid's competitive online rule, a threshold exponential in
// current utilization — prices the footprint first, then the capacity
// reservation runs.

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"sof/internal/core"
	"sof/internal/costmodel"
	"sof/internal/graph"
)

// ErrCapacityExceeded is returned by Embed on a capacitated session when
// the computed forest's footprint does not fit the remaining link or VM
// capacity. Distinguish it from infeasibility ("no route exists") and
// admission rejection ("a route exists but is too expensive") with
// errors.Is.
var ErrCapacityExceeded = costmodel.ErrCapacityExceeded

// ErrNotCapacitated is returned by lifecycle calls (Leave, AdvanceTime) on
// sessions built without WithCapacity.
var ErrNotCapacitated = errors.New("sof: session has no capacity tracking (build the Solver WithCapacity)")

// ErrUnknownLease is returned by Leave for a lease id the session does not
// hold (never issued, already departed, or already expired).
var ErrUnknownLease = errors.New("sof: unknown lease")

// LeaseID identifies one accepted embedding's resource reservation. The
// zero id is never issued.
type LeaseID int64

// entry is one committed forest's row in the session ledger. swept marks
// a forest RepairAll sweeps: set on sessions built WithRecovery, cleared
// by Release. On a capacitated session the entry is also the forest's
// lease: its footprint as last applied to the trackers — edges with
// multiplicity (each crossing carries the session's demand), VMs once each
// (one slot per forest per VM) — and its expiry. The entry leaves the
// table when the lease ends (Leave, expiry), or at Release on a session
// without capacity; absence from the table means ended.
//
// Only commit, reshape and endLocked touch a lease's load, each in one
// critical section under mu, so the footprint a lease charges is its
// forest's between any two of them, and ending a lease releases it once.
type entry struct {
	id     LeaseID
	forest *Forest
	swept  bool
	// expiry is the virtual time at which the lease lapses; 0 means it
	// never expires on its own.
	expiry int64
	edges  []graph.EdgeID
	vms    []graph.NodeID
	// heapIdx is the entry's position in the expiry heap, -1 when not
	// queued (no TTL, or already popped).
	heapIdx int
}

// leaseHeap is a min-heap on (expiry, id); only TTL-bearing leases enter.
type leaseHeap []*entry

func (h leaseHeap) Len() int { return len(h) }
func (h leaseHeap) Less(i, j int) bool {
	if h[i].expiry != h[j].expiry {
		return h[i].expiry < h[j].expiry
	}
	return h[i].id < h[j].id
}
func (h leaseHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *leaseHeap) Push(x any) {
	e := x.(*entry)
	e.heapIdx = len(*h)
	*h = append(*h, e)
}
func (h *leaseHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.heapIdx = -1
	*h = old[:n-1]
	return e
}

// capacityState is a capacitated session's load accounting, guarded by
// the session's mu; the graph's mask layer is updated inside the same
// critical section so the mask can never disagree with the headroom it
// advertises.
type capacityState struct {
	links   *costmodel.Tracker // indexed by EdgeID
	vmSlots *costmodel.Tracker // indexed by NodeID; only VM nodes carry load
	demand  float64            // per-link-crossing demand of one request
	expiry  leaseHeap
	now     int64

	adaptive    bool
	admitMu     float64
	admitBudget float64

	// accumulated is the session's total revenue — the destination count of
	// every accepted request (Lukovszki & Schmid's benefit model). It only
	// grows; departures do not refund it.
	accumulated float64
}

// WithCapacity turns the session into a capacitated lifecycle session:
// every link holds linkCap units of demand, every VM vmCap concurrent
// forests, and each accepted embed reserves its footprint under a lease
// until Leave or TTL expiry. Saturated elements are capacity-masked on the
// network, so subsequent embeds route around them; embeds whose footprint
// cannot fit fail with ErrCapacityExceeded.
func WithCapacity(linkCap, vmCap float64) Option {
	return func(s *Solver) {
		cs := s.ensureCapacity()
		cs.links = costmodel.NewTracker(s.net.g.NumEdges(), linkCap)
		cs.vmSlots = costmodel.NewTracker(s.net.g.NumNodes(), vmCap)
	}
}

// WithDemand sets the bandwidth demand one request places on every link
// its forest crosses (1 when not given). Applies to capacitated sessions.
func WithDemand(d float64) Option {
	return func(s *Solver) {
		if d <= 0 {
			d = 1
		}
		s.ensureCapacity().demand = d
	}
}

// WithAdaptiveAdmission installs Lukovszki & Schmid's competitive online
// admission rule instead of a static cost bound: a request is admitted only
// if the utilization-exponential price of its footprint,
//
//	Σ_{r ∈ footprint} (mu^{u(r)} − 1),
//
// with u(r) the resource's current utilization, stays within budget ×
// |Destinations| (the request's revenue — each destination is one unit of
// benefit). Near-empty resources price at ~0 and saturated ones
// exponentially high, so the threshold adapts to load where a constant
// either over-admits under congestion or starves an empty network.
// mu <= 1 selects the default 16, budget <= 0 the default 1. Requires a
// capacitated session to have utilizations to price; it implies
// WithCapacity's state but not its capacities, so combine the two options.
func WithAdaptiveAdmission(mu, budget float64) Option {
	return func(s *Solver) {
		cs := s.ensureCapacity()
		cs.adaptive = true
		if mu <= 1 {
			mu = 16
		}
		if budget <= 0 {
			budget = 1
		}
		cs.admitMu = mu
		cs.admitBudget = budget
	}
}

// ensureCapacity returns the session's capacity state, building a default
// one (infinite capacities until WithCapacity overrides them) so option
// order does not matter.
func (s *Solver) ensureCapacity() *capacityState {
	if s.capacity == nil {
		g := s.net.g
		s.capacity = &capacityState{
			links:   costmodel.NewTracker(g.NumEdges(), math.Inf(1)),
			vmSlots: costmodel.NewTracker(g.NumNodes(), math.Inf(1)),
			demand:  1,
		}
	}
	return s.capacity
}

// linkNeed is the demand a footprint places on one link.
type linkNeed struct {
	e graph.EdgeID
	d float64
}

// aggregateDemand folds a footprint's edge list (with multiplicity) into
// per-link demand, one entry per distinct link in id order, so pricing,
// the fit check, apply and release all walk the links in one fixed order:
// the first link that does not fit is the one reported, and float sums
// over the links come out the same on every run.
func aggregateDemand(edges []graph.EdgeID, demand float64) []linkNeed {
	var need []linkNeed
	for _, e := range slices.Sorted(slices.Values(edges)) {
		if n := len(need); n > 0 && need[n-1].e == e {
			need[n-1].d += demand
			continue
		}
		need = append(need, linkNeed{e: e, d: demand})
	}
	return need
}

// commit books a solved forest and wraps it. On a capacitated session it
// prices the footprint (adaptive admission), reserves it and opens the
// lease; on any error the trackers, masks and ledger are exactly as
// before the call. The entry gets the next commit-order id, which is also
// its lease id. A session built with neither WithRecovery nor
// WithCapacity books nothing.
func (s *Solver) commit(cf *core.Forest, req Request) (*Forest, error) {
	f := &Forest{sources: req.Sources, s: s}
	f.published.Store(cf)
	cs := s.capacity
	if cs == nil && !s.recovery {
		return f, nil
	}
	e := &entry{forest: f, swept: s.recovery, heapIdx: -1}
	var need []linkNeed
	if cs != nil {
		fp := cf.Footprint()
		e.edges, e.vms = fp.Edges, fp.VMs
		need = aggregateDemand(fp.Edges, cs.demand)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if cs != nil {
		if cs.adaptive {
			price := 0.0
			for _, n := range need {
				price += math.Pow(cs.admitMu, cs.links.Utilization(int(n.e))) - 1
			}
			for _, v := range e.vms {
				price += math.Pow(cs.admitMu, cs.vmSlots.Utilization(int(v))) - 1
			}
			if revenue := float64(len(req.Destinations)); price > cs.admitBudget*revenue {
				return nil, fmt.Errorf("%w (utilization price %.3f > budget %.3f)",
					ErrAdmissionRejected, price, cs.admitBudget*revenue)
			}
		}
		// Two-phase reservation: validate the whole footprint, then apply.
		// Nothing is written before everything fits, so failure needs no
		// rollback.
		for _, n := range need {
			if !cs.links.Fits(int(n.e), n.d) {
				return nil, fmt.Errorf("link %d: %w", n.e, ErrCapacityExceeded)
			}
		}
		for _, v := range e.vms {
			if !cs.vmSlots.Fits(int(v), 1) {
				return nil, fmt.Errorf("vm %d: %w", v, ErrCapacityExceeded)
			}
		}
		cs.apply(s.net.g, need, e.vms)
		cs.accumulated += float64(len(req.Destinations))
	}
	s.lastID++
	e.id, f.id = s.lastID, s.lastID
	if cs != nil && req.TTL > 0 {
		// Saturate at the clock's end: now + TTL must not wrap negative,
		// which would lapse the lease at the next advance.
		e.expiry = cs.now + min(req.TTL, math.MaxInt64-cs.now)
		heap.Push(&cs.expiry, e)
	}
	s.entries[e.id] = e
	return f, nil
}

// apply adds a footprint's demand to the trackers and masks whatever
// saturates. Callers hold the session's mu.
func (cs *capacityState) apply(g *graph.Graph, need []linkNeed, vms []graph.NodeID) {
	for _, n := range need {
		cs.links.Add(int(n.e), n.d)
		if cs.links.Saturated(int(n.e), cs.demand) {
			g.MaskEdge(n.e)
		}
	}
	for _, v := range vms {
		cs.vmSlots.Add(int(v), 1)
		if cs.vmSlots.Saturated(int(v), 1) {
			g.MaskNode(v)
		}
	}
}

// release removes a lease's footprint from the trackers and unmasks
// whatever regained headroom. Callers hold the session's mu. Tracker
// underflow — the session's books drifting from the lease's — is
// propagated, never swallowed: every error is joined so one bad edge does
// not hide another, and the remaining releases still run (leaving load
// behind on purpose would compound the drift).
func (cs *capacityState) release(g *graph.Graph, l *entry) error {
	var errs []error
	for _, n := range aggregateDemand(l.edges, cs.demand) {
		if err := cs.links.Remove(int(n.e), n.d); err != nil {
			errs = append(errs, err)
		}
		if !cs.links.Saturated(int(n.e), cs.demand) {
			g.UnmaskEdge(n.e)
		}
	}
	for _, v := range l.vms {
		if err := cs.vmSlots.Remove(int(v), 1); err != nil {
			errs = append(errs, err)
		}
		if !cs.vmSlots.Saturated(int(v), 1) {
			g.UnmaskNode(v)
		}
	}
	return errors.Join(errs...)
}

// endLocked ends an entry's lease and drops the entry from the ledger: it
// releases the load and unqueues its expiry. Callers hold s.mu.
func (s *Solver) endLocked(e *entry) error {
	err := s.capacity.release(s.net.g, e)
	delete(s.entries, e.id)
	if e.heapIdx >= 0 {
		heap.Remove(&s.capacity.expiry, e.heapIdx)
	}
	return err
}

// Leave departs the service holding lease id. In one critical section its
// load is released, its saturated elements regain headroom, and its
// forest leaves the ledger, so RepairAll no longer sweeps it. A departure
// waits for a repair or dynamic operation in flight, which holds the same
// lock, so it releases whatever shape that left. Returns ErrUnknownLease
// for ids the session does not hold and ErrNotCapacitated on sessions
// without capacity tracking.
func (s *Solver) Leave(id LeaseID) error {
	if s.capacity == nil {
		return ErrNotCapacitated
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	return s.endLocked(e)
}

// AdvanceTime moves the session's virtual clock to now (monotone: an
// earlier value only reads the clock) and expires every lease whose TTL
// has lapsed, ending it exactly as Leave would: its load is released and
// its forest leaves the ledger in the same critical section. The expired
// lease ids are returned in expiry order. Online simulators drive this
// once per arrival step.
func (s *Solver) AdvanceTime(now int64) ([]LeaseID, error) {
	cs := s.capacity
	if cs == nil {
		return nil, ErrNotCapacitated
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cs.now = max(cs.now, now)
	var (
		expired []LeaseID
		errs    []error
	)
	for cs.expiry.Len() > 0 && cs.expiry[0].expiry <= cs.now {
		e := heap.Pop(&cs.expiry).(*entry)
		expired = append(expired, e.id)
		if err := s.endLocked(e); err != nil {
			errs = append(errs, fmt.Errorf("lease %d: %w", e.id, err))
		}
	}
	return expired, errors.Join(errs...)
}

// Now returns the session's virtual clock (0 on non-capacitated sessions).
func (s *Solver) Now() int64 {
	cs := s.capacity
	if cs == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return cs.now
}

// Accumulated returns the session's total revenue: the summed destination
// count of every accepted request. Monotone — departures do not refund it.
func (s *Solver) Accumulated() float64 {
	cs := s.capacity
	if cs == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return cs.accumulated
}

// LinkLoad returns the demand currently reserved on link e (0 on
// non-capacitated sessions, and for a link outside the network).
func (s *Solver) LinkLoad(e EdgeID) float64 {
	cs := s.capacity
	if cs == nil || !s.net.g.ValidEdge(e) {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return cs.links.Load(int(e))
}

// VMLoad returns the number of forests currently holding a slot on VM v
// (0 on non-capacitated sessions, and for a node outside the network).
func (s *Solver) VMLoad(v NodeID) float64 {
	cs := s.capacity
	if cs == nil || !s.net.g.Valid(v) {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return cs.vmSlots.Load(int(v))
}

// LeaseInfo is a read-only snapshot of one live lease: its footprint as
// currently charged to the trackers (edges with multiplicity — each
// crossing carries Demand), which is its forest's Footprint, and its
// expiry (0 = no TTL).
type LeaseInfo struct {
	ID     LeaseID
	Expiry int64
	Demand float64
	Edges  []EdgeID
	VMs    []NodeID
}

// Leases snapshots the session's live leases in id order. The conservation
// invariant — for every link, LinkLoad equals the summed demand of these
// footprints (and likewise per VM) — is what the lifecycle property tests
// verify after arbitrary embed/depart/fail/repair interleavings.
func (s *Solver) Leases() []LeaseInfo {
	cs := s.capacity
	if cs == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]LeaseInfo, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, LeaseInfo{
			ID:     e.id,
			Expiry: e.expiry,
			Demand: cs.demand,
			Edges:  append([]EdgeID(nil), e.edges...),
			VMs:    append([]NodeID(nil), e.vms...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LiveLeases returns the number of live leases — len(Leases()) without
// copying or sorting them, for callers that only need the count.
func (s *Solver) LiveLeases() int {
	if s.capacity == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Lease returns the forest's lease id, false when the forest holds none
// (non-capacitated session, or the lease already ended).
func (f *Forest) Lease() (LeaseID, bool) {
	s := f.s
	if s.capacity == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[f.id]; !ok {
		return 0, false
	}
	return f.id, true
}

// reshape runs op, a change to f's shape, as one critical section of the
// ledger: it holds mu, releases the footprint f's lease charges, so op's
// route searches see the network without this forest's own masks, runs op
// on a copy of the published shape, and charges the footprint op leaves.
// It publishes the copy whether op failed or not, as a change in place
// would have left it, so readers never see a shape op is still changing,
// and a shape they hold never changes. Every repair and dynamic operation
// goes through here, so a lease charges its forest's footprint between any
// two of them. The charge is unconditional (apply, not commit's two-phase
// check): a reshaped forest keeps serving even where it overshoots a
// capacity, and the overshoot is masked so no new embed piles on. A forest
// with no live lease just runs op, under mu all the same. The trade-off:
// commits, Leave and AdvanceTime on other goroutines wait while op runs, a
// repair's re-embed included.
func (s *Solver) reshape(f *Forest, op func(cf *core.Forest) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cf := f.shape().Copy()
	defer f.published.Store(cf)
	cs := s.capacity
	e, ok := s.entries[f.id]
	if cs == nil || !ok {
		return op(cf)
	}
	err := cs.release(s.net.g, e)
	err = errors.Join(op(cf), err)
	fp := cf.Footprint()
	e.edges, e.vms = fp.Edges, fp.VMs
	cs.apply(s.net.g, aggregateDemand(fp.Edges, cs.demand), fp.VMs)
	return err
}

// Reprice writes load-dependent costs back to the network: every link's
// connection cost becomes the Fortz–Thorup marginal cost of one more
// request's demand at its current load, every VM's setup cost the marginal
// cost of one more slot. Epoch semantics are SetLinkCost's — unchanged
// values are no-ops, so repricing an idle session keeps caches warm. The
// online simulator calls this once per step; explicit rather than implicit
// per-embed, because a repricing pass invalidates the session's warm
// shortest-path state and the caller owns that trade-off.
func (s *Solver) Reprice() {
	cs := s.capacity
	if cs == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.net.g
	for e := 0; e < g.NumEdges(); e++ {
		g.SetEdgeCost(graph.EdgeID(e), costmodel.MarginalCost(cs.links.Load(e), cs.demand, cs.links.Capacity(e)))
	}
	for _, v := range g.VMs() {
		g.SetNodeCost(v, costmodel.MarginalCost(cs.vmSlots.Load(int(v)), 1, cs.vmSlots.Capacity(int(v))))
	}
}
