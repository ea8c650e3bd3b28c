package sof

// Capacitated lifecycle sessions: a Solver built WithCapacity tracks the
// load every accepted embedding places on links and VM slots, enforces the
// capacities, and releases the load when the service departs — explicitly
// (Leave) or by TTL expiry against the session's virtual clock
// (AdvanceTime). Each accepted embed owns a lease recording its resource
// footprint; the lease is the unit of release, so load conservation is an
// invariant: at any instant every tracker's load equals the sum of the
// live leases' demands.
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
	"sort"
	"sync"

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

// leaseState is the exactly-once release state machine. A lease releases
// its load exactly once no matter how departure, TTL expiry, and repair
// suspension interleave: suspension moves active→suspended (load off the
// trackers while the forest is reshaped), resumption moves it back, and
// any path to ended — Leave, expiry — releases only from active, because a
// suspended lease's load is already off the books.
type leaseState int

const (
	leaseActive leaseState = iota
	leaseSuspended
	leaseEnded
)

// lease records one accepted embedding's resource footprint as last
// applied to the trackers: Edges with multiplicity (each crossing carries
// demand), VMs once each (one slot per forest per VM).
type lease struct {
	id     LeaseID
	forest *Forest
	demand float64
	// expiry is the virtual time at which the lease lapses; 0 means it
	// never expires on its own.
	expiry int64
	state  leaseState
	edges  []graph.EdgeID
	vms    []graph.NodeID
	// heapIdx is the lease's position in the expiry heap, -1 when not
	// queued (no TTL, or already popped).
	heapIdx int
}

// leaseHeap is a min-heap on (expiry, id); only TTL-bearing leases enter.
type leaseHeap []*lease

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
	l := x.(*lease)
	l.heapIdx = len(*h)
	*h = append(*h, l)
}
func (h *leaseHeap) Pop() any {
	old := *h
	n := len(old)
	l := old[n-1]
	old[n-1] = nil
	l.heapIdx = -1
	*h = old[:n-1]
	return l
}

// capacityState is the session's load ledger. mu serializes every
// reservation, release, and clock advance; the graph's mask layer is
// updated inside the same critical section so the mask can never disagree
// with the headroom it advertises.
type capacityState struct {
	mu      sync.Mutex
	links   *costmodel.Tracker // indexed by EdgeID
	vmSlots *costmodel.Tracker // indexed by NodeID; only VM nodes carry load
	demand  float64            // per-link-crossing demand of one request
	leases  map[LeaseID]*lease
	nextID  LeaseID
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
		g := s.net.g
		cs := &capacityState{
			links:   costmodel.NewTracker(g.NumEdges(), linkCap),
			vmSlots: costmodel.NewTracker(g.NumNodes(), vmCap),
			demand:  1,
			leases:  make(map[LeaseID]*lease),
		}
		if s.capacity != nil { // preserve WithDemand/WithAdaptiveAdmission given first
			cs.demand = s.capacity.demand
			cs.adaptive = s.capacity.adaptive
			cs.admitMu = s.capacity.admitMu
			cs.admitBudget = s.capacity.admitBudget
		}
		s.capacity = cs
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
			leases:  make(map[LeaseID]*lease),
		}
	}
	return s.capacity
}

// Capacitated reports whether the session tracks load under leases.
func (s *Solver) Capacitated() bool { return s.capacity != nil }

// aggregateDemand folds a footprint's edge list (with multiplicity) into
// per-edge demand.
func aggregateDemand(edges []graph.EdgeID, demand float64) map[graph.EdgeID]float64 {
	need := make(map[graph.EdgeID]float64, len(edges))
	for _, e := range edges {
		need[e] += demand
	}
	return need
}

// admitAndLease prices, reserves, and leases a freshly embedded forest.
// Called from embed after the algorithm has found it. On any error the
// trackers, masks, and lease table are exactly as before the call.
func (s *Solver) admitAndLease(out *Forest, req Request) error {
	cs := s.capacity
	fp := out.f.Footprint()
	need := aggregateDemand(fp.Edges, cs.demand)

	cs.mu.Lock()
	defer cs.mu.Unlock()

	if cs.adaptive {
		price := 0.0
		for e := range need {
			price += math.Pow(cs.admitMu, cs.links.Utilization(int(e))) - 1
		}
		for _, v := range fp.VMs {
			price += math.Pow(cs.admitMu, cs.vmSlots.Utilization(int(v))) - 1
		}
		if revenue := float64(len(req.Destinations)); price > cs.admitBudget*revenue {
			return fmt.Errorf("%w (utilization price %.3f > budget %.3f)",
				ErrAdmissionRejected, price, cs.admitBudget*revenue)
		}
	}

	// Two-phase reservation: validate the whole footprint, then apply.
	// Nothing is written before everything fits, so failure needs no
	// rollback.
	for e, d := range need {
		if !cs.links.Fits(int(e), d) {
			return fmt.Errorf("link %d: %w", e, ErrCapacityExceeded)
		}
	}
	for _, v := range fp.VMs {
		if !cs.vmSlots.Fits(int(v), 1) {
			return fmt.Errorf("vm %d: %w", v, ErrCapacityExceeded)
		}
	}
	cs.apply(s.net.g, need, fp.VMs)

	cs.nextID++
	l := &lease{
		id:      cs.nextID,
		forest:  out,
		demand:  cs.demand,
		edges:   fp.Edges,
		vms:     fp.VMs,
		heapIdx: -1,
	}
	if req.TTL > 0 {
		l.expiry = cs.now + req.TTL
		heap.Push(&cs.expiry, l)
	}
	cs.leases[l.id] = l
	cs.accumulated += float64(len(req.Destinations))
	out.lease = l.id
	return nil
}

// apply adds a footprint's demand to the trackers and masks whatever
// saturates. Callers hold cs.mu.
func (cs *capacityState) apply(g *graph.Graph, need map[graph.EdgeID]float64, vms []graph.NodeID) {
	for e, d := range need {
		cs.links.Add(int(e), d)
		if cs.links.Saturated(int(e), cs.demand) {
			g.MaskEdge(e)
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
// whatever regained headroom. Callers hold cs.mu. Tracker underflow — the
// session's books drifting from the lease's — is propagated, never
// swallowed: every error is joined so one bad edge does not hide another,
// and the remaining releases still run (leaving load behind on purpose
// would compound the drift).
func (cs *capacityState) release(g *graph.Graph, l *lease) error {
	var errs []error
	need := aggregateDemand(l.edges, l.demand)
	edges := make([]graph.EdgeID, 0, len(need))
	for e := range need {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	for _, e := range edges {
		if err := cs.links.Remove(int(e), need[e]); err != nil {
			errs = append(errs, err)
		}
		if !cs.links.Saturated(int(e), cs.demand) {
			g.UnmaskEdge(e)
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

// endLocked finishes a lease: releases its load if it still holds any,
// marks it ended, and drops it from the table. Callers hold cs.mu and are
// responsible for unregistering the forest outside the lock.
func (cs *capacityState) endLocked(g *graph.Graph, l *lease) error {
	var err error
	if l.state == leaseActive {
		err = cs.release(g, l)
	}
	l.state = leaseEnded
	delete(cs.leases, l.id)
	if l.heapIdx >= 0 {
		heap.Remove(&cs.expiry, l.heapIdx)
	}
	return err
}

// Leave departs the service holding lease id: its load is released, its
// saturated elements regain headroom, and its forest leaves the recovery
// registry. Departing mid-repair is safe — a suspended lease's load is
// already off the trackers and is not released twice. Returns
// ErrUnknownLease for ids the session does not hold and ErrNotCapacitated
// on sessions without capacity tracking.
func (s *Solver) Leave(id LeaseID) error {
	cs := s.capacity
	if cs == nil {
		return ErrNotCapacitated
	}
	cs.mu.Lock()
	l, ok := cs.leases[id]
	if !ok {
		cs.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownLease, id)
	}
	err := cs.endLocked(s.net.g, l)
	cs.mu.Unlock()
	l.forest.Release()
	return err
}

// AdvanceTime moves the session's virtual clock to now (monotone: an
// earlier value only reads the clock) and expires every lease whose TTL
// has lapsed, releasing its load and unregistering its forest exactly as
// Leave would. The expired lease ids are returned in expiry order. Online
// simulators drive this once per arrival step.
func (s *Solver) AdvanceTime(now int64) ([]LeaseID, error) {
	cs := s.capacity
	if cs == nil {
		return nil, ErrNotCapacitated
	}
	cs.mu.Lock()
	if now > cs.now {
		cs.now = now
	}
	var (
		expired []LeaseID
		forests []*Forest
		errs    []error
	)
	for cs.expiry.Len() > 0 && cs.expiry[0].expiry <= cs.now {
		l := heap.Pop(&cs.expiry).(*lease)
		expired = append(expired, l.id)
		forests = append(forests, l.forest)
		if err := cs.endLocked(s.net.g, l); err != nil {
			errs = append(errs, fmt.Errorf("lease %d: %w", l.id, err))
		}
	}
	cs.mu.Unlock()
	for _, f := range forests {
		f.Release()
	}
	return expired, errors.Join(errs...)
}

// Now returns the session's virtual clock (0 on non-capacitated sessions).
func (s *Solver) Now() int64 {
	cs := s.capacity
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.now
}

// Accumulated returns the session's total revenue: the summed destination
// count of every accepted request. Monotone — departures do not refund it.
func (s *Solver) Accumulated() float64 {
	cs := s.capacity
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.accumulated
}

// LinkLoad returns the demand currently reserved on link e (0 on
// non-capacitated sessions, and for a link outside the network).
func (s *Solver) LinkLoad(e EdgeID) float64 {
	cs := s.capacity
	if cs == nil || !s.net.g.ValidEdge(e) {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.links.Load(int(e))
}

// VMLoad returns the number of forests currently holding a slot on VM v
// (0 on non-capacitated sessions, and for a node outside the network).
func (s *Solver) VMLoad(v NodeID) float64 {
	cs := s.capacity
	if cs == nil || !s.net.g.Valid(v) {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.vmSlots.Load(int(v))
}

// LeaseInfo is a read-only snapshot of one live lease: its footprint as
// currently charged to the trackers (edges with multiplicity — each
// crossing carries Demand) and its expiry (0 = no TTL). Suspended leases
// (mid-repair) are excluded: their load is off the trackers.
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
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]LeaseInfo, 0, len(cs.leases))
	for _, l := range cs.leases {
		if l.state != leaseActive {
			continue
		}
		out = append(out, LeaseInfo{
			ID:     l.id,
			Expiry: l.expiry,
			Demand: l.demand,
			Edges:  append([]EdgeID(nil), l.edges...),
			VMs:    append([]NodeID(nil), l.vms...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LiveLeases returns the number of live leases — len(Leases()) without
// copying or sorting them, for callers that only need the count.
func (s *Solver) LiveLeases() int {
	cs := s.capacity
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := 0
	for _, l := range cs.leases {
		if l.state == leaseActive {
			n++
		}
	}
	return n
}

// Lease returns the forest's lease id, false when the forest holds none
// (non-capacitated session, or the lease already ended).
func (f *Forest) Lease() (LeaseID, bool) {
	if f.lease == 0 || f.owner == nil || f.owner.capacity == nil {
		return 0, false
	}
	cs := f.owner.capacity
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if _, ok := cs.leases[f.lease]; !ok {
		return 0, false
	}
	return f.lease, true
}

// suspendLease takes the forest's load off the trackers while a repair
// reshapes it, so the repair's own route search sees the network without
// this forest's footprint pinning masks. Reports whether a lease was
// suspended (false: none, not capacitated, or already suspended/ended —
// the exactly-once guard).
func (s *Solver) suspendLease(f *Forest) (bool, error) {
	cs := s.capacity
	if cs == nil || f.lease == 0 {
		return false, nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	l, ok := cs.leases[f.lease]
	if !ok || l.state != leaseActive {
		return false, nil
	}
	err := cs.release(s.net.g, l)
	l.state = leaseSuspended
	return true, err
}

// resumeLease re-applies a suspended lease for whatever shape the forest
// has now — repaired routes are charged like any other traffic. The
// re-apply is unconditional (Add, not Reserve): a repaired forest keeps
// serving even where the detour overshoots capacity; the overshoot is
// masked so no new embed piles on. A lease ended mid-repair (the forest
// departed) is left alone.
func (s *Solver) resumeLease(f *Forest) {
	cs := s.capacity
	if cs == nil || f.lease == 0 {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	l, ok := cs.leases[f.lease]
	if !ok || l.state != leaseSuspended {
		return
	}
	fp := f.f.Footprint()
	l.edges, l.vms = fp.Edges, fp.VMs
	cs.apply(s.net.g, aggregateDemand(fp.Edges, l.demand), fp.VMs)
	l.state = leaseActive
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
	cs.mu.Lock()
	defer cs.mu.Unlock()
	g := s.net.g
	for e := 0; e < g.NumEdges(); e++ {
		g.SetEdgeCost(graph.EdgeID(e), costmodel.MarginalCost(cs.links.Load(e), cs.demand, cs.links.Capacity(e)))
	}
	for _, v := range g.VMs() {
		g.SetNodeCost(v, costmodel.MarginalCost(cs.vmSlots.Load(int(v)), 1, cs.vmSlots.Capacity(int(v))))
	}
}
