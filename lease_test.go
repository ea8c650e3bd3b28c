package sof

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// conservationError checks the lifecycle invariant: for every link and VM,
// the tracker load equals the summed demand of the live leases' footprints,
// no load is negative, LiveLeases counts the leases Leases lists, and every
// leased forest RepairAll sweeps is charged its footprint. It returns the
// first violation (nil when the books balance) so property tests can
// assert it holds after every step and the negative-control test can
// assert it catches deliberate drift.
func conservationError(s *Solver) error {
	g := s.Network().Graph()
	wantLink := make([]float64, g.NumEdges())
	wantVM := make([]float64, g.NumNodes())
	leases := s.Leases()
	if n := s.LiveLeases(); n != len(leases) {
		return fmt.Errorf("LiveLeases() = %d, Leases() holds %d", n, len(leases))
	}
	for _, l := range leases {
		for _, e := range l.Edges {
			wantLink[e] += l.Demand
		}
		for _, v := range l.VMs {
			wantVM[v]++
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		got := s.LinkLoad(EdgeID(e))
		if got < 0 {
			return fmt.Errorf("link %d: negative load %v", e, got)
		}
		if math.Abs(got-wantLink[e]) > 1e-6 {
			return fmt.Errorf("link %d: load %v, live leases sum to %v", e, got, wantLink[e])
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		got := s.VMLoad(NodeID(v))
		if got < 0 {
			return fmt.Errorf("vm %d: negative load %v", v, got)
		}
		if math.Abs(got-wantVM[v]) > 1e-6 {
			return fmt.Errorf("vm %d: load %v, live leases sum to %v", v, got, wantVM[v])
		}
	}
	for _, f := range s.LiveForests() {
		if _, ok := f.Lease(); ok {
			if err := leaseError(s, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// leaseError reports a lease that charges anything but its forest's
// footprint: the lease's edges, as a multiset, and its VMs must equal
// Footprint().
func leaseError(s *Solver, f *Forest) error {
	id, ok := f.Lease()
	if !ok {
		return errors.New("forest holds no lease")
	}
	for _, l := range s.Leases() {
		if l.ID != id {
			continue
		}
		edges, vms := f.Footprint()
		slices.Sort(edges)
		slices.Sort(l.Edges)
		if !slices.Equal(edges, l.Edges) || !slices.Equal(vms, l.VMs) {
			return fmt.Errorf("lease %d charges %v, %v; its forest has %v, %v", id, l.Edges, l.VMs, edges, vms)
		}
		return nil
	}
	return fmt.Errorf("lease %d is not listed", id)
}

// checkConservation fails the test on the first conservation violation.
func checkConservation(t *testing.T, s *Solver) {
	t.Helper()
	if err := conservationError(s); err != nil {
		t.Fatalf("load conservation violated: %v", err)
	}
}

func TestCapacitatedLeaseLifecycle(t *testing.T) {
	net, s, d := buildLine(t)
	solver := NewSolver(net, WithCapacity(10, 3))
	ctx := context.Background()
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}

	f, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := f.Lease()
	if !ok || id == 0 {
		t.Fatal("capacitated embed returned no lease")
	}
	if len(solver.Leases()) != 1 {
		t.Fatalf("Leases() = %d entries, want 1", len(solver.Leases()))
	}
	// The line route s-v1-v2-d loads all three links and both VMs.
	for e := 0; e < 3; e++ {
		if solver.LinkLoad(EdgeID(e)) != 1 {
			t.Fatalf("link %d load = %v, want 1", e, solver.LinkLoad(EdgeID(e)))
		}
	}
	if solver.Accumulated() != 1 {
		t.Fatalf("Accumulated = %v, want 1", solver.Accumulated())
	}
	checkConservation(t, solver)

	if err := solver.Leave(id); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	for e := 0; e < 3; e++ {
		if solver.LinkLoad(EdgeID(e)) != 0 {
			t.Fatalf("link %d load = %v after Leave, want 0", e, solver.LinkLoad(EdgeID(e)))
		}
	}
	if _, ok := f.Lease(); ok {
		t.Fatal("forest still reports a lease after Leave")
	}
	if err := solver.Leave(id); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("second Leave: err = %v, want ErrUnknownLease", err)
	}
	// Revenue is monotone: the departure did not refund it.
	if solver.Accumulated() != 1 {
		t.Fatalf("Accumulated = %v after Leave, want 1", solver.Accumulated())
	}
	checkConservation(t, solver)
}

func TestUncapacitatedSessionLifecycleErrors(t *testing.T) {
	net, s, d := buildLine(t)
	solver := NewSolver(net)
	f, err := solver.Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Lease(); ok {
		t.Fatal("uncapacitated embed has a lease")
	}
	if err := solver.Leave(1); !errors.Is(err, ErrNotCapacitated) {
		t.Fatalf("Leave: err = %v, want ErrNotCapacitated", err)
	}
	if _, err := solver.AdvanceTime(1); !errors.Is(err, ErrNotCapacitated) {
		t.Fatalf("AdvanceTime: err = %v, want ErrNotCapacitated", err)
	}
}

// TestCapacityExceededTyped drives the authoritative reserve-time check: a
// chain walk that backtracks crosses the v1-v2 link twice, so with
// linkCap = 1.5 the solve succeeds (each single crossing fits, nothing is
// masked) but the aggregated footprint does not — the embed must fail with
// the typed ErrCapacityExceeded and leave no state behind.
// TestCapacityExceededTyped: the walk s–a–v1–a–b–v2–b–d crosses links 3
// (a–v1) and 4 (b–v2) twice each, so neither fits a capacity of 1.5. The
// fit check walks the links in id order, so every fresh session names
// link 3, and a rejected embed leaves no lease state behind.
func TestCapacityExceededTyped(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	a := b.AddSwitch("a")
	sb := b.AddSwitch("b")
	d := b.AddSwitch("d")
	v1 := b.AddVM("v1", 1)
	v2 := b.AddVM("v2", 1)
	b.Link(s, a, 1)
	b.Link(a, sb, 1)
	b.Link(sb, d, 1)
	b.Link(a, v1, 1)
	b.Link(sb, v2, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 40; run++ {
		solver := NewSolver(net, WithCapacity(1.5, 4))
		_, err = solver.Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2})
		if !errors.Is(err, ErrCapacityExceeded) {
			t.Fatalf("run %d: err = %v, want ErrCapacityExceeded", run, err)
		}
		if !strings.HasPrefix(err.Error(), "link 3:") {
			t.Fatalf("run %d: err = %v, want link 3, the lowest id that does not fit", run, err)
		}
		if len(solver.Leases()) != 0 || solver.Accumulated() != 0 {
			t.Fatal("rejected embed left lease state behind")
		}
		checkConservation(t, solver)
	}
}

// TestSaturationMasksRoutes pins the enforcement path through the oracle's
// cost view: saturating the cheap VM must push the next embed onto the
// spare, and the spare's exhaustion must leave the request unembeddable.
func TestSaturationMasksRoutes(t *testing.T) {
	net, s, v1, v2, _, d2, _ := buildSurvivable(t)
	solver := NewSolver(net, WithCapacity(100, 1)) // one forest per VM
	ctx := context.Background()
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d2}, ChainLength: 1}

	f1, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := f1.UsedVMs(); len(got) != 1 || got[0] != v1 {
		t.Fatalf("first embed used %v, want cheap VM %d", got, v1)
	}
	if !net.Graph().NodeMasked(v1) {
		t.Fatal("saturated VM not masked")
	}

	f2, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := f2.UsedVMs(); len(got) != 1 || got[0] != v2 {
		t.Fatalf("second embed used %v, want spare VM %d", got, v2)
	}

	// Both VMs full: the network is exhausted for this request.
	if _, err := solver.Embed(ctx, req); err == nil {
		t.Fatal("third embed succeeded on an exhausted network")
	}

	// A departure re-opens the cheap VM.
	id1, _ := f1.Lease()
	if err := solver.Leave(id1); err != nil {
		t.Fatal(err)
	}
	if net.Graph().NodeMasked(v1) {
		t.Fatal("VM still masked after its only tenant left")
	}
	f3, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatalf("embed after departure: %v", err)
	}
	if got := f3.UsedVMs(); len(got) != 1 || got[0] != v1 {
		t.Fatalf("post-departure embed used %v, want re-opened VM %d", got, v1)
	}
	checkConservation(t, solver)
}

func TestTTLExpiryAdvanceTime(t *testing.T) {
	net, s, d := buildLine(t)
	solver := NewSolver(net, WithCapacity(10, 5))
	ctx := context.Background()

	mk := func(ttl int64) *Forest {
		t.Helper()
		f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2, TTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fShort := mk(2)
	fLong := mk(5)
	fForever := mk(0) // no TTL: never expires on its own
	checkConservation(t, solver)

	expired, err := solver.AdvanceTime(1)
	if err != nil || len(expired) != 0 {
		t.Fatalf("AdvanceTime(1): %v, %v", expired, err)
	}
	expired, err = solver.AdvanceTime(2)
	if err != nil {
		t.Fatal(err)
	}
	idShort, _ := fShort.Lease()
	if idShort != 0 || len(expired) != 1 {
		t.Fatalf("short lease not expired at t=2: expired=%v", expired)
	}
	checkConservation(t, solver)

	// The clock is monotone: moving backwards expires nothing more.
	if expired, _ := solver.AdvanceTime(1); len(expired) != 0 {
		t.Fatal("time moved backwards")
	}
	if solver.Now() != 2 {
		t.Fatalf("Now = %d, want 2", solver.Now())
	}

	expired, _ = solver.AdvanceTime(100)
	if len(expired) != 1 {
		t.Fatalf("expired at t=100: %v, want just the long lease", expired)
	}
	if _, ok := fLong.Lease(); ok {
		t.Fatal("long lease still live at t=100")
	}
	if _, ok := fForever.Lease(); !ok {
		t.Fatal("TTL-less lease expired")
	}
	checkConservation(t, solver)
}

// TestTTLExpirySaturates pins the expiry of a TTL that would carry it
// past math.MaxInt64: it saturates rather than wrapping negative, so the
// lease survives the next clock advance.
func TestTTLExpirySaturates(t *testing.T) {
	net, s, d := buildLine(t)
	solver := NewSolver(net, WithCapacity(10, 5))
	if _, err := solver.AdvanceTime(5); err != nil {
		t.Fatal(err)
	}
	f, err := solver.Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2, TTL: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if expired, err := solver.AdvanceTime(6); err != nil || len(expired) != 0 {
		t.Fatalf("AdvanceTime(6) = %v, %v; want nothing expired", expired, err)
	}
	if _, ok := f.Lease(); !ok {
		t.Fatal("lease with TTL MaxInt64 ended at t=6")
	}
	if leases := solver.Leases(); len(leases) != 1 || leases[0].Expiry != math.MaxInt64 {
		t.Fatalf("Leases() = %+v, want one lease expiring at %d", leases, int64(math.MaxInt64))
	}
	checkConservation(t, solver)
}

func TestAdaptiveAdmission(t *testing.T) {
	net, s, d := buildLine(t)
	solver := NewSolver(net,
		WithCapacity(10, 10),
		WithAdaptiveAdmission(16, 0.01))
	ctx := context.Background()
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}

	// Empty network: every resource prices at 16^0 - 1 = 0, admitted.
	f1, err := solver.Embed(ctx, req)
	if err != nil {
		t.Fatalf("embed on empty network: %v", err)
	}
	// Utilization 0.1 prices each link at 16^0.1 - 1 ≈ 0.32 > budget.
	if _, err := solver.Embed(ctx, req); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("err = %v, want ErrAdmissionRejected at nonzero utilization", err)
	}
	// The departure empties the network: admitted again — the threshold
	// adapts to load where a constant would keep rejecting.
	id, _ := f1.Lease()
	if err := solver.Leave(id); err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Embed(ctx, req); err != nil {
		t.Fatalf("embed after departure: %v", err)
	}
	checkConservation(t, solver)
}

// TestDynamicOpsChargeTheLease: on the path s–v1–d–d2 at link capacity 1,
// a forest serving d charges s–v1 and v1–d. Join(d2) grows it over d–d2,
// so its lease must charge that link too and mask it, and Forest.Leave(d2)
// must hand the link back.
func TestDynamicOpsChargeTheLease(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v1 := b.AddVM("v1", 1)
	d := b.AddSwitch("d")
	d2 := b.AddSwitch("d2")
	b.Link(s, v1, 1)
	b.Link(v1, d, 1)
	dd2 := b.Link(d, d2, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(net, WithCapacity(1, 4))
	f, err := solver.Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, solver)

	if _, err := f.Join(d2); err != nil {
		t.Fatalf("Join(d2): %v", err)
	}
	if err := leaseError(solver, f); err != nil {
		t.Fatalf("after Join: %v", err)
	}
	if load := solver.LinkLoad(dd2); load != 1 || !net.Graph().EdgeMasked(dd2) {
		t.Fatalf("after Join: d–d2 load %v, masked %v; want 1, true", load, net.Graph().EdgeMasked(dd2))
	}
	checkConservation(t, solver)

	if _, err := f.Leave(d2); err != nil {
		t.Fatalf("Leave(d2): %v", err)
	}
	if err := leaseError(solver, f); err != nil {
		t.Fatalf("after Leave: %v", err)
	}
	if load := solver.LinkLoad(dd2); load != 0 || net.Graph().EdgeMasked(dd2) {
		t.Fatalf("after Leave: d–d2 load %v, masked %v; want 0, false", load, net.Graph().EdgeMasked(dd2))
	}
	checkConservation(t, solver)
}

// TestRepairResumesLease runs a real RepairAll on a capacitated session:
// the repaired forest keeps its lease, which charges the post-repair
// shape, and conservation must hold for the detoured footprint.
func TestRepairResumesLease(t *testing.T) {
	net, s, _, _, d1, d2, cheap := buildSurvivable(t)
	solver := NewSolver(net, WithCapacity(100, 10), WithRecovery())
	ctx := context.Background()
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1, d2}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	solver.FailLink(cheap[1])
	if _, err := solver.RepairAll(ctx); err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	if _, ok := f.Lease(); !ok {
		t.Fatal("lease lost across repair")
	}
	checkConservation(t, solver)

	id, _ := f.Lease()
	if err := solver.Leave(id); err != nil {
		t.Fatalf("Leave after repair: %v", err)
	}
	g := net.Graph()
	for e := 0; e < g.NumEdges(); e++ {
		if load := solver.LinkLoad(EdgeID(e)); load != 0 {
			t.Fatalf("link %d load = %v after departure, want 0", e, load)
		}
	}
	checkConservation(t, solver)
}

// TestRepairAllKeepsForeignMasks: a repair must not route over a link
// another forest saturated. The first forest serves d0 over a–d0 and d
// over b–d; the second saturates a–d, the only other way into d. Once b–d
// fails, d could come back only over the masked a–d, so RepairAll surfaces
// it as unrecoverable and a–d keeps the second forest's one unit of load.
func TestRepairAllKeepsForeignMasks(t *testing.T) {
	nb := NewNetworkBuilder()
	s := nb.AddSwitch("s")
	v1 := nb.AddVM("v1", 1)
	a := nb.AddSwitch("a")
	d0 := nb.AddSwitch("d0")
	b := nb.AddSwitch("b")
	d := nb.AddSwitch("d")
	s2 := nb.AddSwitch("s2")
	v2 := nb.AddVM("v2", 1)
	nb.Link(s, v1, 1)
	nb.Link(v1, a, 1)
	nb.Link(a, d0, 1)
	nb.Link(v1, b, 1)
	bd := nb.Link(b, d, 1)
	ad := nb.Link(a, d, 5)
	nb.Link(s2, v2, 1)
	nb.Link(v2, a, 1)
	net, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(net, WithRecovery(), WithCapacity(1, 4))
	ctx := context.Background()
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d0, d}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solver.Embed(ctx, Request{Sources: []NodeID{s2}, Destinations: []NodeID{d}, ChainLength: 1}); err != nil {
		t.Fatal(err)
	}
	if load := solver.LinkLoad(ad); load != 1 {
		t.Fatalf("a–d load = %v after the second embed, want 1", load)
	}
	solver.FailLink(bd)
	rep, err := solver.RepairAll(ctx)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("sweep error = %v, want ErrUnrecoverable", err)
	}
	lost := rep.Unrecoverable()
	if len(lost) != 1 || lost[0].Dest != d || !errors.Is(lost[0].Err, ErrUnrecoverable) {
		t.Fatalf("Unrecoverable() = %+v, want [%d]", lost, d)
	}
	if load := solver.LinkLoad(ad); load != 1 {
		t.Fatalf("a–d load = %v after repair, want 1 (capacity 1)", load)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("surviving forest invalid: %v", err)
	}
	checkConservation(t, solver)
}
