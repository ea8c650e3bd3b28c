package sof

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sof/internal/topology"
)

// buildSurvivable builds the two-route diamond used by the recovery tests:
// a cheap VM route and an expensive spare, plus a lateral edge between the
// destinations.
func buildSurvivable(t *testing.T) (net *Network, s, v1, v2, d1, d2 NodeID, cheap [3]EdgeID) {
	t.Helper()
	b := NewNetworkBuilder()
	s = b.AddSwitch("s")
	v1 = b.AddVM("v1", 1)
	v2 = b.AddVM("v2", 1)
	d1 = b.AddSwitch("d1")
	d2 = b.AddSwitch("d2")
	cheap[0] = b.Link(s, v1, 1)
	cheap[1] = b.Link(v1, d1, 2)
	cheap[2] = b.Link(v1, d2, 2)
	b.Link(s, v2, 5)
	b.Link(v2, d1, 5)
	b.Link(v2, d2, 5)
	b.Link(d1, d2, 3)
	var err error
	net, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestSolverRecoveryFastPath(t *testing.T) {
	net, s, _, _, d1, d2, cheap := buildSurvivable(t)
	solver := NewSolver(net, WithRecovery())
	ctx := context.Background()
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1, d2}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !solver.FailLink(cheap[1]) {
		t.Fatal("FailLink reported no change")
	}
	if dmg := f.Damage(); len(dmg.Orphans) != 1 || dmg.Orphans[0] != d1 {
		t.Fatalf("Damage() = %+v, want orphan [%d]", dmg, d1)
	}
	rep, err := solver.RepairAll(ctx)
	if err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	if rep.ForestsTouched != 1 || rep.Reattached != 1 || rep.Reembeds != 0 {
		t.Fatalf("report = %+v, want one fast-path reattach", rep)
	}
	if rep.CostDelta <= 0 {
		t.Fatalf("CostDelta = %v, want positive (detour is dearer)", rep.CostDelta)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("repaired forest invalid: %v", err)
	}
	// Idempotent: a second sweep finds nothing to do.
	rep, err = solver.RepairAll(ctx)
	if err != nil || rep.ForestsTouched != 0 {
		t.Fatalf("second sweep: report %+v, err %v", rep, err)
	}
	// Failing a failed link again is a no-op; restore round-trips.
	if solver.FailLink(cheap[1]) {
		t.Fatal("re-failing a failed link reported a change")
	}
	if !solver.RestoreLink(cheap[1]) {
		t.Fatal("RestoreLink reported no change")
	}
}

func TestSolverRecoveryBackupPlans(t *testing.T) {
	net, s, _, _, d1, d2, cheap := buildSurvivable(t)
	solver := NewSolver(net, WithRecovery())
	ctx := context.Background()
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1, d2}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	planned, err := f.PlanBackups() // all destinations critical
	if err != nil || planned != 2 {
		t.Fatalf("PlanBackups: planned %d, err %v", planned, err)
	}
	solver.FailLink(cheap[1])
	rep, err := solver.RepairAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BackupHits != 1 || rep.Reattached != 1 {
		t.Fatalf("report = %+v, want one backup hit", rep)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSolverFailVMAndReembed(t *testing.T) {
	net, s, v1, v2, d1, d2, _ := buildSurvivable(t)
	solver := NewSolver(net, WithRecovery(), WithRepairBudget(1e-9))
	ctx := context.Background()
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1, d2}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if solver.FailVM(s) {
		t.Fatal("FailVM accepted a switch")
	}
	if !solver.FailVM(v1) {
		t.Fatal("FailVM reported no change")
	}
	// The graft budget is unpayable, so the sweep must take the re-embed
	// tier — and succeed through the spare VM.
	rep, err := solver.RepairAll(ctx)
	if err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	if rep.Reembeds != 1 || len(rep.Unrecoverable()) != 0 {
		t.Fatalf("report = %+v, want one re-embed", rep)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("re-embedded forest invalid: %v", err)
	}
	used := f.UsedVMs()
	if len(used) != 1 || used[0] != v2 {
		t.Fatalf("UsedVMs = %v, want [%d] (v1 is dead)", used, v2)
	}
	if !solver.RestoreVM(v1) {
		t.Fatal("RestoreVM reported no change")
	}
}

// TestEmbedAfterLinkFailureIsolatesVM: a link failure that cuts one VM
// off the network leaves every other VM usable, so new embeds keep
// succeeding on the VMs the sources can still reach, with either
// algorithm.
func TestEmbedAfterLinkFailureIsolatesVM(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	hub := b.AddSwitch("hub")
	v1 := b.AddVM("v1", 1)
	v2 := b.AddVM("v2", 2)
	v3 := b.AddVM("v3", 3)
	d1 := b.AddSwitch("d1")
	d2 := b.AddSwitch("d2")
	b.Link(s, hub, 1)
	cut := b.Link(hub, v1, 1)
	b.Link(hub, v2, 1)
	b.Link(hub, v3, 1)
	b.Link(hub, d1, 2)
	b.Link(hub, d2, 2)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Sources: []NodeID{s}, Destinations: []NodeID{d1, d2}, ChainLength: 2}
	for _, algo := range []Algorithm{AlgorithmSOFDA, AlgorithmSOFDASS} {
		solver := NewSolver(net, WithAlgorithm(algo))
		if !solver.FailLink(cut) {
			t.Fatal("FailLink reported no change")
		}
		f, err := solver.Embed(context.Background(), req)
		if err != nil {
			t.Fatalf("%v: embed with v1 cut off: %v", algo, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for _, v := range f.UsedVMs() {
			if v == v1 {
				t.Fatalf("%v: the forest uses the cut-off VM v1", algo)
			}
		}
		solver.RestoreLink(cut)
	}
}

// TestInsertVNFSkipsCutOffVM: a link failure cuts off a spare VM the
// forest does not use. InsertVNF must still splice the new VNF onto the
// VM it can reach, not fail because one candidate is unreachable.
func TestInsertVNFSkipsCutOffVM(t *testing.T) {
	b := NewNetworkBuilder()
	s := b.AddSwitch("s")
	v := b.AddVM("v", 1)
	d := b.AddSwitch("d")
	u := b.AddVM("spare", 1)
	x := b.AddVM("cut-off", 1)
	b.Link(s, v, 1)
	b.Link(v, d, 1)
	b.Link(d, u, 1)
	cut := b.Link(s, x, 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(net)
	f, err := solver.Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.UsedVMs(); !slices.Equal(got, []NodeID{v}) {
		t.Fatalf("embed uses VMs %v, want [%d]", got, v)
	}
	if !solver.FailLink(cut) {
		t.Fatal("FailLink reported no change")
	}
	if err := f.InsertVNF(2); err != nil {
		t.Fatalf("InsertVNF with one spare VM cut off: %v", err)
	}
	if got := f.UsedVMs(); !slices.Contains(got, u) || slices.Contains(got, x) {
		t.Fatalf("forest uses VMs %v, want the spare %d and not the cut-off %d", got, u, x)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestForestChainLengthFollowsVNFOps: InsertVNF and RemoveVNF change the
// chain a forest serves, so Request reports the live length, and a repair
// that falls through to the re-embed tier rebuilds the forest with every
// VNF it has now — not the length it was first embedded with.
func TestForestChainLengthFollowsVNFOps(t *testing.T) {
	net, s, _, _, d1, _, _ := buildSurvivable(t)
	solver := NewSolver(net, WithRecovery(), WithRepairBudget(1e-9))
	ctx := context.Background()
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertVNF(2); err != nil {
		t.Fatalf("InsertVNF: %v", err)
	}
	if got := f.Request().ChainLength; got != 2 {
		t.Fatalf("Request().ChainLength = %d after InsertVNF, want 2", got)
	}
	// Sever d1's uplink. The graft budget is unpayable, so the sweep must
	// re-embed.
	c, _ := f.Internal().DestClone(d1)
	if !solver.FailLink(f.Internal().Clone(c).ParentEdge) {
		t.Fatal("FailLink reported no change")
	}
	rep, err := solver.RepairAll(ctx)
	if err != nil {
		t.Fatalf("RepairAll: %v", err)
	}
	if rep.Reembeds != 1 {
		t.Fatalf("report = %+v, want one re-embed", rep)
	}
	if got := f.Internal().ChainLen(); got != 2 {
		t.Fatalf("re-embedded forest serves %d VNFs, want 2 (the inserted one was dropped)", got)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("re-embedded forest invalid: %v", err)
	}
	if err := f.RemoveVNF(1); err != nil {
		t.Fatalf("RemoveVNF: %v", err)
	}
	if got := f.Request().ChainLength; got != 1 {
		t.Fatalf("Request().ChainLength = %d after RemoveVNF, want 1", got)
	}
}

func TestSolverRecoveryUnrecoverable(t *testing.T) {
	net, s, _, _, d1, d2, _ := buildSurvivable(t)
	solver := NewSolver(net, WithRecovery())
	ctx := context.Background()
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1, d2}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Sever d1 completely: every incident link fails.
	g := net.Graph()
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(EdgeID(id))
		if e.U == d1 || e.V == d1 {
			solver.FailLink(EdgeID(id))
		}
	}
	rep, err := solver.RepairAll(ctx)
	if err == nil {
		t.Fatal("sweep over an unservable destination returned no error")
	}
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("sweep error = %v, want ErrUnrecoverable", err)
	}
	lost := rep.Unrecoverable()
	if len(lost) != 1 || lost[0].Dest != d1 || !errors.Is(lost[0].Err, ErrUnrecoverable) {
		t.Fatalf("Unrecoverable() = %+v, want [%d]", lost, d1)
	}
	// The healthy destination keeps its service.
	if err := f.Validate(); err != nil {
		t.Fatalf("surviving forest invalid: %v", err)
	}
	got := f.Destinations()
	if len(got) != 1 || got[0] != d2 {
		t.Fatalf("Destinations() = %v, want [%d]", got, d2)
	}
	// Restore everything: the destination is recoverable again.
	links, _ := solver.RestoreAllFailures()
	if links == 0 {
		t.Fatal("RestoreAllFailures restored nothing")
	}
	if _, err := f.Join(d1); err != nil {
		t.Fatalf("re-join after restore: %v", err)
	}
}

func TestLiveForestsAndRelease(t *testing.T) {
	net, s, _, _, d1, d2, _ := buildSurvivable(t)
	ctx := context.Background()
	req1 := Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 1}
	req2 := Request{Sources: []NodeID{s}, Destinations: []NodeID{d2}, ChainLength: 1}

	// Without WithRecovery nothing is tracked (and Release is a no-op).
	plain := NewSolver(net)
	pf, err := plain.Embed(ctx, req1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plain.LiveForests()); n != 0 {
		t.Fatalf("untracked session holds %d forests", n)
	}
	pf.Release()

	solver := NewSolver(net, WithRecovery())
	f1, err := solver.Embed(ctx, req1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := solver.Embed(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	live := solver.LiveForests()
	if len(live) != 2 || live[0] != f1 || live[1] != f2 {
		t.Fatalf("LiveForests = %v, want [f1 f2] in embedding order", live)
	}
	f1.Release()
	if live = solver.LiveForests(); len(live) != 1 || live[0] != f2 {
		t.Fatalf("after release: LiveForests = %v, want [f2]", live)
	}
	f1.Release() // double release is a no-op
}

// TestRepairVsArrivalInterleaving runs failure injection + recovery sweeps
// concurrently with a stream of arrivals on one session. Under -race this
// pins the copy-on-write failure snapshots and the registry locking; the
// invariant checked is that every sweep leaves each tracked forest either
// fully valid or with its losses surfaced as ErrUnrecoverable.
func TestRepairVsArrivalInterleaving(t *testing.T) {
	topo := topology.SoftLayer(topology.Config{NumVMs: 20, Seed: 17})
	net := FromGraph(topo.G)
	solver := NewSolver(net, WithRecovery(), WithVMs(topo.VMs...), WithParallelism(2))
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // arrivals
		defer wg.Done()
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 30; i++ {
			req := Request{
				Sources:      topo.RandomNodes(rng, 2),
				Destinations: topo.RandomNodes(rng, 3),
				ChainLength:  2,
			}
			if f, err := solver.Embed(ctx, req); err == nil && i%3 == 0 {
				f.Release() // churn the registry from this side too
			}
		}
	}()

	rng := rand.New(rand.NewSource(31))
	numEdges := topo.G.NumEdges()
	for round := 0; round < 15; round++ {
		e := EdgeID(rng.Intn(numEdges))
		solver.FailLink(e)
		rep, err := solver.RepairAll(ctx)
		if err != nil && !errors.Is(err, ErrUnrecoverable) {
			t.Errorf("round %d: sweep error: %v", round, err)
		}
		for _, fr := range rep.Forests {
			if verr := fr.Forest.Validate(); verr != nil {
				t.Errorf("round %d: repaired forest invalid: %v", round, verr)
			}
		}
		if round%4 == 3 {
			solver.RestoreLink(e)
		}
	}
	wg.Wait()

	// Final quiesce: with arrivals done, one more sweep settles everything
	// that can be served; survivors must validate.
	solver.RepairAll(ctx)
	for _, f := range solver.LiveForests() {
		if !f.Damage().Broken() {
			if err := f.Validate(); err != nil {
				t.Errorf("final state invalid: %v", err)
			}
		}
	}
}
