package sof

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sof/internal/topology"
)

// lifecycleHarness drives a capacitated recovery session with a seeded
// random schedule of embeds, departures, clock advances, failures,
// restores, repair sweeps and dynamic operations — the full lifecycle
// interleaving space the conservation invariant must survive.
type lifecycleHarness struct {
	t        *testing.T
	rng      *rand.Rand
	net      *topology.Network
	solver   *Solver
	clock    int64
	lastAcc  float64
	accepted int
}

func newLifecycleHarness(t *testing.T, seed int64) *lifecycleHarness {
	t.Helper()
	net := topology.SoftLayer(topology.Config{NumVMs: 8, Seed: seed})
	solver := NewSolver(FromGraph(net.G),
		WithCapacity(6, 3),
		WithRecovery(),
		WithParallelism(1))
	return &lifecycleHarness{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		net:    net,
		solver: solver,
	}
}

// step applies one random lifecycle operation and returns its label.
func (h *lifecycleHarness) step(ctx context.Context) string {
	g := h.net.G
	switch op := h.rng.Intn(11); {
	case op < 4: // embed, possibly with TTL
		k := 1 + h.rng.Intn(2)
		nodes := h.net.RandomNodes(h.rng, k+1+h.rng.Intn(2))
		req := Request{
			Sources:      nodes[:1],
			Destinations: nodes[1:],
			ChainLength:  1 + h.rng.Intn(2),
			TTL:          int64(h.rng.Intn(8)), // 0 = stays until Leave
		}
		if _, err := h.solver.Embed(ctx, req); err == nil {
			h.accepted++
		}
		return "embed"
	case op < 6: // depart a random live lease
		if leases := h.solver.Leases(); len(leases) > 0 {
			id := leases[h.rng.Intn(len(leases))].ID
			if err := h.solver.Leave(id); err != nil {
				h.t.Fatalf("Leave(%d): %v", id, err)
			}
		}
		return "leave"
	case op < 7: // advance the virtual clock (expiring TTLs)
		h.clock += int64(1 + h.rng.Intn(3))
		if _, err := h.solver.AdvanceTime(h.clock); err != nil {
			h.t.Fatalf("AdvanceTime(%d): %v", h.clock, err)
		}
		return "advance"
	case op < 8: // fail a random element
		if h.rng.Intn(2) == 0 {
			h.solver.FailLink(EdgeID(h.rng.Intn(g.NumEdges())))
		} else {
			h.solver.FailVM(h.net.VMs[h.rng.Intn(len(h.net.VMs))])
		}
		return "fail"
	case op < 9: // restore everything failed so far
		h.solver.RestoreAllFailures()
		return "restore"
	case op < 10: // reshape a live forest
		return dynamicOp(h.solver, h.rng.Intn(6), h.rng.Intn(1<<20))
	default: // repair sweep
		if _, err := h.solver.RepairAll(ctx); err != nil && !errors.Is(err, ErrUnrecoverable) {
			h.t.Fatalf("RepairAll: %v", err)
		}
		return "repair"
	}
}

// dynamicOp applies dynamic operation kind%6 to a live forest of s, the
// forest and the operation's argument both drawn from arg, and returns the
// operation's name. Errors are outcomes: an operation that does not apply
// (a Join of a served node, say) leaves the forest as it was. A reroute
// first raises the link's cost, so the congested segments have somewhere
// cheaper to go.
func dynamicOp(s *Solver, kind, arg int) string {
	live := s.LiveForests()
	if len(live) == 0 {
		return "dynamic op on no forest"
	}
	f := live[arg%len(live)]
	arg /= len(live)
	g := s.Network().Graph()
	switch kind % 6 {
	case 0:
		_, _ = f.Join(NodeID(arg % g.NumNodes()))
		return "join"
	case 1:
		if dests := f.Destinations(); len(dests) > 0 {
			_, _ = f.Leave(dests[arg%len(dests)])
		}
		return "forest leave"
	case 2:
		_ = f.InsertVNF(1 + arg%(f.Request().ChainLength+1))
		return "insert VNF"
	case 3:
		if n := f.Request().ChainLength; n > 0 {
			_ = f.RemoveVNF(1 + arg%n)
		}
		return "remove VNF"
	case 4:
		if edges, _ := f.Footprint(); len(edges) > 0 {
			e := edges[arg%len(edges)]
			// Capped, the cost stays finite over any number of reroutes,
			// so the setter cannot refuse it.
			_ = s.Network().SetLinkCost(e, min(2*g.EdgeCost(e)+10, 1e6))
			_, _ = f.RerouteCongestedLink(e)
		}
		return "reroute"
	default:
		if vms := f.UsedVMs(); len(vms) > 0 {
			_ = f.MigrateVM(vms[arg%len(vms)])
		}
		return "migrate"
	}
}

// verify asserts the invariants that must hold after every step.
func (h *lifecycleHarness) verify(label string) {
	h.t.Helper()
	if err := conservationError(h.solver); err != nil {
		h.t.Fatalf("after %s: %v", label, err)
	}
	if acc := h.solver.Accumulated(); acc < h.lastAcc {
		h.t.Fatalf("after %s: Accumulated went backwards (%v -> %v)", label, h.lastAcc, acc)
	} else {
		h.lastAcc = acc
	}
}

// TestLoadConservationProperty is the lifecycle's anchor property: after
// ANY interleaving of accepted embeds, departures, TTL expiries, failures,
// repairs and dynamic operations, every tracker's load equals the sum of
// the live leases' demands, and every lease charges its forest's
// footprint. Seeded schedules keep failures reproducible; run it under
// -race together with TestConcurrentLifecycleRace for the concurrent
// interleavings.
func TestLoadConservationProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13}
	steps := 120
	if testing.Short() {
		seeds = seeds[:2]
		steps = 60
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			h := newLifecycleHarness(t, seed)
			ctx := context.Background()
			for i := 0; i < steps; i++ {
				label := h.step(ctx)
				h.verify(label)
			}
			if h.accepted == 0 {
				t.Fatal("schedule accepted no embeds; the property was vacuous")
			}
			// Drain: depart everything, expire everything — the books must
			// return to exactly zero.
			for _, l := range h.solver.Leases() {
				if err := h.solver.Leave(l.ID); err != nil {
					t.Fatalf("drain Leave(%d): %v", l.ID, err)
				}
			}
			if _, err := h.solver.AdvanceTime(h.clock + 1000); err != nil {
				t.Fatal(err)
			}
			h.verify("drain")
			g := h.net.G
			for e := 0; e < g.NumEdges(); e++ {
				if load := h.solver.LinkLoad(EdgeID(e)); load != 0 {
					t.Fatalf("link %d: residual load %v after full drain", e, load)
				}
			}
			for v := 0; v < g.NumNodes(); v++ {
				if load := h.solver.VMLoad(NodeID(v)); load != 0 {
					t.Fatalf("vm %d: residual load %v after full drain", v, load)
				}
			}
		})
	}
}

// TestLedgerMatchesForests pins the session's one ledger: after every
// lifecycle step, dynamic operations included, the forests RepairAll
// sweeps are exactly the forests of the live leases, in lease-id order,
// and every lease charges its forest's footprint. Release stops the sweep
// but keeps the lease; Leave ends both.
func TestLedgerMatchesForests(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		h := newLifecycleHarness(t, seed)
		for i := 0; i < 150; i++ {
			label := h.step(ctx)
			leases := h.solver.Leases()
			live := h.solver.LiveForests()
			if len(live) != len(leases) {
				t.Fatalf("seed %d, step %d (%s): %d live forests, %d leases", seed, i, label, len(live), len(leases))
			}
			for j, f := range live {
				l := leases[j]
				if id, ok := f.Lease(); !ok || id != l.ID {
					t.Fatalf("seed %d, step %d (%s): live forest %d holds lease %d, %v; want %d", seed, i, label, j, id, ok, l.ID)
				}
				if err := leaseError(h.solver, f); err != nil {
					t.Fatalf("seed %d, step %d (%s): %v", seed, i, label, err)
				}
			}
		}
	}

	net, s, _, _, d1, _, _ := buildSurvivable(t)
	solver := NewSolver(net, WithCapacity(100, 10), WithRecovery())
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, _ := f.Lease()
	edges, _ := f.Footprint()
	f.Release()
	if live := solver.LiveForests(); len(live) != 0 {
		t.Fatalf("LiveForests() = %v after Release, want none", live)
	}
	if got, ok := f.Lease(); !ok || got != id || len(solver.Leases()) != 1 || solver.LinkLoad(edges[0]) != 1 {
		t.Fatalf("Release ended lease %d: Lease() = %d, %v; link %d load %v", id, got, ok, edges[0], solver.LinkLoad(edges[0]))
	}
	if err := solver.Leave(id); err != nil {
		t.Fatalf("Leave(%d) after Release: %v", id, err)
	}
	f.Release()
	if _, ok := f.Lease(); ok || len(solver.Leases()) != 0 || len(solver.LiveForests()) != 0 {
		t.Fatal("Release after Leave revived the forest")
	}
	for _, e := range edges {
		if load := solver.LinkLoad(e); load != 0 {
			t.Fatalf("link %d load = %v after Leave, want 0", e, load)
		}
	}
	checkConservation(t, solver)

	// Without capacity the entry holds no lease, so Release drops it.
	tracked := NewSolver(net, WithRecovery())
	f, err = tracked.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	if n := len(tracked.entries); n != 0 {
		t.Fatalf("released forest left %d ledger entries behind", n)
	}
}

// TestConservationCheckerDetectsDrift is the mutation check on the
// property: corrupting the link tracker the way a silently-clamping Remove
// would (load left behind that no live lease explains) must trip the
// checker. If this test fails, TestLoadConservationProperty is decorative.
func TestConservationCheckerDetectsDrift(t *testing.T) {
	net, s, d := buildLine(t)
	solver := NewSolver(net, WithCapacity(10, 5))
	if _, err := solver.Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d}, ChainLength: 2}); err != nil {
		t.Fatal(err)
	}
	if err := conservationError(solver); err != nil {
		t.Fatalf("clean session reported drift: %v", err)
	}
	// Simulate a Remove that under-released: phantom load on link 0.
	solver.capacity.links.Add(0, 0.5)
	if err := conservationError(solver); err == nil {
		t.Fatal("checker missed injected tracker drift")
	}
	solver.capacity.links.SetLoad(0, solver.capacity.links.Load(0)-0.5)
	if err := conservationError(solver); err != nil {
		t.Fatalf("drift repair not detected as clean: %v", err)
	}
}

// TestConcurrentLifecycleRace interleaves embeds, departures, clock
// advances and dynamic operations on the swept forests from concurrent
// goroutines with a reader of every forest and a failure/repair sweeper
// (one sweeper — RepairAll's documented contract is one sweep at a time;
// embeds, departures and dynamic operations may race it freely, and wait
// for the forest it is repairing). Run under -race; after quiescence the
// conservation invariant must hold, every lease charging its forest's
// footprint, and a full drain must zero the books.
func TestConcurrentLifecycleRace(t *testing.T) {
	net := topology.SoftLayer(topology.Config{NumVMs: 8, Seed: 99})
	solver := NewSolver(FromGraph(net.G), WithCapacity(8, 4), WithRecovery())
	ctx := context.Background()

	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// This worker's forests and their destinations at embed time;
			// the sweeper repairs the same forests.
			var mine []*Forest
			var dests [][]NodeID
			for i := 0; i < perWorker; i++ {
				switch rng.Intn(6) {
				case 0, 1:
					nodes := graphSample(rng, net, 3)
					if f, err := solver.Embed(ctx, Request{
						Sources:      nodes[:1],
						Destinations: nodes[1:],
						ChainLength:  1,
						TTL:          int64(rng.Intn(5)),
					}); err == nil {
						mine, dests = append(mine, f), append(dests, nodes[1:])
					}
				case 2:
					if leases := solver.Leases(); len(leases) > 0 {
						_ = solver.Leave(leases[rng.Intn(len(leases))].ID)
					}
				case 3:
					_, _ = solver.AdvanceTime(solver.Now() + 1)
				default:
					if len(mine) > 0 {
						j := rng.Intn(len(mine))
						reshapeBlind(rng, net, mine[j], dests[j])
					}
				}
			}
		}(int64(w + 1))
	}
	// A reader of every worker's forests, through their read methods and
	// without the session's lock, until the workers and the sweeper are
	// done reshaping them.
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, f := range solver.LiveForests() {
				_, _ = f.TotalCost(), f.Trees()
				_, _ = f.Footprint()
				for _, d := range f.Destinations() {
					_, _ = f.Route(d)
				}
				_, _, _ = f.Validate(), f.Damage(), f.Request()
			}
		}
	}()
	// The single sweeper: fail, repair, restore, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < perWorker; i++ {
			solver.FailLink(EdgeID(rng.Intn(net.G.NumEdges())))
			_, _ = solver.RepairAll(ctx)
			solver.RestoreAllFailures()
		}
	}()
	wg.Wait()
	close(stop)
	<-read

	checkConservation(t, solver)
	for _, l := range solver.Leases() {
		if err := solver.Leave(l.ID); err != nil {
			t.Fatalf("drain Leave(%d): %v", l.ID, err)
		}
	}
	for e := 0; e < net.G.NumEdges(); e++ {
		if load := solver.LinkLoad(EdgeID(e)); load != 0 {
			t.Fatalf("link %d: residual load %v after drain", e, load)
		}
	}
}

// TestRepairAllRacesDynamicOps: a sweeper and a goroutine that joins and
// leaves a destination of the same forest run side by side. With v1–d2
// failed, every sweep reads the forest's damage from its published shape,
// and every Join grafts d2 around the failed link, so the forest is never
// damaged. Run under -race, which reports a damage read of a shape a
// reshape is still changing; afterwards the books must balance.
func TestRepairAllRacesDynamicOps(t *testing.T) {
	net, s, _, _, d1, d2, cheap := buildSurvivable(t)
	solver := NewSolver(net, WithCapacity(100, 10), WithRecovery())
	ctx := context.Background()
	f, err := solver.Embed(ctx, Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	solver.FailLink(cheap[2])
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := f.Join(d2); err != nil {
				t.Errorf("Join(d2): %v", err)
				return
			}
			if _, err := f.Leave(d2); err != nil {
				t.Errorf("Leave(d2): %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if rep, err := solver.RepairAll(ctx); err != nil || rep.ForestsTouched != 0 {
			t.Fatalf("RepairAll = %+v, %v; want nothing damaged", rep, err)
		}
	}
	wg.Wait()
	checkConservation(t, solver)
}

// TestForestReadsBesideReshapes: one goroutine joins and leaves a
// destination of a leased forest while another reads the forest through
// its read methods, without the session's lock. A reshape changes a copy
// and publishes it whole, so under -race no read overlaps a write, and
// every read sees the forest with or without d2, never between the two.
func TestForestReadsBesideReshapes(t *testing.T) {
	net, s, _, _, d1, d2, cheap := buildSurvivable(t)
	solver := NewSolver(net, WithCapacity(100, 10), WithRecovery())
	f, err := solver.Embed(context.Background(), Request{Sources: []NodeID{s}, Destinations: []NodeID{d1}, ChainLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := f.Join(d2); err != nil {
				t.Errorf("Join(d2): %v", err)
				return
			}
			if _, err := f.Leave(d2); err != nil {
				t.Errorf("Leave(d2): %v", err)
				return
			}
		}
	}()
	// Each call reads one shape; two calls may read two.
	read := func() error {
		if cost := f.TotalCost(); cost != 4 && cost != 6 {
			return fmt.Errorf("cost %v; want 4 for s–v1–d1 or 6 with v1–d2", cost)
		}
		if edges, _ := f.Footprint(); !slices.Equal(edges, cheap[:2]) && !slices.Equal(edges, cheap[:]) {
			return fmt.Errorf("footprint %v; want %v or %v", edges, cheap[:2], cheap)
		}
		if _, ok := f.Route(d1); !ok || f.Validate() != nil || f.Damage().Broken() {
			return errors.New("d1 unserved or forest invalid")
		}
		_, _, _ = f.Destinations(), f.UsedVMs(), f.Request()
		return nil
	}
	for {
		select {
		case <-done:
			checkConservation(t, solver)
			return
		default:
		}
		if err := read(); err != nil {
			t.Error(err)
			<-done
			return
		}
	}
}

// reshapeBlind applies a random dynamic operation to f with an argument
// drawn from the network and the destinations f was embedded for, so the
// draws do not depend on what the sweeper did to f. Draws that do not
// apply change nothing.
func reshapeBlind(rng *rand.Rand, net *topology.Network, f *Forest, dests []NodeID) {
	g := net.G
	switch rng.Intn(6) {
	case 0:
		_, _ = f.Join(graphSample(rng, net, 1)[0])
	case 1:
		_, _ = f.Leave(dests[rng.Intn(len(dests))])
	case 2:
		_ = f.InsertVNF(1 + rng.Intn(2))
	case 3:
		_ = f.RemoveVNF(1 + rng.Intn(2))
	case 4:
		_, _ = f.RerouteCongestedLink(EdgeID(rng.Intn(g.NumEdges())))
	default:
		_ = f.MigrateVM(net.VMs[rng.Intn(len(net.VMs))])
	}
}

// graphSample draws distinct access nodes via the topology helper.
func graphSample(rng *rand.Rand, net *topology.Network, n int) []NodeID {
	return net.RandomNodes(rng, n)
}
