package sof

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sof/internal/graph"
	"sof/internal/topology"
)

// refSession drives one capacitated recovery session through a random
// schedule and solves every embed again on a cold snapshot of the graph
// state the embed saw: a Clone of the network and a fresh solver, so no
// oracle tree, repaired tree, solved chain or delta layout carries over.
// The cold path is the reference model. next(k) draws a value in [0, k).
type refSession struct {
	t      *testing.T
	next   func(k int) int
	net    *topology.Network
	solver *Solver
	clock  int64
	// compared counts embeds checked against the cold solve, and
	// zeroCompared those of them that ran while some live link cost 0.
	compared, zeroCompared int
}

func newRefSession(t *testing.T, next func(k int) int) *refSession {
	t.Helper()
	net, err := topology.Inet(120, 240, 12, topology.Config{NumVMs: 10, Seed: int64(next(4))})
	if err != nil {
		t.Fatal(err)
	}
	solver := NewSolver(FromGraph(net.G),
		WithVMs(net.VMs...),
		WithCapacity(4, 3),
		WithRecovery(),
		WithParallelism(1))
	return &refSession{t: t, next: next, net: net, solver: solver}
}

// step applies one random operation.
func (r *refSession) step(ctx context.Context) {
	g := r.net.G
	s := r.solver
	switch r.next(13) {
	case 0, 1, 2, 3:
		r.embed(ctx)
	case 4:
		if leases := s.Leases(); len(leases) > 0 {
			if err := s.Leave(leases[r.next(len(leases))].ID); err != nil {
				r.t.Fatalf("Leave: %v", err)
			}
		}
	case 5:
		r.clock += int64(1 + r.next(3))
		if _, err := s.AdvanceTime(r.clock); err != nil {
			r.t.Fatalf("AdvanceTime: %v", err)
		}
	case 6:
		s.FailLink(EdgeID(r.next(g.NumEdges())))
		r.repairAll(ctx)
	case 7:
		if failed := g.Failures().FailedEdges(); len(failed) > 0 {
			s.RestoreLink(failed[r.next(len(failed))])
			r.repairAll(ctx)
		}
	case 8:
		s.Reprice()
	case 9:
		e := EdgeID(r.next(g.NumEdges()))
		if err := s.Network().SetLinkCost(e, []float64{0, 1, 2, 5, 10, 20}[r.next(6)]); err != nil {
			r.t.Fatalf("SetLinkCost: %v", err)
		}
	case 10, 11:
		v := r.net.VMs[r.next(len(r.net.VMs))]
		if err := s.Network().SetVMCost(v, float64(1+r.next(6))); err != nil {
			r.t.Fatalf("SetVMCost: %v", err)
		}
	default:
		dynamicOp(s, r.next(6), r.next(256))
		if err := conservationError(s); err != nil {
			r.t.Fatalf("after a dynamic operation: %v", err)
		}
	}
}

func (r *refSession) repairAll(ctx context.Context) {
	if _, err := r.solver.RepairAll(ctx); err != nil && !errors.Is(err, ErrUnrecoverable) {
		r.t.Fatalf("RepairAll: %v", err)
	}
}

// embed runs one SOFDA or SOFDA-SS request warm, then cold on a snapshot
// taken before it, and compares the two.
func (r *refSession) embed(ctx context.Context) {
	algo, nSrc := AlgorithmSOFDA, 1+r.next(3)
	if r.next(2) == 0 {
		algo, nSrc = AlgorithmSOFDASS, 1
	}
	pool := r.net.Access
	want := nSrc + 1 + r.next(4)
	nodes := make([]NodeID, 0, want)
	for try := 0; try < 2*want && len(nodes) < want; try++ {
		if v := pool[r.next(len(pool))]; !slices.Contains(nodes, v) {
			nodes = append(nodes, v)
		}
	}
	if len(nodes) <= nSrc {
		return // an exhausted fuzz input draws one node over and over
	}
	req := Request{
		Sources:      nodes[:nSrc],
		Destinations: nodes[nSrc:],
		ChainLength:  1 + r.next(2),
		TTL:          int64(r.next(8)),
	}
	snapshot := FromGraph(r.net.G.Clone())
	zero := zeroCostLink(r.net.G)
	warm, werr := r.solver.EmbedAlgorithm(ctx, req, algo)
	if errors.Is(werr, ErrCapacityExceeded) || errors.Is(werr, ErrAdmissionRejected) {
		return // the algorithm succeeded; admission refused the footprint
	}
	cold, cerr := NewSolver(snapshot, WithVMs(r.net.VMs...), WithParallelism(1)).EmbedAlgorithm(ctx, req, algo)
	r.compared++
	if zero {
		r.zeroCompared++
	}
	switch {
	case werr != nil || cerr != nil:
		if werr == nil || cerr == nil || werr.Error() != cerr.Error() {
			r.t.Fatalf("%s %+v: warm error %v, cold error %v", algo, req, werr, cerr)
		}
	default:
		sameForest(r.t, string(algo), warm, cold)
	}
}

// zeroCostLink reports whether some link that is not blocked costs 0.
// Such a link leaves the graph no bucket width, so its trees come from
// the heap, and a stale tree is never repaired.
func zeroCostLink(g *graph.Graph) bool {
	fs := g.Blocked()
	for id := range g.NumEdges() {
		e := g.Edge(graph.EdgeID(id))
		if e.Cost == 0 && !fs.EdgeFailed(graph.EdgeID(id)) && !fs.NodeFailed(e.U) && !fs.NodeFailed(e.V) {
			return true
		}
	}
	return false
}

// sameForest fails the test unless the two forests cross the same edges
// the same number of times, run every VNF on the same VM, and cost the
// same to the bit.
func sameForest(t *testing.T, label string, warm, cold *Forest) {
	t.Helper()
	fw, fc := warm.shape().Footprint(), cold.shape().Footprint()
	slices.Sort(fw.Edges)
	slices.Sort(fc.Edges)
	if !slices.Equal(fw.Edges, fc.Edges) {
		t.Fatalf("%s: warm forest edges %v, cold %v", label, fw.Edges, fc.Edges)
	}
	if !slices.Equal(fw.VMs, fc.VMs) {
		t.Fatalf("%s: warm forest VMs %v, cold %v", label, fw.VMs, fc.VMs)
	}
	for _, v := range fw.VMs {
		if w, c := warm.shape().VNFOf(v), cold.shape().VNFOf(v); w != c {
			t.Fatalf("%s: VM %d runs VNF %d warm, %d cold", label, v, w, c)
		}
	}
	if w, c := warm.TotalCost(), cold.TotalCost(); math.Float64bits(w) != math.Float64bits(c) {
		t.Fatalf("%s: warm cost %v, cold %v", label, w, c)
	}
}

// TestWarmSessionMatchesColdReference drives seeded schedules of SOFDA
// and SOFDA-SS embeds, departures, TTL expiry, link failures with repair
// sweeps, repricing and cost setters through one warm session, and checks
// every embed against the cold reference. The schedules must compare
// embeds and repair trees, so the session's tree reuse is on trial. Link
// costs move through 0, so the schedules must also compare embeds made
// while a live link cost 0: epochs without a bucket width, whose trees
// come from the heap and whose stale trees are rebuilt, not repaired,
// alternate with epochs that have one.
func TestWarmSessionMatchesColdReference(t *testing.T) {
	seeds, steps := 10, 120
	if testing.Short() {
		seeds = 3
	}
	var compared, zeroCompared int
	var st CacheStats
	for seed := int64(0); seed < int64(seeds); seed++ {
		r := newRefSession(t, rand.New(rand.NewSource(seed)).Intn)
		ctx := context.Background()
		for i := 0; i < steps; i++ {
			r.step(ctx)
		}
		compared += r.compared
		zeroCompared += r.zeroCompared
		cs := r.solver.CacheStats()
		st.Misses += cs.Misses
		st.Repaired += cs.Repaired
		st.Carried += cs.Carried
	}
	t.Logf("%d embeds compared, %d under a zero-cost link; trees: %d full runs, %d repaired, %d carried",
		compared, zeroCompared, st.Misses, st.Repaired, st.Carried)
	if compared < 10*seeds || st.Repaired == 0 || zeroCompared == 0 {
		t.Fatalf("schedules compared %d embeds, %d under a zero-cost link, and repaired %d trees; the property was vacuous",
			compared, zeroCompared, st.Repaired)
	}
}

// FuzzWarmSessionMatchesColdReference runs the same schedules from the
// fuzzer's bytes: each draw reads one byte, and an exhausted input ends
// the schedule. An input costs milliseconds, so fuzz it with a small
// -fuzzminimizetime (10x, say): the default spends up to a minute
// minimizing each new input.
func FuzzWarmSessionMatchesColdReference(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 192)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(k int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % k
		}
		r := newRefSession(t, next)
		ctx := context.Background()
		for len(data) > 0 {
			r.step(ctx)
		}
	})
}
