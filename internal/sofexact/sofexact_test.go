package sofexact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sof/internal/baseline"
	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
	"sof/internal/kstroll"
	"sof/internal/steiner"
)

func lineNet() (*graph.Graph, core.Request) {
	g := graph.New(4, 3)
	s := g.AddSwitch("s")
	v1 := g.AddVM("v1", 2)
	v2 := g.AddVM("v2", 3)
	d := g.AddSwitch("d")
	g.MustAddEdge(s, v1, 1)
	g.MustAddEdge(v1, v2, 1)
	g.MustAddEdge(v2, d, 1)
	return g, core.Request{Sources: []graph.NodeID{s}, Dests: []graph.NodeID{d}, ChainLen: 2}
}

func TestExactLine(t *testing.T) {
	g, req := lineNet()
	f, err := SolveCtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.TotalCost()-8) > 1e-9 {
		t.Fatalf("cost = %v, want 8", f.TotalCost())
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
}

func TestExactPrefersForest(t *testing.T) {
	// Mirror of core's paperStyleNet: the optimum splits into two trees.
	g := graph.New(10, 10)
	s0 := g.AddSwitch("s0")
	a := g.AddVM("a", 2)
	b := g.AddVM("b", 2)
	d0 := g.AddSwitch("d0")
	s1 := g.AddSwitch("s1")
	c := g.AddVM("c", 2)
	e := g.AddVM("e", 2)
	d1 := g.AddSwitch("d1")
	g.MustAddEdge(s0, a, 1)
	g.MustAddEdge(a, b, 1)
	g.MustAddEdge(b, d0, 1)
	g.MustAddEdge(s1, c, 1)
	g.MustAddEdge(c, e, 1)
	g.MustAddEdge(e, d1, 1)
	g.MustAddEdge(b, c, 20)
	req := core.Request{Sources: []graph.NodeID{s0, s1}, Dests: []graph.NodeID{d0, d1}, ChainLen: 2}
	f, err := SolveCtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.TotalCost()-14) > 1e-9 {
		t.Fatalf("cost = %v, want 14", f.TotalCost())
	}
	if f.NumTrees() != 2 {
		t.Fatalf("trees = %d, want 2", f.NumTrees())
	}
}

func TestExactEnforcesOneVNFPerVM(t *testing.T) {
	// Single VM on the cheap path: the relaxation would run both VNFs on
	// it; the constraint forces the expensive second VM.
	g := graph.New(5, 5)
	s := g.AddSwitch("s")
	v := g.AddVM("v", 1)
	w := g.AddVM("w", 50)
	d := g.AddSwitch("d")
	g.MustAddEdge(s, v, 1)
	g.MustAddEdge(v, d, 1)
	g.MustAddEdge(v, w, 1)
	req := core.Request{Sources: []graph.NodeID{s}, Dests: []graph.NodeID{d}, ChainLen: 2}
	f, err := SolveCtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	// Forced: s-v(f1)-w(f2)-v-d: edges 1+1+1+1 = 4, setup 51 → 55.
	if math.Abs(f.TotalCost()-55) > 1e-9 {
		t.Fatalf("cost = %v, want 55", f.TotalCost())
	}
	used := f.UsedVMs()
	if len(used) != 2 {
		t.Fatalf("used VMs = %v, want both", used)
	}
}

func TestExactZeroChain(t *testing.T) {
	g, req := lineNet()
	req.ChainLen = 0
	f, err := SolveCtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.TotalCost()-3) > 1e-9 {
		t.Fatalf("cost = %v, want 3 (plain shortest path)", f.TotalCost())
	}
}

func TestExactInfeasible(t *testing.T) {
	g := graph.New(3, 1)
	s := g.AddSwitch("s")
	d := g.AddSwitch("d")
	v := g.AddVM("v", 1)
	g.MustAddEdge(s, v, 1) // d disconnected
	req := core.Request{Sources: []graph.NodeID{s}, Dests: []graph.NodeID{d}, ChainLen: 1}
	if _, err := SolveCtx(context.Background(), g, req, nil); err == nil {
		t.Fatal("disconnected instance accepted")
	}
}

func TestExactTooManyTerminals(t *testing.T) {
	g, req := lineNet()
	req.Dests = make([]graph.NodeID, MaxTerminals+1)
	if _, err := SolveCtx(context.Background(), g, req, nil); err == nil {
		t.Fatal("terminal limit not enforced")
	}
}

// TestExactMatchesChainOracleOnSingleDest cross-validates the layered DP
// against an independent oracle: for a single destination the optimum is
// min over last VMs u of [exact chain s→u] + [shortest path u→d], minimized
// over sources.
func TestExactMatchesChainOracleOnSingleDest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for seed := int64(0); seed < 40 && checked < 20; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 12, ExtraEdges: 14, VMFraction: 0.5, MaxEdge: 8, MaxSetup: 6,
		}, seed)
		vms := g.VMs()
		sws := g.Switches()
		if len(vms) < 3 || len(sws) < 3 {
			continue
		}
		chainLen := 1 + rng.Intn(2)
		s := sws[0]
		d := sws[len(sws)-1]
		if s == d {
			continue
		}
		req := core.Request{Sources: []graph.NodeID{s}, Dests: []graph.NodeID{d}, ChainLen: chainLen}
		f, err := SolveCtx(context.Background(), g, req, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		oracle := chain.NewOracle(g, chain.Options{Solver: &kstroll.ExactSolver{}})
		want := math.Inf(1)
		for _, u := range vms {
			sc, err := oracle.Chain(vms, s, u, chainLen)
			if err != nil {
				continue
			}
			_, _, dist, err := oracle.Path(u, d)
			if err != nil {
				continue
			}
			if c := sc.TotalCost() + dist; c < want {
				want = c
			}
		}
		if math.Abs(f.TotalCost()-want) > 1e-6 {
			t.Fatalf("seed %d: exact %v, oracle %v", seed, f.TotalCost(), want)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// TestSOFDAWithinBoundOfExact verifies the paper's guarantees
// empirically on random instances: SOFDA's cost is never below the
// optimum and stays within 3·ρST of it, and SOFDA-SS, on the instance's
// request cut to its first source, stays within 2+ρST of that request's
// optimum. The baselines have no bound, but every forest ENEMP, EST or
// ST returns is valid and costs at least the optimum.
func TestSOFDAWithinBoundOfExact(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	worst, solved := map[string]float64{}, map[string]int{}
	// within requires f to be a valid forest for req costing between opt
	// and bound·opt, and records its ratio to opt under name.
	within := func(seed int64, name string, f *core.Forest, req core.Request, opt, bound float64) {
		t.Helper()
		if err := f.Validate(req.Sources, req.Dests); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, name, err)
		}
		if f.TotalCost() < opt-1e-6 {
			t.Fatalf("seed %d: %s %v beat the optimum %v", seed, name, f.TotalCost(), opt)
		}
		ratio := f.TotalCost() / math.Max(opt, 1e-9)
		worst[name] = math.Max(worst[name], ratio)
		solved[name]++
		if ratio > bound+1e-9 {
			t.Fatalf("seed %d: %s ratio %.3f exceeds %v", seed, name, ratio, bound)
		}
	}
	checked := 0
	for seed := int64(0); seed < 60 && checked < 30; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 14, ExtraEdges: 18, VMFraction: 0.45, MaxEdge: 9, MaxSetup: 6,
		}, seed)
		vms := g.VMs()
		sws := g.Switches()
		if len(vms) < 4 || len(sws) < 4 {
			continue
		}
		chainLen := 1 + rng.Intn(2)
		srcs := graph.SampleDistinct(rng, sws, 2)
		dsts := graph.SampleDistinct(rng, sws, 2)
		if srcs[0] == dsts[0] || srcs[0] == dsts[1] || srcs[1] == dsts[0] || srcs[1] == dsts[1] {
			continue
		}
		req := core.Request{Sources: srcs, Dests: dsts, ChainLen: chainLen}
		opt, err := SolveCtx(ctx, g, req, nil)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		heur, err := core.SOFDACtx(ctx, g, req, nil)
		if err != nil {
			t.Fatalf("seed %d: SOFDA: %v", seed, err)
		}
		within(seed, "SOFDA", heur, req, opt.TotalCost(), 3*steiner.Rho)

		single := core.Request{Sources: srcs[:1], Dests: dsts, ChainLen: chainLen}
		singleOpt, err := SolveCtx(ctx, g, single, nil)
		if err != nil {
			t.Fatalf("seed %d: exact, single source: %v", seed, err)
		}
		ss, err := core.SOFDASSCtx(ctx, g, srcs[0], dsts, chainLen, nil)
		if err != nil {
			t.Fatalf("seed %d: SOFDA-SS: %v", seed, err)
		}
		within(seed, "SOFDA-SS", ss, single, singleOpt.TotalCost(), 2+steiner.Rho)

		for _, kind := range []baseline.Kind{baseline.KindENEMP, baseline.KindEST, baseline.KindST} {
			if f, err := baseline.SolveCtx(ctx, g, req, nil, kind); err == nil {
				within(seed, kind.String(), f, req, opt.TotalCost(), math.Inf(1))
			}
		}
		checked++
	}
	for _, name := range []string{"SOFDA", "SOFDA-SS", "eNEMP", "eST", "ST"} {
		t.Logf("%s: worst ratio to OPT %.4f over %d of %d instances", name, worst[name], solved[name], checked)
	}
	if checked < 15 {
		t.Fatalf("only %d instances checked", checked)
	}
}

// TestSolveCtxCancelled pins the cancellation contract of SolveCtx: ctx is
// observed at branch-and-bound node expansion, so an already-cancelled
// context aborts the search before any node is expanded — even when a
// primed incumbent would otherwise be a valid answer.
func TestSolveCtxCancelled(t *testing.T) {
	g, req := lineNet()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, noPrime := range []bool{false, true} {
		if _, err := SolveCtx(ctx, g, req, &Options{NoPrime: noPrime}); !errors.Is(err, context.Canceled) {
			t.Errorf("NoPrime=%v: err = %v, want context.Canceled", noPrime, err)
		}
	}
	// A live context still solves to optimality through the same path.
	f, err := SolveCtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.TotalCost()-8) > 1e-9 {
		t.Fatalf("cost = %v, want 8", f.TotalCost())
	}
}
