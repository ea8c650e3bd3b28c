package sofip

import (
	"context"
	"math"
	"testing"

	"sof/internal/core"
	"sof/internal/graph"
	"sof/internal/sofexact"
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

func TestIPLine(t *testing.T) {
	g, req := lineNet()
	res, err := Solve(g, req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-8) > 1e-6 {
		t.Fatalf("IP cost = %v, want 8", res.Cost)
	}
	if math.Abs(res.SetupCost-5) > 1e-6 || math.Abs(res.ConnCost-3) > 1e-6 {
		t.Fatalf("setup/conn = %v/%v, want 5/3", res.SetupCost, res.ConnCost)
	}
	if len(res.SigmaVMs) != 2 {
		t.Fatalf("sigma = %v, want 2 VMs", res.SigmaVMs)
	}
}

func TestIPRejectsOversized(t *testing.T) {
	g := graph.New(40, 1)
	for i := 0; i < 40; i++ {
		g.AddSwitch("")
	}
	req := core.Request{Sources: []graph.NodeID{0}, Dests: []graph.NodeID{1}, ChainLen: 1}
	if _, err := Solve(g, req, 0); err == nil {
		t.Fatal("oversized instance accepted")
	}
	g2, req2 := lineNet()
	req2.ChainLen = 0
	if _, err := Solve(g2, req2, 0); err == nil {
		t.Fatal("chainLen 0 accepted")
	}
}

// TestIPMatchesLayeredExact is the formulation cross-check: the paper's IP
// (via simplex + branch-and-bound) and the layered Dreyfus–Wagner solver
// must agree on small random instances.
func TestIPMatchesLayeredExact(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 30 && checked < 8; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 8, ExtraEdges: 6, VMFraction: 0.5, MaxEdge: 7, MaxSetup: 5,
		}, seed)
		vms := g.VMs()
		sws := g.Switches()
		if len(vms) < 2 || len(sws) < 3 {
			continue
		}
		req := core.Request{
			Sources:  []graph.NodeID{sws[0]},
			Dests:    []graph.NodeID{sws[len(sws)-1]},
			ChainLen: 1 + int(seed%2),
		}
		if req.ChainLen > len(vms) || req.Sources[0] == req.Dests[0] {
			continue
		}
		ipRes, err := Solve(g, req, 0)
		if err != nil {
			t.Fatalf("seed %d: IP: %v", seed, err)
		}
		exact, err := sofexact.SolveCtx(context.Background(), g, req, nil)
		if err != nil {
			t.Fatalf("seed %d: layered: %v", seed, err)
		}
		if math.Abs(ipRes.Cost-exact.TotalCost()) > 1e-5 {
			t.Fatalf("seed %d: IP %v != layered exact %v", seed, ipRes.Cost, exact.TotalCost())
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d instances checked", checked)
	}
}

func TestIPTwoDestinationsShareTree(t *testing.T) {
	// Y: s - v(1) - fork to d1 and d2; a single chain is shared.
	g := graph.New(6, 5)
	s := g.AddSwitch("s")
	v := g.AddVM("v", 1)
	fork := g.AddSwitch("fork")
	d1 := g.AddSwitch("d1")
	d2 := g.AddSwitch("d2")
	g.MustAddEdge(s, v, 1)
	g.MustAddEdge(v, fork, 1)
	g.MustAddEdge(fork, d1, 1)
	g.MustAddEdge(fork, d2, 1)
	req := core.Request{Sources: []graph.NodeID{s}, Dests: []graph.NodeID{d1, d2}, ChainLen: 1}
	res, err := Solve(g, req, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shared: edges s-v, v-fork, fork-d1, fork-d2 (4) + setup 1 = 5.
	if math.Abs(res.Cost-5) > 1e-6 {
		t.Fatalf("cost = %v, want 5", res.Cost)
	}
	exact, err := sofexact.SolveCtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.TotalCost()-5) > 1e-9 {
		t.Fatalf("layered = %v, want 5", exact.TotalCost())
	}
	// The LP relaxation is a lower bound.
	rel, err := Relaxation(g, req)
	if err != nil {
		t.Fatal(err)
	}
	if rel > res.Cost+1e-6 {
		t.Fatalf("relaxation %v exceeds IP optimum %v", rel, res.Cost)
	}
}
