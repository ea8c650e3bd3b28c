package topology

import (
	"context"
	"math/rand"
	"testing"

	"sof/internal/core"
	"sof/internal/graph"
)

func TestSoftLayerCounts(t *testing.T) {
	net := SoftLayer(Config{NumVMs: 25, Seed: 1})
	if got := len(net.Access); got != 27 {
		t.Errorf("access nodes = %d, want 27", got)
	}
	if got := len(net.DataCenters); got != 17 {
		t.Errorf("data centers = %d, want 17", got)
	}
	if got := len(net.VMs); got != 25 {
		t.Errorf("VMs = %d, want 25", got)
	}
	// 49 backbone links + 25 VM attachments.
	if got := net.G.NumEdges(); got != 49+25 {
		t.Errorf("edges = %d, want 74", got)
	}
	if !net.G.Connected() {
		t.Error("SoftLayer not connected")
	}
	if err := net.G.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCogentCounts(t *testing.T) {
	net := Cogent(Config{NumVMs: 25, Seed: 2})
	if got := len(net.Access); got != 190 {
		t.Errorf("access nodes = %d, want 190", got)
	}
	if got := len(net.DataCenters); got != 40 {
		t.Errorf("data centers = %d, want 40", got)
	}
	if got := net.G.NumEdges(); got != 260+25 {
		t.Errorf("edges = %d, want 285", got)
	}
	if !net.G.Connected() {
		t.Error("Cogent not connected")
	}
	if err := net.G.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCogentStructureIsSeedIndependent(t *testing.T) {
	a := Cogent(Config{NumVMs: 5, Seed: 1})
	b := Cogent(Config{NumVMs: 5, Seed: 99})
	// Same backbone edges regardless of seed (only costs/VMs differ).
	for e := 0; e < 260; e++ {
		ea, eb := a.G.Edge(graph.EdgeID(e)), b.G.Edge(graph.EdgeID(e))
		if ea.U != eb.U || ea.V != eb.V {
			t.Fatalf("edge %d differs between seeds: %v vs %v", e, ea, eb)
		}
	}
}

func TestInetCounts(t *testing.T) {
	net, err := Inet(500, 1000, 200, Config{NumVMs: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(net.Access); got != 500 {
		t.Errorf("access = %d, want 500", got)
	}
	if got := net.G.NumEdges(); got != 1000+15 {
		t.Errorf("edges = %d, want 1015", got)
	}
	if got := len(net.DataCenters); got != 200 {
		t.Errorf("DCs = %d, want 200", got)
	}
	if !net.G.Connected() {
		t.Error("Inet not connected")
	}
	if err := net.G.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInetHeavyTailedDegrees(t *testing.T) {
	net, err := Inet(800, 1600, 100, Config{NumVMs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := 0
	for _, a := range net.Access {
		if d := net.G.Degree(a); d > maxDeg {
			maxDeg = d
		}
	}
	avg := 2.0 * 1600 / 800
	if float64(maxDeg) < 5*avg {
		t.Errorf("max degree %d not heavy-tailed (avg %.1f)", maxDeg, avg)
	}
}

func TestInetBadParams(t *testing.T) {
	if _, err := Inet(10, 5, 3, Config{}); err == nil {
		t.Error("links < nodes-1 accepted")
	}
	if _, err := Inet(10, 20, 50, Config{}); err == nil {
		t.Error("more DCs than nodes accepted")
	}
}

func TestTestbedCounts(t *testing.T) {
	net := Testbed(Config{})
	if got := len(net.Access); got != 14 {
		t.Errorf("nodes = %d, want 14", got)
	}
	if got := net.G.NumEdges(); got != 20+14 {
		t.Errorf("edges = %d, want 34", got)
	}
	if got := len(net.VMs); got != 14 {
		t.Errorf("VMs = %d, want 14", got)
	}
	if !net.G.Connected() {
		t.Error("testbed not connected")
	}
}

func TestSetupCostMultiplier(t *testing.T) {
	base := SoftLayer(Config{NumVMs: 10, Seed: 5})
	scaled := SoftLayer(Config{NumVMs: 10, Seed: 5, SetupCostMultiplier: 3})
	for i := range base.VMs {
		b := base.G.NodeCost(base.VMs[i])
		s := scaled.G.NodeCost(scaled.VMs[i])
		if b > 0 && (s/b < 2.99 || s/b > 3.01) {
			t.Fatalf("VM %d: multiplier not applied (%v vs %v)", i, b, s)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := SoftLayer(Config{NumVMs: 10, Seed: 9})
	b := SoftLayer(Config{NumVMs: 10, Seed: 9})
	for e := 0; e < a.G.NumEdges(); e++ {
		if a.G.EdgeCost(graph.EdgeID(e)) != b.G.EdgeCost(graph.EdgeID(e)) {
			t.Fatal("same seed produced different costs")
		}
	}
}

// TestEmbeddingOnSoftLayer runs SOFDA end-to-end on the real topology as an
// integration smoke test.
func TestEmbeddingOnSoftLayer(t *testing.T) {
	net := SoftLayer(Config{NumVMs: 25, Seed: 11})
	rng := rand.New(rand.NewSource(11))
	srcs := net.RandomNodes(rng, 4)
	dsts := net.RandomNodes(rng, 6)
	req := core.Request{Sources: srcs, Dests: dsts, ChainLen: 3}
	f, err := core.SOFDACtx(context.Background(), net.G, req, &core.Options{VMs: net.VMs})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(srcs, dsts); err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() <= 0 {
		t.Error("non-positive cost")
	}
}
