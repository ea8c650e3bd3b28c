package core

import (
	"context"
	"math/rand"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
)

// dynNet builds a richly connected network for dynamic-operation tests.
func dynNet(t *testing.T, seed int64) (*graph.Graph, []graph.NodeID, []graph.NodeID) {
	t.Helper()
	g := graph.RandomConnected(graph.RandomConfig{
		Nodes: 24, ExtraEdges: 36, VMFraction: 0.45, MaxEdge: 8, MaxSetup: 5,
	}, seed)
	return g, g.VMs(), g.Switches()
}

func buildDynForest(t *testing.T, seed int64) (*Forest, *chain.Oracle, []graph.NodeID, Request) {
	t.Helper()
	g, vms, sws := dynNet(t, seed)
	if len(vms) < 6 || len(sws) < 6 {
		t.Skip("unsuitable random instance")
	}
	rng := rand.New(rand.NewSource(seed))
	req := Request{
		Sources:  graph.SampleDistinct(rng, sws, 2),
		Dests:    graph.SampleDistinct(rng, sws[2:], 3),
		ChainLen: 2,
	}
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatalf("SOFDA: %v", err)
	}
	return f, chain.NewOracle(g, chain.Options{}), vms, req
}

func TestLeaveReducesCostAndKeepsOthers(t *testing.T) {
	f, _, _, req := buildDynForest(t, 3)
	leaving := req.Dests[0]
	delta, err := f.Leave(leaving)
	if err != nil {
		t.Fatal(err)
	}
	if delta > 1e-9 {
		t.Errorf("leave increased cost by %v", delta)
	}
	if err := f.Validate(req.Sources, req.Dests[1:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Leave(leaving); err == nil {
		t.Error("double leave accepted")
	}
}

func TestJoinServesNewDestination(t *testing.T) {
	f, oracle, vms, req := buildDynForest(t, 5)
	// Find a switch that is not yet a destination.
	var newDest graph.NodeID = graph.None
	for _, s := range f.Graph().Switches() {
		inReq := false
		for _, d := range req.Dests {
			if d == s {
				inReq = true
			}
		}
		for _, src := range req.Sources {
			if src == s {
				inReq = true
			}
		}
		if !inReq {
			newDest = s
			break
		}
	}
	if newDest == graph.None {
		t.Skip("no spare switch")
	}
	delta, err := f.Join(oracle, vms, newDest)
	if err != nil {
		t.Fatal(err)
	}
	if delta < 0 {
		t.Errorf("join decreased cost by %v", -delta)
	}
	if err := f.Validate(req.Sources, append(req.Dests, newDest)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Join(oracle, vms, newDest); err == nil {
		t.Error("double join accepted")
	}
}

func TestJoinThenLeaveRoundTrip(t *testing.T) {
	f, oracle, vms, req := buildDynForest(t, 7)
	var newDest graph.NodeID = graph.None
	for _, s := range f.Graph().Switches() {
		if _, served := f.DestClone(s); !served && s != req.Sources[0] && s != req.Sources[1] {
			newDest = s
			break
		}
	}
	if newDest == graph.None {
		t.Skip("no spare switch")
	}
	before := f.TotalCost()
	if _, err := f.Join(oracle, vms, newDest); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Leave(newDest); err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() > before+1e-6 {
		t.Errorf("join+leave left residual cost: %v -> %v", before, f.TotalCost())
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveVNFShortensChain(t *testing.T) {
	f, _, _, req := buildDynForest(t, 9)
	if err := f.RemoveVNF(1); err != nil {
		t.Fatal(err)
	}
	if f.ChainLen() != 1 {
		t.Fatalf("chain length = %d, want 1", f.ChainLen())
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveVNF(5); err == nil {
		t.Error("out-of-range removal accepted")
	}
}

func TestInsertVNFExtendsChain(t *testing.T) {
	f, oracle, vms, req := buildDynForest(t, 11)
	before := f.ChainLen()
	if err := f.InsertVNF(oracle, vms, 1); err != nil {
		t.Fatalf("insert at head: %v", err)
	}
	if f.ChainLen() != before+1 {
		t.Fatalf("chain length = %d, want %d", f.ChainLen(), before+1)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	// Append at the tail too.
	if err := f.InsertVNF(oracle, vms, f.ChainLen()+1); err != nil {
		t.Fatalf("insert at tail: %v", err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	if err := f.InsertVNF(oracle, vms, 99); err == nil {
		t.Error("out-of-range insert accepted")
	}
}

func TestRerouteCongestedEdge(t *testing.T) {
	f, oracle, _, req := buildDynForest(t, 13)
	// Find an edge used by the forest.
	var used graph.EdgeID = graph.NoEdge
	for id := range f.clones {
		c := f.clones[id]
		if !c.deleted && c.Parent != NoClone && c.ParentEdge != graph.NoEdge {
			used = c.ParentEdge
			break
		}
	}
	if used == graph.NoEdge {
		t.Skip("forest uses no edges")
	}
	// Congest it: huge cost, then reroute.
	f.Graph().SetEdgeCost(used, 1e6)
	oracle.InvalidateCache()
	n, err := f.RerouteCongestedEdge(oracle, used)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing rerouted")
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	// The congested edge is no longer used by any clone.
	for id := range f.clones {
		c := f.clones[id]
		if !c.deleted && c.ParentEdge == used {
			t.Fatal("congested edge still in use")
		}
	}
}

func TestMigrateOverloadedVM(t *testing.T) {
	f, oracle, vms, req := buildDynForest(t, 15)
	usedVMs := f.UsedVMs()
	if len(usedVMs) == 0 {
		t.Skip("no VMs in forest")
	}
	victim := usedVMs[0]
	if err := f.MigrateOverloadedVM(oracle, vms, victim); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatal(err)
	}
	if f.VNFOf(victim) != 0 {
		t.Error("victim VM still enabled")
	}
	if err := f.MigrateOverloadedVM(oracle, vms, victim); err == nil {
		t.Error("migrating an unused VM accepted")
	}
}

func TestDynamicSequence(t *testing.T) {
	// A stress sequence mixing all operations; the forest must stay valid
	// throughout.
	f, oracle, vms, req := buildDynForest(t, 21)
	dests := append([]graph.NodeID(nil), req.Dests...)
	for _, s := range f.Graph().Switches() {
		if _, ok := f.DestClone(s); ok {
			continue
		}
		skip := false
		for _, src := range req.Sources {
			if src == s {
				skip = true
			}
		}
		if skip {
			continue
		}
		if _, err := f.Join(oracle, vms, s); err == nil {
			dests = append(dests, s)
		}
		if len(dests) >= 6 {
			break
		}
	}
	if err := f.Validate(req.Sources, dests); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Leave(dests[0]); err != nil {
		t.Fatal(err)
	}
	dests = dests[1:]
	if err := f.InsertVNF(oracle, vms, 2); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := f.Validate(req.Sources, dests); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveVNF(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(req.Sources, dests); err != nil {
		t.Fatal(err)
	}
}
