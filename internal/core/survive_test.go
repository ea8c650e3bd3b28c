package core

import (
	"context"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
)

// surviveNet is a handcrafted network with a cheap and an expensive route
// to two destinations, plus a lateral edge between them:
//
//	s --1-- v1 --2-- d1
//	         \--2-- d2      d1 --3-- d2
//	s --5-- v2 --5-- d1
//	         \--5-- d2
//
// v1, v2 are VMs (setup cost 1 each); a chain of length 1 embeds both
// destinations through v1.
func surviveNet(t *testing.T) (g *graph.Graph, s, v1, v2, d1, d2 graph.NodeID, ev1d1 graph.EdgeID) {
	t.Helper()
	g = graph.New(5, 7)
	s = g.AddSwitch("s")
	v1 = g.AddVM("v1", 1)
	v2 = g.AddVM("v2", 1)
	d1 = g.AddSwitch("d1")
	d2 = g.AddSwitch("d2")
	g.MustAddEdge(s, v1, 1)
	ev1d1 = g.MustAddEdge(v1, d1, 2)
	g.MustAddEdge(v1, d2, 2)
	g.MustAddEdge(s, v2, 5)
	g.MustAddEdge(v2, d1, 5)
	g.MustAddEdge(v2, d2, 5)
	g.MustAddEdge(d1, d2, 3)
	return
}

func surviveForest(t *testing.T) (*Forest, *chain.Oracle, Request, *surviveNodes) {
	t.Helper()
	g, s, v1, v2, d1, d2, ev1d1 := surviveNet(t)
	req := Request{Sources: []graph.NodeID{s}, Dests: []graph.NodeID{d1, d2}, ChainLen: 1}
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatalf("SOFDA: %v", err)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatalf("seed forest invalid: %v", err)
	}
	return f, chain.NewOracle(g, chain.Options{}), req,
		&surviveNodes{s: s, v1: v1, v2: v2, d1: d1, d2: d2, ev1d1: ev1d1}
}

type surviveNodes struct {
	s, v1, v2, d1, d2 graph.NodeID
	ev1d1             graph.EdgeID
}

func TestDamageDetectsSeveredDest(t *testing.T) {
	f, _, _, n := surviveForest(t)
	if dmg := f.Damage(); dmg.Broken() {
		t.Fatalf("undamaged forest reports damage: %+v", dmg)
	}
	f.Graph().FailEdge(n.ev1d1)
	dmg := f.Damage()
	if len(dmg.Orphans) != 1 || dmg.Orphans[0] != n.d1 {
		t.Fatalf("orphans = %v, want [%d]", dmg.Orphans, n.d1)
	}
	if dmg.LostVNFs != 0 {
		t.Fatalf("LostVNFs = %d, want 0 (v1 sits above the break)", dmg.LostVNFs)
	}
	f.Graph().RestoreEdge(n.ev1d1)
	if f.Damage().Broken() {
		t.Fatal("damage persists after restore")
	}
	// Failing the VM itself severs both destinations and loses its VNF.
	f.Graph().FailNode(n.v1)
	dmg = f.Damage()
	if len(dmg.Orphans) != 2 {
		t.Fatalf("orphans after VM failure = %v, want both dests", dmg.Orphans)
	}
	if dmg.LostVNFs != 1 {
		t.Fatalf("LostVNFs = %d, want 1", dmg.LostVNFs)
	}
}

func TestRepairReattachesViaJoin(t *testing.T) {
	f, oracle, req, n := surviveForest(t)
	f.Graph().FailEdge(n.ev1d1)
	rep, err := f.Repair(oracle, f.Graph().VMs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 1 || rep.Reattached != 1 || len(rep.Failed) != 0 {
		t.Fatalf("report = %+v, want 1 orphan reattached", rep)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatalf("repaired forest invalid: %v", err)
	}
	// The repaired route must avoid the failed edge: d1 now hangs off d2.
	c, _ := f.DestClone(n.d1)
	for _, id := range f.PathToRoot(c) {
		if f.clones[id].ParentEdge == n.ev1d1 {
			t.Fatal("repaired path still uses the failed edge")
		}
	}
	if rep.CostDelta <= 0 {
		t.Fatalf("CostDelta = %v, want positive (detour is dearer)", rep.CostDelta)
	}
}

func TestRepairFailedVMReembedsThroughSpare(t *testing.T) {
	f, oracle, req, n := surviveForest(t)
	f.Graph().FailNode(n.v1)
	rep, err := f.Repair(oracle, f.Graph().VMs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 2 || rep.Reattached != 2 || len(rep.Failed) != 0 {
		t.Fatalf("report = %+v, want both orphans reattached", rep)
	}
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatalf("repaired forest invalid: %v", err)
	}
	// v1 is dead: the chain must now run on v2.
	if f.VNFOf(n.v2) != 1 {
		t.Fatalf("VNF not migrated to spare VM v2 (owner: %v)", f.UsedVMs())
	}
}

func TestRepairFailedDestNodeIsSurfaced(t *testing.T) {
	f, oracle, req, n := surviveForest(t)
	f.Graph().FailNode(n.d1)
	rep, err := f.Repair(oracle, f.Graph().VMs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 1 || rep.Reattached != 0 || len(rep.Failed) != 1 {
		t.Fatalf("report = %+v, want 1 unrecoverable orphan", rep)
	}
	if rep.Failed[0].Dest != n.d1 || rep.Failed[0].Err == nil {
		t.Fatalf("failure record = %+v", rep.Failed[0])
	}
	// The healthy destination keeps its service.
	if err := f.Validate(req.Sources, []graph.NodeID{n.d2}); err != nil {
		t.Fatalf("healthy dest lost: %v", err)
	}
}

// TestRepairRandomNetworks drives Damage/Repair over random instances: for
// every seeded failure, each severed destination must end up re-attached
// (and the forest re-validated) or surfaced in Failed — never dropped.
func TestRepairRandomNetworks(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 24, ExtraEdges: 36, VMFraction: 0.45, MaxEdge: 8, MaxSetup: 5,
		}, seed)
		vms, sws := g.VMs(), g.Switches()
		if len(vms) < 6 || len(sws) < 6 {
			continue
		}
		req := Request{Sources: sws[:2], Dests: sws[2:5], ChainLen: 2}
		f, err := SOFDACtx(context.Background(), g, req, nil)
		if err != nil {
			continue
		}
		oracle := chain.NewOracle(g, chain.Options{})
		// Fail every destination's first path edge — maximal blast radius
		// short of killing the sources.
		for _, d := range req.Dests {
			c, _ := f.DestClone(d)
			if e := f.clones[c].ParentEdge; e != graph.NoEdge {
				g.FailEdge(e)
			}
		}
		before := f.Damage()
		rep, err := f.Repair(oracle, vms)
		if err != nil {
			t.Fatalf("seed %d: Repair: %v", seed, err)
		}
		if rep.Reattached+len(rep.Failed) != rep.Orphans || rep.Orphans != len(before.Orphans) {
			t.Fatalf("seed %d: orphan accounting broken: %+v vs %d severed",
				seed, rep, len(before.Orphans))
		}
		still := make([]graph.NodeID, 0, len(req.Dests))
		failed := make(map[graph.NodeID]bool)
		for _, rf := range rep.Failed {
			failed[rf.Dest] = true
		}
		for _, d := range req.Dests {
			if !failed[d] {
				still = append(still, d)
			}
		}
		if err := f.Validate(req.Sources, still); err != nil {
			t.Fatalf("seed %d: post-repair forest invalid: %v", seed, err)
		}
		g.RestoreAll()
	}
}

// TestMigrateRejectsFailedVM pins the satellite fix: migration must never
// choose a failed VM as the target even when it is the only spare.
func TestMigrateRejectsFailedVM(t *testing.T) {
	f, oracle, req, n := surviveForest(t)
	f.Graph().FailNode(n.v2) // the only spare VM
	if err := f.MigrateOverloadedVM(oracle, f.Graph().VMs(), n.v1); err == nil {
		t.Fatal("migration onto a failed VM accepted")
	}
	// The forest is untouched by the refused migration.
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		t.Fatalf("refused migration mutated the forest: %v", err)
	}
	f.Graph().RestoreNode(n.v2)
	if err := f.MigrateOverloadedVM(oracle, f.Graph().VMs(), n.v1); err != nil {
		t.Fatalf("migration after restore: %v", err)
	}
	if f.VNFOf(n.v2) != 1 {
		t.Fatal("VNF not on v2 after migration")
	}
}

// TestRerouteReportsPerCloneErrors pins the satellite fix: a reroute that
// cannot move some clone reports the cause but still counts the rest.
func TestRerouteReportsPerCloneErrors(t *testing.T) {
	f, oracle, _, n := surviveForest(t)
	// Sever d1 entirely (both lateral routes) so its reroute must fail.
	var ed2d1, ev2d1 graph.EdgeID = graph.NoEdge, graph.NoEdge
	for id := 0; id < f.Graph().NumEdges(); id++ {
		e := f.Graph().Edge(graph.EdgeID(id))
		if (e.U == n.d1 && e.V == n.d2) || (e.U == n.d2 && e.V == n.d1) {
			ed2d1 = graph.EdgeID(id)
		}
		if (e.U == n.v2 && e.V == n.d1) || (e.U == n.d1 && e.V == n.v2) {
			ev2d1 = graph.EdgeID(id)
		}
	}
	f.Graph().FailEdge(ed2d1)
	f.Graph().FailEdge(ev2d1)
	f.Graph().FailEdge(n.ev1d1)
	moved, err := f.RerouteCongestedEdge(oracle, n.ev1d1)
	if err == nil {
		t.Fatal("reroute across a severed cut reported no error")
	}
	if moved != 0 {
		t.Fatalf("moved = %d clones across a severed cut", moved)
	}
}
