package core

import (
	"context"
	"testing"

	"sof/internal/graph"
)

// TestForestFootprint pins the footprint extraction capacitated sessions
// reserve by: every live clone's parent edge (with multiplicity) plus the
// used VMs, tracking prunes as they happen.
func TestForestFootprint(t *testing.T) {
	g, req := paperStyleNet()
	f, err := SOFDACtx(context.Background(), g, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := f.Footprint()
	if len(fp.VMs) != len(f.UsedVMs()) {
		t.Fatalf("footprint VMs = %d, UsedVMs = %d", len(fp.VMs), len(f.UsedVMs()))
	}
	// Each live non-root clone contributes exactly one edge.
	live := 0
	for id := 0; id < f.NumClones(); id++ {
		if f.CloneDeleted(CloneID(id)) {
			continue
		}
		if c := f.Clone(CloneID(id)); c.Parent != NoClone && c.ParentEdge != graph.NoEdge {
			live++
		}
	}
	if len(fp.Edges) != live {
		t.Fatalf("footprint edges = %d, live non-root clones = %d", len(fp.Edges), live)
	}
	// The paper-style net embeds two disjoint 3-edge trees: 6 edge uses.
	if len(fp.Edges) != 6 {
		t.Fatalf("footprint edges = %d, want 6 on the paper-style net", len(fp.Edges))
	}

	// Leave one destination: the pruned branch's edges drop out of the
	// footprint immediately.
	if _, err := f.Leave(req.Dests[1]); err != nil {
		t.Fatal(err)
	}
	fp2 := f.Footprint()
	if len(fp2.Edges) >= len(fp.Edges) {
		t.Fatalf("footprint after Leave has %d edges, want < %d", len(fp2.Edges), len(fp.Edges))
	}
}
