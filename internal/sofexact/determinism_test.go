package sofexact

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sof/internal/core"
	"sof/internal/graph"
)

// forestSignature renders a forest's full clone structure as a string, so
// two solves can be compared for structural identity — equal cost alone
// would not notice a tie broken toward a different, equally cheap tree.
func forestSignature(f *core.Forest) string {
	var b strings.Builder
	for id := 0; id < f.NumClones(); id++ {
		if f.CloneDeleted(core.CloneID(id)) {
			continue
		}
		c := f.Clone(core.CloneID(id))
		fmt.Fprintf(&b, "%d:n%d,v%d,p%d,e%d;", id, c.Node, c.VNF, c.Parent, c.ParentEdge)
	}
	return b.String()
}

// TestSolveDeterministicRepeatRuns pins the branch-and-bound search to a
// single trajectory: on fixed-seed instances, repeated solves must branch
// on the same VMs in the same order and return bit-identical costs. This
// is the regression test for the map-iteration fixes in buildLayered (VM
// enable arcs now come from a sorted slice) and the conflict-VM selection
// (sorted keys, ties to the smallest id) — reverting either makes the
// branch trace differ between runs with high probability.
func TestSolveDeterministicRepeatRuns(t *testing.T) {
	type branch struct {
		vm   graph.NodeID
		arcs int
	}
	const runs = 6
	totalBranches := 0

	type instance struct {
		g   *graph.Graph
		req core.Request
	}
	var instances []instance

	// A crafted instance whose relaxation double-enables the cheap VM on
	// all three branches at once: the conflict-VM pick then faces a
	// three-way tie (each VM holds two enable arcs), which only a sorted,
	// smallest-id tie-break resolves the same way every run.
	{
		g := graph.New(12, 14)
		var srcs, dsts []graph.NodeID
		var prevDest graph.NodeID = graph.None
		for i := 0; i < 3; i++ {
			s := g.AddSwitch(fmt.Sprintf("s%d", i))
			v := g.AddVM(fmt.Sprintf("v%d", i), 1)
			w := g.AddVM(fmt.Sprintf("w%d", i), 40)
			d := g.AddSwitch(fmt.Sprintf("d%d", i))
			g.MustAddEdge(s, v, 1)
			g.MustAddEdge(v, w, 1)
			g.MustAddEdge(w, d, 1)
			if prevDest != graph.None {
				g.MustAddEdge(prevDest, s, 30)
			}
			prevDest = d
			srcs = append(srcs, s)
			dsts = append(dsts, d)
		}
		instances = append(instances, instance{g: g, req: core.Request{Sources: srcs, Dests: dsts, ChainLen: 2}})
	}

	for seed := int64(0); seed < 8; seed++ {
		g := graph.RandomConnected(graph.RandomConfig{
			Nodes: 11, ExtraEdges: 13, VMFraction: 0.5, MaxEdge: 8, MaxSetup: 6,
		}, seed)
		sws := g.Switches()
		if len(sws) < 3 || len(g.VMs()) < 2 {
			continue
		}
		instances = append(instances, instance{g: g, req: core.Request{
			Sources:  []graph.NodeID{sws[0]},
			Dests:    []graph.NodeID{sws[len(sws)-1], sws[len(sws)-2]},
			ChainLen: 2,
		}})
	}

	for seed, inst := range instances {
		g, req := inst.g, inst.req

		var firstTrace []branch
		var firstCost float64
		var firstSig string
		for run := 0; run < runs; run++ {
			var trace []branch
			branchTrace = func(vm graph.NodeID, arcs int) {
				trace = append(trace, branch{vm: vm, arcs: arcs})
			}
			// NoPrime exercises the raw search: priming shrinks the branch
			// tree and could mask order instability behind early pruning.
			f, err := SolveCtx(context.Background(), g, req, &Options{NoPrime: true})
			branchTrace = nil
			if err != nil {
				t.Fatalf("instance %d run %d: %v", seed, run, err)
			}
			cost := f.TotalCost()
			sig := forestSignature(f)
			if run == 0 {
				firstTrace = trace
				firstCost = cost
				firstSig = sig
				totalBranches += len(trace)
				continue
			}
			if cost != firstCost {
				t.Fatalf("seed %d run %d: cost %v differs from run 0's %v (must be bit-identical)", seed, run, cost, firstCost)
			}
			if sig != firstSig {
				t.Fatalf("seed %d run %d: forest structure differs from run 0:\n run %d: %s\n run 0: %s", seed, run, run, sig, firstSig)
			}
			if len(trace) != len(firstTrace) {
				t.Fatalf("seed %d run %d: %d branch decisions, run 0 made %d", seed, run, len(trace), len(firstTrace))
			}
			for i := range trace {
				if trace[i] != firstTrace[i] {
					t.Fatalf("seed %d run %d: branch %d = %+v, run 0 branched %+v", seed, run, i, trace[i], firstTrace[i])
				}
			}
		}
	}
	// The pins above are vacuous if no instance ever branched.
	if totalBranches == 0 {
		t.Fatal("no instance triggered branch-and-bound; strengthen the fixture instances")
	}
}
