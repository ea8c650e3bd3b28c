package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
	"sof/internal/steiner"
)

// fullScanLastVM is the reference bestLastVM is pinned to: Algorithm 1's
// per-VM loop with a KMB for every feasible chain, in result order,
// keeping the first strict minimum and, when none is feasible, reporting
// the last failure.
func fullScanLastVM(g *graph.Graph, oracle *chain.Oracle, results []chain.Result, dests []graph.NodeID) (*chain.ServiceChain, *steiner.Tree, float64, error) {
	var bestSC *chain.ServiceChain
	var bestTree *steiner.Tree
	bestCost := 0.0
	var lastErr error
	for _, r := range results {
		if r.Err != nil {
			lastErr = r.Err
			continue
		}
		tree, err := steiner.KMBWith(g, append([]graph.NodeID{r.Chain.LastVM}, dests...),
			&steiner.KMBOptions{Provider: oracle})
		if err != nil {
			lastErr = err
			continue
		}
		cost := r.Chain.TotalCost() + tree.Cost
		if bestSC == nil || cost < bestCost {
			bestSC, bestTree, bestCost = r.Chain, tree, cost
		}
	}
	if bestSC == nil {
		if lastErr == nil {
			lastErr = errors.New("core: no feasible last VM")
		}
		return nil, nil, 0, fmt.Errorf("core: SOFDA-SS found no feasible forest: %w", lastErr)
	}
	return bestSC, bestTree, bestCost, nil
}

// boundCheck tallies what the bounded scan was tested on.
type boundCheck struct {
	feasible, infeasible int
	ties                 int // feasible instances whose minimum cost two candidates reach
	skipped              int // instances where the bound saved oracle tree lookups
}

// check requires bestLastVM to pick what the full scan picks over the
// same chain results — the same last VM and chain walk, the same tree
// edges, and the same tree and total cost bits — or to fail with the same
// error text. It returns the full scan's error.
func (bc *boundCheck) check(t *testing.T, label string, g *graph.Graph, oracle *chain.Oracle, results []chain.Result, dests []graph.NodeID) error {
	t.Helper()
	lookups := func() uint64 { s := oracle.Stats(); return s.Hits + s.Misses }
	before := lookups()
	wantSC, wantTree, wantCost, wantErr := fullScanLastVM(g, oracle, results, dests)
	full := lookups() - before
	before = lookups()
	sc, tree, cost, err := bestLastVM(context.Background(), g, oracle, results, dests)
	if lookups()-before < full {
		bc.skipped++
	}
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, want %v", label, err, wantErr)
		}
		bc.infeasible++
		return wantErr
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if sc.LastVM != wantSC.LastVM || !reflect.DeepEqual(sc.Nodes, wantSC.Nodes) ||
		!reflect.DeepEqual(sc.Edges, wantSC.Edges) || !reflect.DeepEqual(sc.VMs, wantSC.VMs) {
		t.Fatalf("%s: chain to %d (walk %v), want to %d (walk %v)", label, sc.LastVM, sc.Nodes, wantSC.LastVM, wantSC.Nodes)
	}
	if !reflect.DeepEqual(tree.Edges, wantTree.Edges) ||
		math.Float64bits(tree.Cost) != math.Float64bits(wantTree.Cost) ||
		math.Float64bits(cost) != math.Float64bits(wantCost) {
		t.Fatalf("%s: tree %v cost %v (total %v), want %v cost %v (total %v)",
			label, tree.Edges, tree.Cost, cost, wantTree.Edges, wantTree.Cost, wantCost)
	}
	bc.feasible++
	at := 0
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		tr, err := steiner.KMBWith(g, append([]graph.NodeID{r.Chain.LastVM}, dests...),
			&steiner.KMBOptions{Provider: oracle})
		if err == nil && r.Chain.TotalCost()+tr.Cost == wantCost {
			at++
		}
	}
	if at > 1 {
		bc.ties++
	}
	return nil
}

// TestSOFDASSBoundMatchesFullScan pins the bounded per-VM Steiner phase of
// SOFDA-SS to the full scan on random integer-cost multigraphs with zero
// costs, parallel edges, and failed and masked elements (phaseNet), over
// chain lengths 1–3, destination lists with duplicates and with VMs, and
// rounds where a failed destination leaves no candidate feasible.
func TestSOFDASSBoundMatchesFullScan(t *testing.T) {
	ctx := context.Background()
	var bc boundCheck
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := phaseNet(rng, integerCosts)
		vms := g.VMs()
		oracle := chain.NewOracle(g, chain.Options{})
		for round := 0; round < 6; round++ {
			if round > 0 {
				perturb(g, rng, integerCosts)
			}
			chainLen := 1 + round%3
			source := graph.NodeID(rng.Intn(g.NumNodes()))
			var dests []graph.NodeID
			for k := 1 + rng.Intn(5); k > 0; k-- {
				dests = append(dests, graph.NodeID(rng.Intn(g.NumNodes())))
			}
			if rng.Intn(3) == 0 {
				dests = append(dests, dests[0])
			}
			if rng.Intn(3) == 0 {
				dests = append(dests, vms[rng.Intn(len(vms))])
			}
			if round == 5 {
				g.FailNode(dests[len(dests)-1])
			}
			label := fmt.Sprintf("seed %d round %d chainLen %d source %d dests %v", seed, round, chainLen, source, dests)
			results, err := oracle.Chains(ctx, vms, chain.Pairs([]graph.NodeID{source}, vms), chainLen, 1)
			if err != nil {
				t.Fatalf("%s: candidates: %v", label, err)
			}
			// SOFDASSCtx reports bestLastVM's error unchanged.
			if wantErr := bc.check(t, label, g, oracle, results, dests); wantErr != nil {
				_, err := SOFDASSCtx(ctx, g, source, dests, chainLen, &Options{Oracle: oracle, VMs: vms, Parallelism: 1})
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: SOFDASSCtx error %v, want %v", label, err, wantErr)
				}
			}
		}
	}
	t.Logf("%d feasible (%d with tied minima), %d infeasible, %d with skipped KMBs", bc.feasible, bc.ties, bc.infeasible, bc.skipped)
	if bc.feasible < 150 || bc.ties < 60 || bc.infeasible < 30 || bc.skipped < 120 {
		t.Fatalf("%d feasible, %d tied, %d infeasible, %d skipping: the check is near-vacuous",
			bc.feasible, bc.ties, bc.infeasible, bc.skipped)
	}
}

// TestSOFDASSBoundTieBreaks covers the two ways the bounded scan could
// lose the full scan's tie-break. In both instances two last VMs reach the
// same cost, the one listed first wins the full scan, and its bound is the
// larger, so the bounded scan solves it second.
//
//   - A destination that is the first VM: its tree is empty and its bound
//     equals its cost, so only a stop strictly above the best cost, and
//     the result index as the tie-break, keep it.
//   - Tenths on one destination's path: Dijkstra from the destination sums
//     0.1+0.2+0.3 to 0.6000000000000001, while the tree's cost, summed in
//     edge-id order (0.3+0.2+0.1), is 0.6. Only the slack keeps the bound
//     from rising one ulp above the cost.
func TestSOFDASSBoundTieBreaks(t *testing.T) {
	ctx := context.Background()

	// s –1– a –1– b; setups 1: chain to b 3 with an empty tree, chain to
	// a 2 with tree a–b 1.
	line := graph.New(3, 2)
	s := line.AddSwitch("s")
	a := line.AddVM("a", 1)
	b := line.AddVM("b", 1)
	line.MustAddEdge(s, a, 1)
	line.MustAddEdge(a, b, 1)

	// s joins u and w at 0.125, setups 0.125; u reaches d over tenths, w
	// over one 0.6 edge.
	tenths := graph.New(6, 6)
	s2 := tenths.AddSwitch("s")
	u := tenths.AddVM("u", 0.125)
	w := tenths.AddVM("w", 0.125)
	x1 := tenths.AddSwitch("x1")
	x2 := tenths.AddSwitch("x2")
	d := tenths.AddSwitch("d")
	tenths.MustAddEdge(x2, u, 0.3)
	tenths.MustAddEdge(x1, x2, 0.2)
	tenths.MustAddEdge(d, x1, 0.1)
	tenths.MustAddEdge(w, d, 0.6)
	tenths.MustAddEdge(s2, u, 0.125)
	tenths.MustAddEdge(s2, w, 0.125)

	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		source graph.NodeID
		vms    []graph.NodeID
		dests  []graph.NodeID
		want   graph.NodeID
	}{
		{"destination is the first VM", line, s, []graph.NodeID{b, a}, []graph.NodeID{b}, b},
		{"tenths", tenths, s2, []graph.NodeID{u, w}, []graph.NodeID{d}, u},
	} {
		oracle := chain.NewOracle(tc.g, chain.Options{})
		results, err := oracle.Chains(ctx, tc.vms, chain.Pairs([]graph.NodeID{tc.source}, tc.vms), 1, 1)
		if err != nil {
			t.Fatalf("%s: candidates: %v", tc.name, err)
		}
		if sc, _, _, err := fullScanLastVM(tc.g, oracle, results, tc.dests); err != nil || sc.LastVM != tc.want {
			t.Fatalf("%s: the full scan picks %+v (err %v), want last VM %d", tc.name, sc, err, tc.want)
		}
		var bc boundCheck
		bc.check(t, tc.name, tc.g, oracle, results, tc.dests)
		if bc.ties != 1 {
			t.Fatalf("%s: the two last VMs do not tie", tc.name)
		}
	}
}
