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
	"sof/internal/topology"
)

// cloneAux is the reference Ĝ: a Graph.Clone of the network with ŝ, the
// duplicates, the structural edges and the candidate edges added in the
// order newAuxSkeleton and the builder use. It returns the clone and ŝ.
func cloneAux(g *graph.Graph, req Request, vms []graph.NodeID, cands []*chain.ServiceChain) (*graph.Graph, graph.NodeID) {
	c := g.Clone()
	sHat := c.AddSwitch("ŝ")
	srcDup := make(map[graph.NodeID]graph.NodeID)
	var uniq []graph.NodeID
	for _, s := range req.Sources {
		if _, ok := srcDup[s]; ok {
			continue
		}
		srcDup[s] = c.AddSwitch("")
		uniq = append(uniq, s)
		c.MustAddEdge(sHat, srcDup[s], 0)
	}
	if req.ChainLen == 0 {
		for _, s := range uniq {
			c.MustAddEdge(srcDup[s], s, 0)
		}
		return c, sHat
	}
	vmDup := make(map[graph.NodeID]graph.NodeID)
	for _, u := range vms {
		if _, ok := vmDup[u]; ok {
			continue
		}
		vmDup[u] = c.AddSwitch("")
		c.MustAddEdge(vmDup[u], u, 0)
	}
	for _, sc := range cands {
		c.MustAddEdge(srcDup[sc.Source], vmDup[sc.LastVM], sc.TotalCost())
	}
	return c, sHat
}

// admitted returns aux's candidate chains in edge-id order, which is the
// order they were added in. It fails t unless each chain's edge joins its
// source's duplicate and its last VM's at the chain's cost.
func admitted(t *testing.T, aux *auxGraph) []*chain.ServiceChain {
	t.Helper()
	for i, sc := range aux.chains {
		id := aux.firstChain + graph.EdgeID(i)
		e := aux.g.Edge(id)
		sd, ud := aux.srcDup[sc.Source], aux.vmDup[sc.LastVM]
		if aux.chainOf(id) != sc || e.Cost != sc.TotalCost() || !(e.U == sd && e.V == ud || e.U == ud && e.V == sd) {
			t.Fatalf("candidate edge %d is %+v, not chain %d→%d's", id, e, sc.Source, sc.LastVM)
		}
	}
	return aux.chains
}

// referenceForest is Algorithm 2's tail over the clone reference's
// Steiner tree without completeForest's skips: it assembles and validates
// the KMB forest, then every source's single-chain candidate, ranked
// afresh, over destination trees fetched from the oracle, and keeps the
// first strictly cheaper one. It fails t when a candidate costs less than
// the lower bound bestSingleTree gave it, or when its assembly pruned a
// clone, which the bound's derivation rules out.
func referenceForest(t *testing.T, label string, g *graph.Graph, oracle *chain.Oracle, vms []graph.NodeID, req Request, aux *auxGraph, tree *steiner.Tree) (*Forest, error) {
	t.Helper()
	best, err := assembleForest(g, oracle, vms, req, aux, tree.Edges)
	if err == nil {
		err = best.Validate(req.Sources, req.Dests)
	}
	if err != nil || req.ChainLen == 0 {
		return best, err
	}
	trees := make([]*graph.ShortestPaths, len(req.Dests))
	for i, d := range req.Dests {
		trees[i] = oracle.Tree(d)
	}
	dests := newDestClosure(req.Dests, trees)
	for _, s := range req.Sources {
		ranks := make([]float64, aux.g.NumNodes()-g.NumNodes())
		for i := range ranks {
			ranks[i] = math.NaN()
		}
		cand, lb := bestSingleTree(g, oracle, aux, s, req, dests, ranks)
		if cand == nil {
			continue
		}
		f, err := assembleForest(g, oracle, vms, req, aux, cand)
		if err != nil {
			continue
		}
		if f.TotalCost() < lb {
			t.Fatalf("%s: source %d's candidate costs %v, below its bound %v", label, s, f.TotalCost(), lb)
		}
		for id := range f.NumClones() {
			if f.CloneDeleted(CloneID(id)) {
				t.Fatalf("%s: source %d's candidate pruned clone %d", label, s, id)
			}
		}
		if f.Validate(req.Sources, req.Dests) == nil && f.TotalCost() < best.TotalCost() {
			best = f
		}
	}
	return best, nil
}

// checkAgainstClone requires aux (the overlay Ĝ an entry point built) to
// match the clone reference element for element, the Steiner phase to
// return the reference KMB tree (nodes, edges and cost bits), and the
// entry point's forest f (or its error) to equal the reference forest
// clone for clone, with its roots, destinations and VM owners (or to
// fail where it fails). It reports whether the instance was feasible.
func checkAgainstClone(t *testing.T, label string, g *graph.Graph, oracle *chain.Oracle, vms []graph.NodeID, req Request, aux *auxGraph, f *Forest, ferr error) bool {
	t.Helper()
	ref, sHat := cloneAux(g, req, vms, admitted(t, aux))
	if aux.sHat != sHat || aux.g.NumNodes() != ref.NumNodes() || aux.g.NumEdges() != ref.NumEdges() {
		t.Fatalf("%s: overlay Ĝ has ŝ %d, %d nodes, %d edges; clone %d, %d, %d", label,
			aux.sHat, aux.g.NumNodes(), aux.g.NumEdges(), sHat, ref.NumNodes(), ref.NumEdges())
	}
	for id := 0; id < ref.NumEdges(); id++ {
		if got, want := aux.g.Edge(graph.EdgeID(id)), ref.Edge(graph.EdgeID(id)); got != want {
			t.Fatalf("%s: Ĝ edge %d is %+v, clone's %+v", label, id, got, want)
		}
	}
	checkSHatRow(t, label, g, ref, oracle, aux, req.Dests)
	want, werr := steiner.KMB(ref, append([]graph.NodeID{sHat}, req.Dests...))
	got, _, gerr := steinerPhase(g, oracle, req.Dests, aux)
	if werr != nil {
		if gerr == nil || !errors.Is(gerr, graph.ErrDisconnected) || ferr == nil || !errors.Is(ferr, graph.ErrDisconnected) {
			t.Fatalf("%s: reference Steiner phase failed (%v), overlay phase %v, entry point %v", label, werr, gerr, ferr)
		}
		return false
	}
	if gerr != nil {
		t.Fatalf("%s: Steiner phase: %v", label, gerr)
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Edges, want.Edges) ||
		math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: Steiner tree %+v differs from the clone reference %+v", label, got, want)
	}
	wantF, err := referenceForest(t, label, g, oracle, vms, req, aux, want)
	if err != nil {
		if ferr == nil {
			t.Fatalf("%s: reference assembly failed (%v), entry point did not", label, err)
		}
		return false
	}
	if ferr != nil {
		t.Fatalf("%s: entry point: %v", label, ferr)
	}
	if !reflect.DeepEqual(snapshot(f), snapshot(wantF)) {
		t.Fatalf("%s: forest (cost %v) differs from the clone reference's (cost %v)\ngot  %+v\nwant %+v", label,
			f.TotalCost(), wantF.TotalCost(), snapshot(f), snapshot(wantF))
	}
	return true
}

// checkSHatRow pins ŝ's row over the overlay Ĝ aux, built from the
// trees' provider, to the heap's full run over the clone reference ref:
// reachability at every destination, and Dist bits and ParentEdge along
// every reachable destination's path. It reports whether the row was
// confined to its tight set.
func checkSHatRow(t *testing.T, label string, g, ref *graph.Graph, trees steiner.PathProvider, aux *auxGraph, dests []graph.NodeID) bool {
	t.Helper()
	want := graph.NewArena().DijkstraHeap(ref, aux.sHat)
	row, _, confined, release := sourceRow(g, trees, aux.g, aux.sHat, dests)
	defer release()
	sameRowAlongPaths(t, label, aux.g, row, want, dests)
	return confined
}

// Link-cost sets of the random networks: integers with zeros, and three
// zero-free sets — few mixed floats with many exact ties, unit costs
// beside a rare wide one, and plain unit costs.
var (
	integerCosts = []float64{0, 1, 2, 3, 4, 5, 6, 7}
	mixedCosts   = []float64{0.1, 0.2, 0.3, 1, 2, 3, 5}
	wideCosts    = []float64{1, 1, 1, 1, 1, 1, 1, 200}
	unitCosts    = []float64{1}
)

// phaseNet draws a random multigraph network: link costs from costs,
// parallel edges of equal and of different cost, a VM on every third
// node, and a few failed and masked elements.
func phaseNet(rng *rand.Rand, costs []float64) *graph.Graph {
	n := 16 + rng.Intn(32)
	g := graph.New(n, 4*n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			g.AddVM("", float64(1+rng.Intn(5)))
		} else {
			g.AddSwitch("")
		}
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)), costs[rng.Intn(len(costs))])
	}
	for k := 0; k < 2*n; k++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		c := costs[rng.Intn(len(costs))]
		g.MustAddEdge(u, v, c)
		if rng.Intn(4) == 0 {
			g.MustAddEdge(u, v, c)
		}
	}
	perturb(g, rng, costs)
	return g
}

// perturb reprices a third of g's edges from costs and moves its failures
// and masks around, so a session oracle's earlier trees go stale.
func perturb(g *graph.Graph, rng *rand.Rand, costs []float64) {
	g.RestoreAll()
	g.UnmaskAll()
	for k := 0; k < g.NumEdges()/3; k++ {
		g.SetEdgeCost(graph.EdgeID(rng.Intn(g.NumEdges())), costs[rng.Intn(len(costs))])
	}
	g.FailEdge(graph.EdgeID(rng.Intn(g.NumEdges())))
	g.MaskEdge(graph.EdgeID(rng.Intn(g.NumEdges())))
	if rng.Intn(3) == 0 {
		g.MaskNode(graph.NodeID(rng.Intn(g.NumNodes())))
	}
}

// phaseRequest draws 1–4 sources (a repeated source now and then, which
// doubles its candidate edges) and 1–5 destinations.
func phaseRequest(rng *rand.Rand, g *graph.Graph, chainLen int) Request {
	n := g.NumNodes()
	req := Request{ChainLen: chainLen}
	for k := 1 + rng.Intn(4); k > 0; k-- {
		req.Sources = append(req.Sources, graph.NodeID(rng.Intn(n)))
	}
	if rng.Intn(4) == 0 {
		req.Sources = append(req.Sources, req.Sources[0])
	}
	for k := 1 + rng.Intn(5); k > 0; k-- {
		req.Dests = append(req.Dests, graph.NodeID(rng.Intn(n)))
	}
	return req
}

// TestSteinerPhaseMatchesCloneReference pins the Steiner phase — ŝ's row
// over the overlay Ĝ plus destination rows from the session oracle — and
// every forest built on it to the clone reference: the network copied
// into Ĝ and searched by steiner.KMB with its own trees. Each network
// serves several rounds through one session oracle, with costs, failures
// and masks moved between rounds, over chain lengths 0–2 and all entry
// points: SOFDACtx, AuxGraphBuilder fed repeated candidates (parallel
// equal-cost virtual edges), and AuxGraphBuilder with pruning.
// Every cost set's rows must mostly be confined to their tight set,
// zero-cost links included. In "far VMs", every VM costs 1e17 to set up
// beside unit links, so at chain lengths 1 and 2 every seed lies where it
// absorbs a unit arc; its rounding tolerance spans the network, and those
// rows must fall back to the overlay heap. In "source setup", the oracle
// adds each source's setup cost to its chains (Appendix D) and every
// switch costs 0.5 to set up, so a chain's TotalCost exceeds what its
// forest pays by the source's setup: the refinement's lower bound must
// leave that out.
func TestSteinerPhaseMatchesCloneReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		costs    []float64
		farVM    float64 // when set, the setup cost of every VM
		srcSetup bool    // the oracle charges each chain its source's setup
	}{
		{"integer", integerCosts, 0, false},
		{"mixed", mixedCosts, 0, false},
		{"wide", wideCosts, 0, false},
		{"far VMs", unitCosts, 1e17, false},
		{"source setup", mixedCosts, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) { cloneReferenceRounds(t, tc.costs, tc.farVM, tc.srcSetup) })
	}
}

// cloneReferenceRounds is TestSteinerPhaseMatchesCloneReference over
// networks with link costs from costs and, when farVM is set, every VM at
// setup cost farVM. With srcSetup the oracle charges each chain its
// source's setup cost, and every switch costs 0.5 to set up.
func cloneReferenceRounds(t *testing.T, costs []float64, farVM float64, srcSetup bool) {
	ctx := context.Background()
	feasible, farSeeds, rows, confined := 0, 0, 0, 0
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := phaseNet(rng, costs)
		vms := g.VMs()
		if farVM > 0 {
			for _, u := range vms {
				g.SetNodeCost(u, farVM)
			}
		}
		if srcSetup {
			for v := range g.NumNodes() {
				if !g.IsVM(graph.NodeID(v)) {
					g.SetNodeCost(graph.NodeID(v), 0.5)
				}
			}
		}
		oracle := chain.NewOracle(g, chain.Options{SourceSetupCost: srcSetup})
		opts := &Options{Oracle: oracle, VMs: vms, Parallelism: 1}
		for round := 0; round < 6; round++ {
			if round > 0 {
				perturb(g, rng, costs)
			}
			req := phaseRequest(rng, g, round%3)
			label := fmt.Sprintf("seed %d round %d chainLen %d", seed, round, req.ChainLen)

			b, err := candidateBuilder(ctx, g, req, opts)
			if err != nil {
				t.Fatalf("%s: Ĝ build: %v", label, err)
			}
			aux := b.aux
			built := req.ChainLen == 0 || b.Added() > 0
			if built {
				// ŝ's row is checked before the embed runs, so a wrong row
				// fails here instead of sending KMB's path walk round a
				// parent cycle.
				ref, _ := cloneAux(g, req, vms, admitted(t, aux))
				rows++
				if checkSHatRow(t, label, g, ref, oracle, aux, req.Dests) {
					confined++
				} else if farVM > 0 && req.ChainLen > 0 {
					farSeeds++
				}
			}
			f, ferr := SOFDACtx(ctx, g, req, opts)
			if !built {
				if ferr == nil {
					t.Fatalf("%s: no candidate entered Ĝ, yet SOFDACtx did not fail", label)
				}
				continue
			}
			if checkAgainstClone(t, label+" SOFDACtx", g, oracle, vms, req, aux, f, ferr) {
				feasible++
			}
			if req.ChainLen == 0 {
				continue
			}

			results, err := oracle.Chains(ctx, vms, chain.Pairs(req.Sources, vms), req.ChainLen, 1)
			if err != nil {
				t.Fatalf("%s: candidates: %v", label, err)
			}
			var cands []*chain.ServiceChain
			for _, r := range results {
				if r.Err == nil {
					cands = append(cands, r.Chain)
					if rng.Intn(3) == 0 {
						cands = append(cands, r.Chain)
					}
				}
			}
			b, err = NewAuxGraphBuilder(g, req, opts)
			if err != nil {
				t.Fatalf("%s: builder: %v", label, err)
			}
			for _, sc := range cands {
				if _, err := b.AddCandidate(sc); err != nil {
					t.Fatalf("%s: AddCandidate: %v", label, err)
				}
			}
			f, ferr = b.Complete(ctx)
			checkAgainstClone(t, label+" repeated candidates", g, oracle, vms, req, b.aux, f, ferr)

			b, err = NewAuxGraphBuilder(g, req, opts)
			if err != nil {
				t.Fatalf("%s: builder: %v", label, err)
			}
			b.EnablePruning(ctx)
			for _, sc := range cands {
				if _, err := b.AddCandidate(sc); err != nil {
					t.Fatalf("%s: AddCandidate: %v", label, err)
				}
			}
			f, ferr = b.Complete(ctx)
			checkAgainstClone(t, label+" builder pruning", g, oracle, vms, req, b.aux, f, ferr)
		}
	}
	t.Logf("%d of %d rows confined to their tight set", confined, rows)
	if feasible < 60 {
		t.Fatalf("only %d of 144 SOFDACtx embeds reached a forest; the check is near-vacuous", feasible)
	}
	if farVM == 0 && confined < rows/2 {
		t.Fatalf("only %d of %d rows were confined to their tight set", confined, rows)
	}
	if farVM > 0 && farSeeds < 40 {
		t.Fatalf("only %d of 144 rows had far seeds and fell back to the overlay heap", farSeeds)
	}
}

// TestAuxSkeletonDeterministic: a chainLen-0 skeleton adds its v̂–v edges
// in source order, so every build of one request gives one edge list.
func TestAuxSkeletonDeterministic(t *testing.T) {
	g, _ := paperStyleNet()
	sources := []graph.NodeID{3, 1, 4, 0}
	var first []graph.Edge
	for build := 0; build < 32; build++ {
		aux := newAuxSkeleton(g, sources, nil, 0)
		var edges []graph.Edge
		for id := aux.origEdges; id < aux.g.NumEdges(); id++ {
			edges = append(edges, aux.g.Edge(graph.EdgeID(id)))
		}
		if build == 0 {
			first = edges
		} else if !reflect.DeepEqual(edges, first) {
			t.Fatalf("build %d: skeleton edges %v, first build %v", build, edges, first)
		}
	}
}

// steinerPhaseNet is a fixed instance for the oracle-accounting tests: a
// ring of eight nodes, VMs at 1, 3, 5 and 7, plus a switch 8 hung off
// node 4 by edge pendant, the only link that reaches it.
func steinerPhaseNet() (g *graph.Graph, pendant graph.EdgeID) {
	g = graph.New(9, 10)
	for i := 0; i < 8; i++ {
		if i%2 == 1 {
			g.AddVM("", float64(i))
		} else {
			g.AddSwitch("")
		}
	}
	g.AddSwitch("")
	for i := 0; i < 8; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i+1)%8), float64(1+i%3))
	}
	return g, g.MustAddEdge(4, 8, 2)
}

// TestSteinerPhaseOracleAccounting pins what the Steiner phase charges a
// fresh oracle. An embed whose ŝ row misses a destination fails with
// graph.ErrDisconnected before it fetches any destination tree: the row
// decides reachability from its seeds' trees alone. A chainLen-2 embed
// charges the misses it always did (its seeds are the VMs whose trees the
// chain solves built, and its refinement read the same destination
// trees); a chainLen-0 embed charges one miss per destination, the rows
// its Steiner phase reads, and one for its source, the row's one seed.
func TestSteinerPhaseOracleAccounting(t *testing.T) {
	ctx := context.Background()
	dests := []graph.NodeID{2, 6, 8}
	for _, chainLen := range []int{0, 2} {
		g, pendant := steinerPhaseNet()
		g.FailEdge(pendant)
		oracle := chain.NewOracle(g, chain.Options{})
		req := Request{Sources: []graph.NodeID{0}, Dests: dests, ChainLen: chainLen}
		if _, err := SOFDACtx(ctx, g, req, &Options{Oracle: oracle}); !errors.Is(err, graph.ErrDisconnected) {
			t.Fatalf("chainLen %d: embed with an isolated destination returned %v, want graph.ErrDisconnected", chainLen, err)
		}
		for _, d := range dests {
			before := oracle.Stats().Misses
			oracle.Tree(d)
			if oracle.Stats().Misses != before+1 {
				t.Fatalf("chainLen %d: the failed embed fetched destination %d's tree", chainLen, d)
			}
		}
	}
	for _, tc := range []struct {
		chainLen int
		misses   uint64
	}{
		{0, 4},
		{2, 8},
	} {
		g, _ := steinerPhaseNet()
		oracle := chain.NewOracle(g, chain.Options{})
		req := Request{Sources: []graph.NodeID{0}, Dests: dests, ChainLen: tc.chainLen}
		if _, err := SOFDACtx(ctx, g, req, &Options{Oracle: oracle}); err != nil {
			t.Fatalf("chainLen %d: %v", tc.chainLen, err)
		}
		if got := oracle.Stats().Misses; got != tc.misses {
			t.Errorf("chainLen %d: embed charged %d tree misses, want %d", tc.chainLen, got, tc.misses)
		}
	}
}

// inetRowRequests returns BenchmarkSteinerPhase's instance, sofda-5k's
// network shape: Inet-5000 with 500 data centers and 30 VMs, and 40
// requests of chain length 2 with 2–4 sources and 4–8 destinations drawn
// from the first 64 access nodes.
func inetRowRequests(tb testing.TB) (*topology.Network, []Request) {
	tb.Helper()
	net, err := topology.Inet(5000, 10000, 500, topology.Config{NumVMs: 30, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	reqs := make([]Request, 40)
	for i := range reqs {
		nSrc, nDst := 2+rng.Intn(3), 4+rng.Intn(5)
		ends := graph.SampleDistinct(rng, net.Access[:64], nSrc+nDst)
		reqs[i] = Request{Sources: ends[:nSrc:nSrc], Dests: ends[nSrc:], ChainLen: 2}
	}
	return net, reqs
}

// inetRowAuxes builds each request's Ĝ as SOFDA builds it, on oracle's
// trees, and runs one row each, which warms the oracle's VM and
// destination trees. Every row must stay confined to its tight set and
// equal the overlay heap's row at each destination.
func inetRowAuxes(tb testing.TB, net *topology.Network, oracle *chain.Oracle, reqs []Request) []*auxGraph {
	tb.Helper()
	g := net.G
	opts := &Options{Oracle: oracle, VMs: net.VMs, Parallelism: 1}
	auxes := make([]*auxGraph, len(reqs))
	for i, req := range reqs {
		built, err := candidateBuilder(context.Background(), g, req, opts)
		if err != nil {
			tb.Fatal(err)
		}
		aux := built.aux
		row, _, confined, release := sourceRow(g, oracle, aux.g, aux.sHat, req.Dests)
		heap := aux.g.Dijkstra(aux.sHat)
		if !confined {
			tb.Fatalf("request %d: the row fell back to the overlay heap", i)
		}
		for _, d := range req.Dests {
			if row.Dist[d] != heap.Dist[d] || row.ParentEdge[d] != heap.ParentEdge[d] {
				tb.Fatalf("request %d: the row differs from the heap's at destination %d", i, d)
			}
		}
		release()
		auxes[i] = aux
	}
	return auxes
}

// BenchmarkSteinerPhase times the row of Ĝ's virtual source ŝ, the one
// shortest-path run of SOFDA's Steiner phase, on inetRowRequests. Each
// request's Ĝ is built untimed, as SOFDA builds it, and one untimed row
// warms the oracle's VM and destination trees. The seeded rows run
// sourceRow, which reads those trees and runs the overlay heap over the
// row's tight set, and release each row; every one of them must stay
// confined to it. The heap rows run the overlay heap over Ĝ in full, the
// reference the row is pinned to. "initial" keeps the generated costs,
// and "steady" sets every link to 5 and every VM to 1. One untimed pass
// precedes each timed run, so B/op counts warm rows. ms/run is the wall
// clock per request; CI records it, and gates steady/seeded's B/op.
func BenchmarkSteinerPhase(b *testing.B) {
	net, reqs := inetRowRequests(b)
	g := net.G
	for _, costs := range []string{"initial", "steady"} {
		if costs == "steady" {
			for e := 0; e < g.NumEdges(); e++ {
				g.SetEdgeCost(graph.EdgeID(e), 5)
			}
			for _, v := range net.VMs {
				g.SetNodeCost(v, 1)
			}
		}
		oracle := chain.NewOracle(g, chain.Options{})
		auxes := inetRowAuxes(b, net, oracle, reqs)
		for _, v := range []struct {
			name string
			run  func(i int)
		}{
			{"seeded", func(i int) {
				_, _, _, release := sourceRow(g, oracle, auxes[i].g, auxes[i].sHat, reqs[i].Dests)
				release()
			}},
			{"heap", func(i int) { auxes[i].g.Dijkstra(auxes[i].sHat) }},
		} {
			b.Run(costs+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				// An untimed pass fills the pools of the P this goroutine
				// runs on, which the GC before the run may have emptied.
				for i := range auxes {
					v.run(i)
				}
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					for i := range auxes {
						v.run(i)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(auxes))/1e6, "ms/run")
			})
		}
	}
}
