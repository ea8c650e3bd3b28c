package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sof/internal/chain"
	"sof/internal/graph"
	"sof/internal/steiner"
)

// sameRowAlongPaths fails the test unless row reaches each destination
// that want reaches, and agrees with want, Dist bits and ParentEdge, at
// every node of each reachable destination's path in want. ov is the
// overlay both rows were computed over.
func sameRowAlongPaths(t *testing.T, label string, ov *graph.Overlay, row, want *graph.ShortestPaths, dests []graph.NodeID) {
	t.Helper()
	for _, d := range dests {
		if row.Reachable(d) != want.Reachable(d) {
			t.Fatalf("%s: ŝ row reaches destination %d: %v, heap's: %v", label, d, row.Reachable(d), want.Reachable(d))
		}
		if !want.Reachable(d) {
			continue
		}
		for v := d; ; {
			if math.Float64bits(row.Dist[v]) != math.Float64bits(want.Dist[v]) || row.ParentEdge[v] != want.ParentEdge[v] {
				t.Fatalf("%s: ŝ row at node %d on destination %d's path is (%v,%d), heap's (%v,%d)", label, v, d,
					row.Dist[v], row.ParentEdge[v], want.Dist[v], want.ParentEdge[v])
			}
			e := want.ParentEdge[v]
			if e == graph.NoEdge {
				break
			}
			v = ov.Edge(e).Other(v)
		}
	}
}

// rowRegime is a cost regime of the ŝ-row tests; each exposes a different
// way for the tight set to miss a node the heap's row needs.
type rowRegime struct {
	name  string
	links []float64
	// cand draws a candidate edge's cost.
	cand func(rng *rand.Rand, links []float64) float64
	// ties gives half the VMs a candidate cost exactly equal to their
	// distance from the other seeds.
	ties bool
	// parts is the network's component count; 0 means connected.
	parts int
}

// chainCost sums one to four link costs, the shape of a chain's cost,
// and is 0 now and then.
func chainCost(rng *rand.Rand, links []float64) float64 {
	if rng.Intn(20) == 0 {
		return 0
	}
	c := 0.0
	for k := 1 + rng.Intn(4); k > 0; k-- {
		c += links[rng.Intn(len(links))]
	}
	return c
}

// smallCost draws an integer candidate cost under 24.
func smallCost(rng *rand.Rand, _ []float64) float64 { return float64(rng.Intn(24)) }

var rowRegimes = []rowRegime{
	// Few mixed float costs: many exact ties between a seed and a network
	// node at one distance, and sums that round.
	{name: "mixed", links: mixedCosts, cand: chainCost},
	// Unit costs beside a rare wide one: many equal-cost paths.
	{name: "wide", links: wideCosts, cand: smallCost},
	// Candidate costs up to 20,000 on a network of three components, so a
	// seed far out owns a component and its destinations.
	{name: "spread", links: wideCosts, parts: 3, cand: func(rng *rand.Rand, _ []float64) float64 {
		return float64(rng.Intn(20001))
	}},
	// Provoked ties, under both link-cost sets: a network node whose
	// distance through the network equals its VM's candidate cost, so the
	// heap's pop order between a seed and its neighbours decides parents.
	{name: "mixed ties", links: mixedCosts, cand: chainCost, ties: true},
	{name: "wide ties", links: wideCosts, cand: smallCost, ties: true},
	// Candidate costs of 1e12, 1e17 and 1e300 now and then, the cost of a
	// chain through a VM whose setup cost is that large, beside unit links
	// on three components. Half an ulp of 1e12 is far below a unit arc, so
	// its tight set stays small; at 1e17 a unit arc is absorbed, and the
	// rounding tolerance at 1e17 or 1e300 spans the whole component, so
	// such a destination's row takes the overlay heap.
	{name: "huge", links: []float64{1}, parts: 3, cand: func(rng *rand.Rand, links []float64) float64 {
		switch rng.Intn(40) {
		case 0:
			return 1e17
		case 1:
			return 1e300
		case 2, 3, 4, 5:
			return 1e12
		}
		return smallCost(rng, links)
	}},
	// Zero-cost links: a node reaches its final distance only after
	// another node at that distance pops.
	{name: "zero", links: integerCosts, cand: chainCost},
	// A link of 1e-17, which vanishes when added to any distance past a
	// few hundredths: ties that the heap breaks by pop order.
	{name: "absorbed", links: []float64{1e-17, 1, 2, 3, 4, 5, 6, 7}, cand: smallCost},
}

// rowGraph draws a random multigraph with link costs from links over
// max(parts, 1) components (node i joins component i mod parts), with
// parallel edges of equal and of different cost, an isolated node, and
// on most draws failed and masked edges and nodes.
func rowGraph(rng *rand.Rand, links []float64, parts int) *graph.Graph {
	parts = max(parts, 1)
	n := 8 + rng.Intn(40)
	g := graph.New(n+1, 4*n)
	for i := 0; i <= n; i++ {
		g.AddSwitch("")
	}
	cost := func() float64 { return links[rng.Intn(len(links))] }
	// peer draws a node of v's component other than v, below limit.
	peer := func(v, limit int) graph.NodeID {
		return graph.NodeID(v%parts + parts*rng.Intn((limit-v%parts+parts-1)/parts))
	}
	for i := parts; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), peer(i, i), cost())
	}
	for k := 0; k < 2*n; k++ {
		u := rng.Intn(n)
		v := peer(u, n)
		if graph.NodeID(u) == v {
			continue
		}
		c := cost()
		g.MustAddEdge(graph.NodeID(u), v, c)
		if rng.Intn(4) == 0 {
			g.MustAddEdge(graph.NodeID(u), v, c)
		}
	}
	if rng.Intn(3) > 0 {
		for i := 0; i < 2; i++ {
			g.FailEdge(graph.EdgeID(rng.Intn(g.NumEdges())))
			g.MaskEdge(graph.EdgeID(rng.Intn(g.NumEdges())))
		}
		g.FailNode(graph.NodeID(rng.Intn(n)))
		g.MaskNode(graph.NodeID(rng.Intn(n)))
	}
	return g
}

// rowCand is a candidate edge between the duplicates of sources[src] and
// vms[vm].
type rowCand struct {
	src, vm int
	cost    float64
}

// rowAux builds Ĝ over g as SOFDA does: the skeleton, then the
// candidate edges in order. nil vms builds the chain-length-0 shape.
func rowAux(g *graph.Graph, sources, vms []graph.NodeID, cands []rowCand) *auxGraph {
	if vms == nil {
		return newAuxSkeleton(g, sources, nil, 0)
	}
	aux := newAuxSkeleton(g, sources, vms, 1)
	for _, c := range cands {
		aux.g.MustAddEdge(aux.srcDup[sources[c.src]], aux.vmDup[vms[c.vm]], c.cost)
	}
	return aux
}

// rowCase draws a Ĝ-shaped instance from seed under reg: 1–3 sources, up
// to 12 VMs (one draw in six the chain-length-0 shape instead), a
// candidate for most (source, VM) pairs, some of them twice, and 0–4
// destinations, duplicates and the isolated node among them.
func rowCase(seed int64, reg rowRegime) (*graph.Graph, *auxGraph, []graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := rowGraph(rng, reg.links, reg.parts)
	n := g.NumNodes() - 1
	perm := rng.Perm(n)
	sources := make([]graph.NodeID, 1+rng.Intn(3))
	for i := range sources {
		sources[i] = graph.NodeID(perm[i])
	}
	var aux *auxGraph
	if rng.Intn(6) == 0 {
		aux = rowAux(g, sources, nil, nil)
	} else {
		vms := make([]graph.NodeID, 1+rng.Intn(min(n, 12)))
		for i, p := range rng.Perm(n)[:len(vms)] {
			vms[i] = graph.NodeID(p)
		}
		var cands []rowCand
		for s := range sources {
			for u := range vms {
				if reg.ties && u%2 == 1 || rng.Intn(5) == 0 {
					continue
				}
				c := rowCand{src: s, vm: u, cost: reg.cand(rng, reg.links)}
				cands = append(cands, c)
				if rng.Intn(8) == 0 {
					cands = append(cands, c)
				}
			}
		}
		if reg.ties {
			// The odd VMs' candidates cost exactly their distance from the
			// even VMs' seeds.
			even := rowAux(g, sources, vms, cands)
			d := even.g.Dijkstra(even.sHat)
			for u := 1; u < len(vms); u += 2 {
				if dist := d.Dist[vms[u]]; !math.IsInf(dist, 1) {
					cands = append(cands, rowCand{src: rng.Intn(len(sources)), vm: u, cost: dist})
				}
			}
		}
		aux = rowAux(g, sources, vms, cands)
	}
	var dests []graph.NodeID
	for k := rng.Intn(5); k > 0; k-- {
		dests = append(dests, graph.NodeID(rng.Intn(n)))
	}
	switch rng.Intn(6) {
	case 0:
		if len(dests) > 0 {
			dests = append(dests, dests[0])
		}
	case 1:
		dests = append(dests, graph.NodeID(n)) // isolated: unreachable
	}
	return g, aux, dests
}

// checkRow builds ŝ's row of rowCase(seed, reg) from a fresh oracle's
// trees and pins it to the overlay heap's run over Ĝ along every
// destination's path (see sameRowAlongPaths). The destination trees it
// returns are the oracle's, position for position, or nil when a
// destination is unreachable. It reports whether the row was confined to
// its tight set, and whether every destination was reachable.
func checkRow(t *testing.T, seed int64, reg rowRegime) (confined, reachable bool) {
	t.Helper()
	label := fmt.Sprintf("%s seed %d", reg.name, seed)
	g, aux, dests := rowCase(seed, reg)
	want := aux.g.Dijkstra(aux.sHat)
	row, trees, confined, release := sourceRow(g, chain.NewOracle(g, chain.Options{}), aux.g, aux.sHat, dests)
	defer release()
	sameRowAlongPaths(t, label, aux.g, row, want, dests)
	reachable = true
	for _, d := range dests {
		reachable = reachable && want.Reachable(d)
	}
	if !reachable {
		if trees != nil {
			t.Fatalf("%s: a destination is unreachable, yet the row fetched destination trees", label)
		}
		return confined, false
	}
	for i, d := range dests {
		if trees[i] == nil || trees[i].Source != d {
			t.Fatalf("%s: tree %d is not destination %d's", label, i, d)
		}
	}
	return confined, true
}

// TestSourceRowMatchesHeap pins ŝ's row, built on its tight set from the
// oracle's trees, to the overlay heap's run over Ĝ under every regime of
// rowRegimes: reachability at every destination, and Dist bits and
// ParentEdge along every reachable destination's path. Most rows must be
// confined to their tight set, and enough rows that reach every
// destination must outgrow it and fall back to the overlay heap.
func TestSourceRowMatchesHeap(t *testing.T) {
	outgrown := 0
	for _, reg := range rowRegimes {
		confined, grew := 0, 0
		const cases = 1500
		for seed := int64(0); seed < cases; seed++ {
			switch c, r := checkRow(t, seed, reg); {
			case c:
				confined++
			case r:
				grew++
			}
		}
		t.Logf("%s: of %d rows, %d confined to their tight set, %d outgrew it", reg.name, cases, confined, grew)
		if confined < cases/2 {
			t.Fatalf("%s: only %d of %d rows were confined to their tight set; the tight set is barely exercised", reg.name, confined, cases)
		}
		outgrown += grew
	}
	if outgrown < 100 {
		t.Fatalf("only %d rows outgrew their tight set; the fallback is barely exercised", outgrown)
	}
}

// FuzzSourceRowMatchesHeap is TestSourceRowMatchesHeap over the fuzzer's
// instance seeds and regimes.
func FuzzSourceRowMatchesHeap(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, regime uint8) {
		checkRow(t, seed, rowRegimes[int(regime)%len(rowRegimes)])
	})
}

// writingProvider answers Tree from an oracle and, on its k-th call, runs
// write after reading the tree, as a writer running beside the row would.
type writingProvider struct {
	oracle   *chain.Oracle
	write    func()
	k, calls int
}

func (p *writingProvider) Tree(n graph.NodeID) *graph.ShortestPaths {
	sp := p.oracle.Tree(n)
	if p.calls++; p.calls == p.k {
		p.write()
	}
	return sp
}

// TestSourceRowEpochFallback raises the cost of a network link on a
// destination's path in Ĝ while the row reads its trees, after the last
// Tree call and after a random one. The trees read before the raise then
// disagree with the live costs, so the row must fall back to the overlay
// heap over the live Ĝ, and equal it along every destination's path.
func TestSourceRowEpochFallback(t *testing.T) {
	raised, moved := 0, 0
	for _, reg := range rowRegimes[:2] {
		for seed := int64(0); seed < 300; seed++ {
			g, aux, dests := rowCase(seed, reg)
			before := aux.g.Dijkstra(aux.sHat)
			e, d := graph.NoEdge, graph.None
			for _, dd := range dests {
				for v := dd; before.Reachable(dd) && before.ParentEdge[v] != graph.NoEdge; {
					if pe := before.ParentEdge[v]; aux.isRealEdge(pe) {
						e, d = pe, dd
						break
					}
					v = aux.g.Edge(before.ParentEdge[v]).Other(v)
				}
				if e != graph.NoEdge {
					break
				}
			}
			if e == graph.NoEdge {
				continue
			}
			count := &writingProvider{oracle: chain.NewOracle(g, chain.Options{})}
			_, _, _, release := sourceRow(g, count, aux.g, aux.sHat, dests)
			release()
			rng := rand.New(rand.NewSource(seed))
			for _, k := range []int{count.calls, 1 + rng.Intn(count.calls)} {
				label := fmt.Sprintf("%s seed %d raise after call %d of %d", reg.name, seed, k, count.calls)
				cost := g.EdgeCost(e)
				raise := func() { g.SetEdgeCost(e, cost+100) }
				p := &writingProvider{oracle: chain.NewOracle(g, chain.Options{}), write: raise, k: k}
				row, _, confined, release := sourceRow(g, p, aux.g, aux.sHat, dests)
				want := aux.g.Dijkstra(aux.sHat)
				sameRowAlongPaths(t, label, aux.g, row, want, dests)
				release()
				if confined {
					t.Fatalf("%s: the row stayed confined to a tight set read across a cost change", label)
				}
				raised++
				if want.Dist[d] != before.Dist[d] {
					moved++
				}
				g.SetEdgeCost(e, cost)
			}
		}
	}
	t.Logf("%d rows read across a raise; it moved the destination's distance in %d", raised, moved)
	if moved < 100 {
		t.Fatalf("only %d raises moved a destination's distance; the fallback is barely exercised", moved)
	}
}

// TestSourceRowDestinationJoined masks every network link of a
// destination that Ĝ reaches, so no seed's tree reaches it, and unmasks
// them after the row reads its last seed tree, as a departure that frees
// capacity or a restored link would. The live overlay heap the row then
// takes reaches every destination again, so the row must hand on every
// destination's tree, and the Steiner phase built on it must complete.
func TestSourceRowDestinationJoined(t *testing.T) {
	joined := 0
	for _, reg := range rowRegimes[:2] {
		for seed := int64(0); seed < 300; seed++ {
			g, aux, dests := rowCase(seed, reg)
			if len(dests) == 0 || steiner.Unreachable(aux.g.Dijkstra(aux.sHat), append([]graph.NodeID{aux.sHat}, dests...)) != nil {
				continue
			}
			d := dests[len(dests)-1]
			var links []graph.EdgeID
			for _, a := range g.Adj(d) {
				if g.MaskEdge(a.Edge) {
					links = append(links, a.Edge)
				}
			}
			unmask := func() {
				for _, e := range links {
					g.UnmaskEdge(e)
				}
			}
			if aux.g.Dijkstra(aux.sHat).Reachable(d) {
				unmask() // d is a seed, or a link to it was failed rather than masked
				continue
			}
			count := &writingProvider{oracle: chain.NewOracle(g, chain.Options{})}
			_, _, _, release := sourceRow(g, count, aux.g, aux.sHat, dests)
			release()
			label := fmt.Sprintf("%s seed %d unmask after call %d", reg.name, seed, count.calls)

			p := &writingProvider{oracle: chain.NewOracle(g, chain.Options{}), write: unmask, k: count.calls}
			row, trees, _, release := sourceRow(g, p, aux.g, aux.sHat, dests)
			sameRowAlongPaths(t, label, aux.g, row, aux.g.Dijkstra(aux.sHat), dests)
			release()
			for i, dd := range dests {
				if trees == nil || trees[i].Source != dd {
					t.Fatalf("%s: the row reaches every destination, yet tree %d is not destination %d's", label, i, dd)
				}
			}

			for _, e := range links {
				g.MaskEdge(e)
			}
			p = &writingProvider{oracle: chain.NewOracle(g, chain.Options{}), write: unmask, k: count.calls}
			if _, _, err := steinerPhase(g, p, dests, aux); err != nil {
				t.Fatalf("%s: Steiner phase: %v", label, err)
			}
			joined++
		}
	}
	t.Logf("%d rows read a destination joined after the last seed tree", joined)
	if joined < 100 {
		t.Fatalf("only %d rows read a joined destination; the case is barely exercised", joined)
	}
}

// TestSourceRowPoolStaysClean runs sourceRow/release cycles over the
// rowRegimes instances: rows confined to their tight set, rows that
// outgrow it or miss a destination, and, on every third seed, rows whose
// cost epoch moves while their trees are read, so a confined row is run
// and released before the overlay heap's row replaces it. After each
// release it draws the next pooled row through a probe, a confined run
// from an appended switch without arcs over an overlay as large as the
// case's Ĝ, which writes its source's entry alone: every other entry must
// hold +Inf/NoEdge. Most probes must get the row the cycle released, or
// the check would be vacuous.
func TestSourceRowPoolStaysClean(t *testing.T) {
	var confined, fellBack, raised, recycled int
	for _, reg := range rowRegimes {
		for seed := int64(0); seed < 300; seed++ {
			label := fmt.Sprintf("%s seed %d", reg.name, seed)
			g, aux, dests := rowCase(seed, reg)
			var p steiner.PathProvider = chain.NewOracle(g, chain.Options{})
			raise := seed%3 == 0 && g.NumEdges() > 0
			if raise {
				cost := g.EdgeCost(0)
				p = &writingProvider{oracle: chain.NewOracle(g, chain.Options{}), k: 1, write: func() { g.SetEdgeCost(0, cost+1) }}
			}
			row, _, ok, release := sourceRow(g, p, aux.g, aux.sHat, dests)
			sameRowAlongPaths(t, label, aux.g, row, aux.g.Dijkstra(aux.sHat), dests)
			var first *float64
			switch {
			case ok:
				confined++
				first = &row.Dist[0]
			case raise && p.(*writingProvider).calls > 0:
				raised++
			default:
				fellBack++
			}
			release()

			probe := graph.NewOverlay(g)
			var src graph.NodeID
			for range aux.g.NumNodes() - g.NumNodes() {
				src = probe.AddSwitch()
			}
			next, releaseNext := probe.DijkstraWithin(src, nil)
			if &next.Dist[0] == first {
				recycled++
			}
			for v := range next.Dist {
				want := math.Inf(1)
				if graph.NodeID(v) == src {
					want = 0
				}
				if next.Dist[v] != want || next.ParentEdge[v] != graph.NoEdge {
					t.Fatalf("%s: after release the next pooled row holds (%v,%d) at node %d", label, next.Dist[v], next.ParentEdge[v], v)
				}
			}
			releaseNext()
		}
	}
	t.Logf("%d confined rows (%d recycled by the probe), %d overlay heap rows, %d read across a cost change", confined, recycled, fellBack, raised)
	if recycled < confined/2 || fellBack < 100 || raised < 100 {
		t.Fatalf("only %d of %d confined rows were recycled, %d heap rows, %d across a cost change; the pool is barely exercised", recycled, confined, fellBack, raised)
	}
}
