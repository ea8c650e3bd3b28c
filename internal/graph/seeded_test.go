package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// blockedMultigraph is randomMultigraph plus two isolated nodes (targets
// no run can reach) and, on most seeds, failed and capacity-masked edges
// and nodes.
func blockedMultigraph(seed int64) *Graph {
	g := randomMultigraph(seed)
	g.AddSwitch("")
	g.AddSwitch("")
	if seed%4 != 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x7e7e))
		for i := 0; i < 3; i++ {
			g.FailEdge(EdgeID(rng.Intn(g.NumEdges())))
			g.MaskEdge(EdgeID(rng.Intn(g.NumEdges())))
		}
		g.FailNode(NodeID(rng.Intn(g.NumNodes())))
		g.MaskNode(NodeID(rng.Intn(g.NumNodes())))
	}
	return g
}

// zeroFree raises g's zero costs to 1, so seeded runs take g.
func zeroFree(g *Graph) *Graph {
	for e := 0; e < g.NumEdges(); e++ {
		if g.EdgeCost(EdgeID(e)) == 0 {
			g.SetEdgeCost(EdgeID(e), 1)
		}
	}
	return g
}

// unreachedRows returns result arrays of n rows, all +Inf/NoEdge.
func unreachedRows(src NodeID, n int) *ShortestPaths {
	sp := newShortestPaths(src, n)
	for i := range sp.Dist {
		sp.Dist[i], sp.ParentEdge[i] = math.Inf(1), NoEdge
	}
	return sp
}

// plainSeeded is a seeded run from src alone, at distance 0 without a
// parent: the single-source run, truncated at targets.
func plainSeeded(t *testing.T, a *Arena, g *Graph, src NodeID, targets []NodeID) *ShortestPaths {
	t.Helper()
	sp := unreachedRows(src, g.NumNodes())
	sp.Dist[src] = 0
	if !a.DijkstraSeeded(NewOverlay(g), sp, []NodeID{src}, targets) {
		t.Fatal("seeded run refused a zero-free graph")
	}
	return sp
}

// checkTruncated pins a truncated seeded run against the full run over
// the same instance, at g's nodes. Every node the truncated run settled
// carries the full run's Dist and ParentEdge; every other node reads
// +Inf/NoEdge. Every reachable target is settled, and the
// settled set is a prefix of whole buckets: it holds every node strictly
// closer than the farthest target and nothing past that target's bucket.
// It reports whether the run stopped before settling everything
// reachable.
func checkTruncated(t *testing.T, label string, g *Graph, got, full *ShortestPaths, targets []NodeID) bool {
	t.Helper()
	inv := 1 / pick(g).delta
	stop := math.Inf(-1)
	for _, tg := range targets {
		if full.Reachable(tg) && !got.Reachable(tg) {
			t.Fatalf("%s: reachable target %d left unsettled", label, tg)
		}
		if full.Dist[tg] > stop {
			stop = full.Dist[tg]
		}
	}
	truncated := false
	for v := 0; v < g.NumNodes(); v++ {
		if got.Reachable(NodeID(v)) {
			if got.Dist[v] != full.Dist[v] || got.ParentEdge[v] != full.ParentEdge[v] {
				t.Fatalf("%s node %d: truncated (%v,%d) != full (%v,%d)", label, v,
					got.Dist[v], got.ParentEdge[v], full.Dist[v], full.ParentEdge[v])
			}
			if full.Dist[v] > stop && int64(full.Dist[v]*inv) > int64(stop*inv) {
				t.Fatalf("%s: node %d at %v settled past the farthest target's bucket, at %v", label, v, full.Dist[v], stop)
			}
			continue
		}
		if got.ParentEdge[v] != NoEdge {
			t.Fatalf("%s: unsettled node %d kept parent edge %d", label, v, got.ParentEdge[v])
		}
		if full.Reachable(NodeID(v)) {
			truncated = true
			if full.Dist[v] < stop {
				t.Fatalf("%s: node %d at %v left unsettled below the farthest target at %v", label, v, full.Dist[v], stop)
			}
		}
	}
	return truncated
}

// TestSeededTruncationMatchesFullRun drives the truncated seeded run
// from a single source over random zero-free multigraphs (parallel edges,
// many exact ties) with failed and masked elements, blocked sources,
// unreachable and duplicate targets, all through one arena so every run
// starts from the previous run's abandoned calendar and target stamps.
func TestSeededTruncationMatchesFullRun(t *testing.T) {
	arena := NewArena()
	truncated, blockedSources := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		g := zeroFree(blockedMultigraph(seed))
		rng := rand.New(rand.NewSource(seed ^ 0x1d1d))
		n := g.NumNodes()
		for trial := 0; trial < 8; trial++ {
			src := NodeID(rng.Intn(n))
			targets := make([]NodeID, 1+rng.Intn(4))
			for i := range targets {
				targets[i] = NodeID(rng.Intn(n))
			}
			switch trial % 4 {
			case 1:
				targets = append(targets, targets[0]) // duplicate
			case 2:
				targets = append(targets, NodeID(n-1)) // isolated: runs to completion
			}
			label := fmt.Sprintf("seed %d src %d", seed, src)
			full := NewArena().Dijkstra(g, src)
			got := plainSeeded(t, arena, g, src, targets)
			if checkTruncated(t, label, g, got, full, targets) {
				truncated++
			}
			verifyTree(t, g, got)
			if g.Blocked().NodeFailed(src) {
				blockedSources++
				sameTree(t, label+" blocked source", got, full)
			}
			if trial%4 == 2 {
				sameTree(t, label+" unreachable target", got, full)
			}
		}
		pooled := unreachedRows(0, n)
		pooled.Dist[0] = 0
		if !DijkstraSeeded(NewOverlay(g), pooled, []NodeID{0}, []NodeID{1}) {
			t.Fatalf("seed %d: pooled seeded run refused a zero-free graph", seed)
		}
		if want := plainSeeded(t, arena, g, 0, []NodeID{1}); !reflect.DeepEqual(pooled, want) {
			t.Fatalf("seed %d: pooled DijkstraSeeded differs from the arena form", seed)
		}
	}
	if truncated < 100 {
		t.Fatalf("only %d runs stopped early; the truncation is barely exercised", truncated)
	}
	if blockedSources == 0 {
		t.Fatal("no run started from a blocked source")
	}
}

// TestSeededSourceAndEmptyTargets covers the edges of the seeded run's
// contract: an empty target list is a full run; the source as its own
// only target settles nothing past its own bucket; and a run is refused,
// with sp untouched, on a graph with a zero-cost arc or without a bucket
// width, from a seed far enough out to absorb an arc, and from one whose
// bucket index would leave int64.
func TestSeededSourceAndEmptyTargets(t *testing.T) {
	g := zeroFree(randomMultigraph(3))
	a := NewArena()
	full := Dijkstra(g, 2)
	sameTree(t, "empty targets", plainSeeded(t, a, g, 2, nil), full)
	got := plainSeeded(t, a, g, 2, []NodeID{2})
	inv := 1 / pick(g).delta
	for v := 0; v < g.NumNodes(); v++ {
		if v != 2 && got.Reachable(NodeID(v)) && int64(full.Dist[v]*inv) > 0 {
			t.Fatalf("node %d settled past the bucket of the run's only target, its source", v)
		}
	}
	if got.Dist[2] != 0 || got.ParentEdge[2] != NoEdge {
		t.Fatalf("source entry = (%v,%d), want (0,NoEdge)", got.Dist[2], got.ParentEdge[2])
	}

	for _, c := range []struct {
		name string
		g    *Graph
		d    float64 // the seed's distance
	}{
		{"zero-cost arc", randomMultigraph(3), 0},
		{"+Inf cost", func() *Graph {
			g := zeroFree(randomMultigraph(3))
			g.SetEdgeCost(0, math.Inf(1))
			return g
		}(), 0},
		// Half an ulp of 1e17 is 8, and the graph's cheapest arc costs 1.
		{"seed absorbs an arc", zeroFree(randomMultigraph(3)), 1e17},
		// One live arc of cost 1.5 beside 400 failed near-zero ones: the
		// width sits at its floor 1.5/1,022, half an ulp of 1.5e16 is 1, so
		// no arc is absorbed, but 1.5e16/Δ is past 2^63.
		{"seed past the bucket indices", func() *Graph {
			g := New(4, 401)
			for i := 0; i < 4; i++ {
				g.AddSwitch("")
			}
			g.MustAddEdge(2, 3, 1.5)
			for i := 0; i < 400; i++ {
				g.FailEdge(g.MustAddEdge(0, 1, 1e-9))
			}
			return g
		}(), 1.5e16},
	} {
		sp := unreachedRows(2, c.g.NumNodes())
		sp.Dist[2] = c.d
		want := unreachedRows(2, c.g.NumNodes())
		want.Dist[2] = c.d
		if a.DijkstraSeeded(NewOverlay(c.g), sp, []NodeID{2}, nil) {
			t.Errorf("%s: seeded run ran", c.name)
		}
		if !reflect.DeepEqual(sp, want) {
			t.Errorf("%s: refused seeded run touched its rows", c.name)
		}
	}
}

// TestSeededTruncationLeavesArenaClean: after a truncated seeded run
// stops with entries still queued and seeds not yet admitted, the same
// arena's next full run — heap or delta — on another graph is
// bit-identical to one on a fresh arena.
func TestSeededTruncationLeavesArenaClean(t *testing.T) {
	for _, v := range []struct {
		name string
		run  func(a *Arena, g *Graph, src NodeID) *ShortestPaths
	}{
		{"heap", (*Arena).DijkstraHeap},
		{"delta", (*Arena).Dijkstra},
	} {
		arena := NewArena()
		for seed := int64(0); seed < 20; seed++ {
			g := zeroFree(blockedMultigraph(seed))
			other := blockedMultigraph(seed + 100)
			n := g.NumNodes()
			for src := 0; src < n; src += 3 {
				if src%2 == 0 {
					plainSeeded(t, arena, g, NodeID(src), []NodeID{NodeID((src + 1) % n)})
				} else {
					c := seededCase(seed*64+int64(src), seededRegimes[2]) // spread: seeds left unadmitted
					sp, seeds := c.rows()
					arena.DijkstraSeeded(c.ov, sp, seeds, c.targets)
				}
				next := NodeID((src + 5) % other.NumNodes())
				got := v.run(arena, other, next)
				want := v.run(NewArena(), other, next)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d: full run after a truncated one differs from a fresh arena's", v.name, seed)
				}
			}
		}
	}
}

// gHat is a Ĝ-shaped instance: a network, and the overlay SOFDA's Steiner
// phase builds on it. The overlay holds ŝ and one duplicate v̂ per source,
// hung off ŝ by a zero-cost edge; then either one duplicate û per VM with
// a zero-cost edge û–u and candidate edges v̂–û, or, at chain length 0,
// zero-cost edges v̂–s. targets are network nodes to truncate at.
type gHat struct {
	ov      *Overlay
	sHat    NodeID
	targets []NodeID
}

// gHatCand is a candidate edge between the duplicates of sources[src] and
// vms[vm].
type gHatCand struct {
	src, vm int
	cost    float64
}

// buildGHat appends Ĝ to g in the order core's skeleton and candidates
// do; nil vms builds the chain-length-0 shape.
func buildGHat(g *Graph, sources, vms []NodeID, cands []gHatCand) gHat {
	ov := NewOverlay(g)
	sHat := ov.AddSwitch()
	dup := make([]NodeID, len(sources))
	for i := range sources {
		dup[i] = ov.AddSwitch()
		ov.MustAddEdge(sHat, dup[i], 0)
	}
	if vms == nil {
		for i, s := range sources {
			ov.MustAddEdge(dup[i], s, 0)
		}
		return gHat{ov: ov, sHat: sHat}
	}
	vdup := make([]NodeID, len(vms))
	for i, u := range vms {
		vdup[i] = ov.AddSwitch()
		ov.MustAddEdge(vdup[i], u, 0)
	}
	for _, c := range cands {
		ov.MustAddEdge(dup[c.src], vdup[c.vm], c.cost)
	}
	return gHat{ov: ov, sHat: sHat}
}

// rows writes Ĝ's rows as core's Steiner phase does before its seeded
// run: ŝ at 0; each v̂ at 0 below ŝ; each û at its cheapest candidate,
// the first one met scanning v̂ in id order and each v̂'s arcs in
// insertion order; and each network node hanging off a reached duplicate
// as a seed at the duplicate's distance. It returns the rows and the
// seeds.
func (h gHat) rows() (*ShortestPaths, []NodeID) {
	ov, n0 := h.ov, h.ov.n0
	sp := unreachedRows(h.sHat, ov.NumNodes())
	sp.Dist[h.sHat] = 0
	for _, a := range ov.appended(h.sHat) {
		sp.Dist[a.To], sp.ParentEdge[a.To] = 0, a.Edge
	}
	for _, a := range ov.appended(h.sHat) {
		for _, b := range ov.appended(a.To) {
			if b.To == h.sHat || int(b.To) < n0 {
				continue
			}
			if c := ov.Edge(b.Edge).Cost; c < sp.Dist[b.To] {
				sp.Dist[b.To], sp.ParentEdge[b.To] = c, b.Edge
			}
		}
	}
	var seeds []NodeID
	for x := h.sHat + 1; int(x) < ov.NumNodes(); x++ {
		if math.IsInf(sp.Dist[x], 1) {
			continue
		}
		for _, b := range ov.appended(x) {
			if int(b.To) < n0 {
				sp.Dist[b.To], sp.ParentEdge[b.To] = sp.Dist[x], b.Edge
				seeds = append(seeds, b.To)
			}
		}
	}
	return sp, seeds
}

// finish completes a full seeded run's rows: a duplicate whose network
// node the run reached at a smaller distance takes that distance, with
// the node as its parent.
func (h gHat) finish(sp *ShortestPaths) {
	for x := h.sHat + 1; int(x) < h.ov.NumNodes(); x++ {
		for _, b := range h.ov.appended(x) {
			if int(b.To) < h.ov.n0 && sp.Dist[b.To] < sp.Dist[x] {
				sp.Dist[x], sp.ParentEdge[x] = sp.Dist[b.To], b.Edge
			}
		}
	}
}

// seededRegime is a cost regime of the seeded-run tests; each exposes a
// different rule of the run.
type seededRegime struct {
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

var seededRegimes = []seededRegime{
	// Few mixed float costs: many exact ties between a seed and a network
	// node at one distance, which the rank rule orders.
	{name: "mixed", links: mixedLinks, cand: chainCost},
	// Wide buckets: a bucket spans several unit arcs, so a seed can relax
	// before a tie in its own bucket drops its rank, and is queued again.
	{name: "wide", links: wideLinks, cand: smallCost},
	// Candidate costs spread over several calendar laps (a lap is 1,024
	// buckets of about 3.2), on a network of three components, so a seed
	// many laps out owns a component and its targets: lazy admission and
	// the truncation's reset of seeds not yet admitted.
	{name: "spread", links: wideLinks, parts: 3, cand: func(rng *rand.Rand, _ []float64) float64 {
		return float64(rng.Intn(20001))
	}},
	// Provoked ties, under both link-cost sets. With wide buckets they
	// make the re-queue decide parents: a network node below a seed whose
	// rank dropped.
	{name: "mixed ties", links: mixedLinks, cand: chainCost, ties: true},
	{name: "wide ties", links: wideLinks, cand: smallCost, ties: true},
	// Candidate costs of 1e12, 1e17 and 1e300 now and then, the cost of a
	// chain through a VM whose setup cost is that large, beside unit links
	// on three components. Half an ulp of 1e12 is far below a unit arc, so
	// a seed there runs, and owns its component; a seed at 1e17 absorbs
	// unit arcs, and 1e300 is past every bucket index, so both are refused.
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
}

var (
	mixedLinks = []float64{0.1, 0.2, 0.3, 1, 2, 3, 5}
	wideLinks  = []float64{1, 1, 1, 1, 1, 1, 1, 200}
)

// smallCost draws an integer candidate cost under 24.
func smallCost(rng *rand.Rand, _ []float64) float64 { return float64(rng.Intn(24)) }

// regimeGraph draws a random multigraph with link costs from links over
// max(parts, 1) components (node i joins component i mod parts), with
// parallel edges of equal and of different cost, an isolated node, and
// on most draws failed and masked edges and nodes.
func regimeGraph(rng *rand.Rand, links []float64, parts int) *Graph {
	parts = max(parts, 1)
	n := 8 + rng.Intn(40)
	g := New(n+1, 4*n)
	for i := 0; i <= n; i++ {
		g.AddSwitch("")
	}
	cost := func() float64 { return links[rng.Intn(len(links))] }
	// peer draws a node of v's component other than v, below limit.
	peer := func(v, limit int) NodeID {
		return NodeID(v%parts + parts*rng.Intn((limit-v%parts+parts-1)/parts))
	}
	for i := parts; i < n; i++ {
		g.MustAddEdge(NodeID(i), peer(i, i), cost())
	}
	for k := 0; k < 2*n; k++ {
		u := rng.Intn(n)
		v := peer(u, n)
		if NodeID(u) == v {
			continue
		}
		c := cost()
		g.MustAddEdge(NodeID(u), v, c)
		if rng.Intn(4) == 0 {
			g.MustAddEdge(NodeID(u), v, c)
		}
	}
	if rng.Intn(3) > 0 {
		for i := 0; i < 2; i++ {
			g.FailEdge(EdgeID(rng.Intn(g.NumEdges())))
			g.MaskEdge(EdgeID(rng.Intn(g.NumEdges())))
		}
		g.FailNode(NodeID(rng.Intn(n)))
		g.MaskNode(NodeID(rng.Intn(n)))
	}
	return g
}

// seededCase draws a Ĝ-shaped instance from seed under reg: 1–3 sources,
// up to 12 VMs (one draw in six the chain-length-0 shape instead), a
// candidate for most (source, VM) pairs, some of them twice, and 0–4
// targets, duplicates and the isolated node among them.
func seededCase(seed int64, reg seededRegime) gHat {
	rng := rand.New(rand.NewSource(seed))
	g := regimeGraph(rng, reg.links, reg.parts)
	n := g.NumNodes() - 1
	perm := rng.Perm(n)
	sources := make([]NodeID, 1+rng.Intn(3))
	for i := range sources {
		sources[i] = NodeID(perm[i])
	}
	var h gHat
	if rng.Intn(6) == 0 {
		h = buildGHat(g, sources, nil, nil)
	} else {
		vms := make([]NodeID, 1+rng.Intn(min(n, 12)))
		for i, p := range rng.Perm(n)[:len(vms)] {
			vms[i] = NodeID(p)
		}
		var cands []gHatCand
		for s := range sources {
			for u := range vms {
				if reg.ties && u%2 == 1 || rng.Intn(5) == 0 {
					continue
				}
				c := gHatCand{src: s, vm: u, cost: reg.cand(rng, reg.links)}
				cands = append(cands, c)
				if rng.Intn(8) == 0 {
					cands = append(cands, c)
				}
			}
		}
		if reg.ties {
			// The odd VMs' candidates cost exactly their distance from the
			// even VMs' seeds.
			even := buildGHat(g, sources, vms, cands)
			d := even.ov.Dijkstra(even.sHat)
			for u := 1; u < len(vms); u += 2 {
				if dist := d.Dist[vms[u]]; !math.IsInf(dist, 1) {
					cands = append(cands, gHatCand{src: rng.Intn(len(sources)), vm: u, cost: dist})
				}
			}
		}
		h = buildGHat(g, sources, vms, cands)
	}
	for k := rng.Intn(5); k > 0; k-- {
		h.targets = append(h.targets, NodeID(rng.Intn(n)))
	}
	switch rng.Intn(6) {
	case 0:
		if len(h.targets) > 0 {
			h.targets = append(h.targets, h.targets[0])
		}
	case 1:
		h.targets = append(h.targets, NodeID(n)) // isolated: runs to completion
	}
	return h
}

// checkSeeded runs h's seeded run on a, once to completion and once
// truncated at h's targets, against the heap's full run over h's overlay:
// the full seeded run, finished, must equal it at every row, appended
// ones included; the truncated run must be exact wherever it settled (see
// checkTruncated). Every regime's links cost at least 0.1 and sum to
// under 10^4, so the run must be refused, with its rows untouched,
// exactly when an unblocked seed lies at 1e17 or past. It reports whether
// the run was refused, and whether the truncated run stopped early.
func checkSeeded(t *testing.T, label string, a *Arena, h gHat) (refused, truncated bool) {
	t.Helper()
	g := h.ov.base
	want := h.ov.dijkstra(NewArena(), h.sHat)
	sp, seeds := h.rows()
	for _, s := range seeds {
		refused = refused || !g.Blocked().NodeFailed(s) && sp.Dist[s] >= 1e17
	}
	if a.DijkstraSeeded(h.ov, sp, seeds, nil) == refused {
		t.Fatalf("%s: seeded run ran: %v, want %v", label, refused, !refused)
	}
	if refused {
		if untouched, _ := h.rows(); !reflect.DeepEqual(sp, untouched) {
			t.Fatalf("%s: refused seeded run touched its rows", label)
		}
		return true, false
	}
	h.finish(sp)
	sameTree(t, label+" full", sp, want)
	if len(h.targets) == 0 {
		return false, false
	}
	sp, seeds = h.rows()
	a.DijkstraSeeded(h.ov, sp, seeds, h.targets)
	return false, checkTruncated(t, label+" truncated", g, sp, want, h.targets)
}

// TestSeededRunMatchesHeap pins the seeded run to the heap's run over a
// Ĝ-shaped overlay, under every cost regime of seededRegimes, through one
// arena: Dist bits and ParentEdge at every row of a full run, and
// at every node a truncated run settled.
func TestSeededRunMatchesHeap(t *testing.T) {
	a := NewArena()
	for _, reg := range seededRegimes {
		refused, truncated := 0, 0
		for seed := int64(0); seed < 1500; seed++ {
			r, tr := checkSeeded(t, fmt.Sprintf("%s seed %d", reg.name, seed), a, seededCase(seed, reg))
			if r {
				refused++
			}
			if tr {
				truncated++
			}
		}
		t.Logf("%s: %d refused, %d truncated", reg.name, refused, truncated)
		if truncated < 300 {
			t.Fatalf("%s: only %d runs stopped early; the truncation is barely exercised", reg.name, truncated)
		}
		if reg.name == "huge" && refused < 100 {
			t.Fatalf("huge: only %d runs were refused; the far-seed check is barely exercised", refused)
		}
	}
}

// FuzzSeededRunMatchesHeap is TestSeededRunMatchesHeap over the fuzzer's
// instance seeds and regimes.
func FuzzSeededRunMatchesHeap(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	a := NewArena()
	f.Fuzz(func(t *testing.T, seed int64, regime uint8) {
		reg := seededRegimes[int(regime)%len(seededRegimes)]
		checkSeeded(t, fmt.Sprintf("%s seed %d", reg.name, seed), a, seededCase(seed, reg))
	})
}
