package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sof/internal/graph"
)

// closureMST is the reference destClosure.mst is pinned to: the MST cost
// of the metric closure over {u} ∪ dests by a linear-scan Prim over
// nodes = [u, dests...] that reads each pair from a map of the
// destinations' trees, from the tree of the node just added, or from the
// destination's tree when that node is u.
func closureMST(u graph.NodeID, dests []graph.NodeID, destTrees map[graph.NodeID]*graph.ShortestPaths) float64 {
	nodes := append([]graph.NodeID{u}, dests...)
	const inf = math.MaxFloat64
	inTree := make([]bool, len(nodes))
	minCost := make([]float64, len(nodes))
	for i := range minCost {
		minCost[i] = inf
	}
	minCost[0] = 0
	total := 0.0
	dist := func(i, j int) float64 {
		// At least one of the pair is a destination with a full tree.
		if i > 0 {
			return destTrees[nodes[i]].Dist[nodes[j]]
		}
		return destTrees[nodes[j]].Dist[nodes[i]]
	}
	for iter := 0; iter < len(nodes); iter++ {
		best := -1
		for i := range nodes {
			if !inTree[i] && (best < 0 || minCost[i] < minCost[best]) {
				best = i
			}
		}
		inTree[best] = true
		if minCost[best] < inf {
			total += minCost[best]
		}
		for i := range nodes {
			if !inTree[i] {
				if d := dist(best, i); d < minCost[i] {
					minCost[i] = d
				}
			}
		}
	}
	return total
}

// closureNet is a random connected network with float costs, so a path
// sums to different last bits from its two ends, plus a small path of
// nodes no other node reaches, so some destination pairs are +Inf apart.
func closureNet(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnected(graph.RandomConfig{
		Nodes: 12 + rng.Intn(30), ExtraEdges: rng.Intn(40), VMFraction: 0.3, MaxEdge: 7, MaxSetup: 5,
	}, seed)
	prev := g.AddSwitch("")
	for range rng.Intn(4) {
		n := g.AddSwitch("")
		g.MustAddEdge(prev, n, 0.1+rng.Float64())
		prev = n
	}
	return g
}

// TestDestClosureMatchesClosureMST pins destClosure's MST and far to the
// map-based reference, bit for bit, for every node as u: destinations
// with duplicates, u equal to a destination, and +Inf pairs between the
// network and the unreachable path, including u on it.
func TestDestClosureMatchesClosureMST(t *testing.T) {
	var dup, inf, asym, same int
	for seed := int64(0); seed < 60; seed++ {
		g := closureNet(seed)
		rng := rand.New(rand.NewSource(^seed))
		n := g.NumNodes()
		dests := make([]graph.NodeID, 1+rng.Intn(8))
		for i := range dests {
			dests[i] = graph.NodeID(rng.Intn(n))
		}
		if seed%2 == 0 {
			dests = append(dests, dests[rng.Intn(len(dests))])
		}
		destTrees := make(map[graph.NodeID]*graph.ShortestPaths)
		trees := make([]*graph.ShortestPaths, len(dests))
		for i, d := range dests {
			if _, ok := destTrees[d]; !ok {
				destTrees[d] = graph.Dijkstra(g, d)
			} else {
				dup++
			}
			trees[i] = destTrees[d]
		}
		for _, a := range dests {
			for _, b := range dests {
				ab, ba := destTrees[a].Dist[b], destTrees[b].Dist[a]
				if math.IsInf(ab, 1) {
					inf++
				} else if ab != ba {
					asym++
				}
			}
		}
		c := newDestClosure(dests, trees)
		for u := graph.NodeID(0); int(u) < n; u++ {
			if slices.Contains(dests, u) {
				same++
			}
			want, wantFar := closureMST(u, dests, destTrees), 0.0
			for _, d := range dests {
				wantFar = max(wantFar, destTrees[d].Dist[u])
			}
			got, far := c.mst(u)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(far) != math.Float64bits(wantFar) {
				t.Fatalf("seed %d u=%d dests %v: mst %v far %v, reference %v and %v", seed, u, dests, got, far, want, wantFar)
			}
		}
	}
	if dup == 0 || inf == 0 || asym == 0 || same == 0 {
		t.Fatalf("near-vacuous: %d duplicate destinations, %d +Inf pairs, %d pairs apart in their last bits, %d u at a destination",
			dup, inf, asym, same)
	}
}
