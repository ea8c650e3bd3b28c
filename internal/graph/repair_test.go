package graph

import (
	"math"
	"math/rand"
	"testing"
)

// repairCosts are the values edge costs move among: few values, so ties
// are everywhere, and 0.1+0.2 != 0.3, so rounding matters too.
var repairCosts = []float64{0.1, 0.2, 0.3, 1, 2, 3, 5}

// repairTally counts what RepairTree returned across a schedule.
type repairTally struct{ repaired, carried, full int }

// checkTreeRepair builds a random multigraph and a schedule of change
// batches from next (next(k) is a value in [0, k)), and chains each of a
// few origins' trees through RepairTree after every batch, six deep. Each
// repaired or carried tree must equal Arena.DijkstraHeap on the new state
// bit for bit; a nil answer takes a full run, which becomes the next
// base. Graphs have parallel edges and costs starting in {1, 2, 3}.
func checkTreeRepair(t *testing.T, next func(k int) int) repairTally {
	t.Helper()
	n := 4 + next(60)
	g := New(n, 3*n)
	for i := 0; i < n; i++ {
		if next(3) == 0 {
			g.AddVM("", float64(1+next(3)))
		} else {
			g.AddSwitch("")
		}
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(NodeID(v), NodeID(next(v)), float64(1+next(3)))
	}
	for k := next(2 * n); k > 0; k-- {
		u, v := NodeID(next(n)), NodeID(next(n))
		if u == v {
			continue
		}
		c := float64(1 + next(3))
		g.MustAddEdge(u, v, c)
		if next(4) == 0 {
			g.MustAddEdge(v, u, c) // a parallel twin, same cost
		}
	}
	m := g.NumEdges()
	a := NewArena()
	origins := []NodeID{NodeID(next(n)), NodeID(next(n)), NodeID(next(n))}
	trees := make([]*ShortestPaths, len(origins))
	for i, s := range origins {
		trees[i] = a.Dijkstra(g, s)
	}
	var tally repairTally
	for round := 0; round < 6; round++ {
		if next(4) == 0 {
			// A node-cost-only interval.
			for k := 1 + next(3); k > 0; k-- {
				v := NodeID(next(n))
				if g.IsVM(v) {
					g.SetNodeCost(v, g.NodeCost(v)+1)
				}
			}
		} else {
			for k := 1 + next(3); k > 0; k-- {
				e, v := EdgeID(next(m)), NodeID(next(n))
				switch next(13) {
				case 0: // raise
					g.SetEdgeCost(e, repairCosts[next(len(repairCosts))]+g.EdgeCost(e))
				case 1: // lower, or set the same value
					c := repairCosts[next(len(repairCosts))]
					if c > g.EdgeCost(e) {
						c = g.EdgeCost(e)
					}
					g.SetEdgeCost(e, c)
				case 2:
					g.SetEdgeCost(e, repairCosts[next(len(repairCosts))])
				case 3:
					g.FailEdge(e)
				case 4:
					g.RestoreEdge(e)
				case 5:
					g.MaskEdge(e)
				case 6:
					g.UnmaskEdge(e)
				case 7:
					g.FailNode(v)
				case 8:
					g.RestoreNode(v)
				case 9:
					g.MaskNode(v)
				case 10:
					g.UnmaskNode(v)
				case 11:
					if next(8) == 0 {
						g.BumpCostEpoch()
					} else {
						g.RestoreAll()
					}
				case 12:
					if g.IsVM(v) {
						g.SetNodeCost(v, g.NodeCost(v)+1)
					}
				}
			}
		}
		for i, s := range origins {
			want := a.DijkstraHeap(g, s)
			got := a.RepairTree(g, trees[i])
			switch {
			case got == nil:
				tally.full++
				got = a.Dijkstra(g, s)
			case got == trees[i]:
				tally.carried++
			default:
				tally.repaired++
			}
			sameTree(t, "repair", got, want)
			trees[i] = got
		}
	}
	return tally
}

// TestTreeRepairMatchesHeap pins the repair kernel to the heap reference
// over 2,000 seeded schedules, and checks the schedules exercise repairs
// and carries, not only full runs.
func TestTreeRepairMatchesHeap(t *testing.T) {
	var total repairTally
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tl := checkTreeRepair(t, rng.Intn)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
		total.repaired += tl.repaired
		total.carried += tl.carried
		total.full += tl.full
	}
	t.Logf("repaired %d, carried %d, full runs %d", total.repaired, total.carried, total.full)
	if total.repaired < 2000 || total.carried < 1000 {
		t.Fatalf("schedules repaired %d and carried %d trees; too few to pin the kernel", total.repaired, total.carried)
	}
}

// FuzzTreeRepairMatchesHeap drives checkTreeRepair from the fuzzer's
// bytes: each draw reads one byte, and an exhausted input reads zeros.
func FuzzTreeRepairMatchesHeap(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTreeRepair(t, func(k int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % k
		})
	})
}

// TestTreeRepairFallsBack covers the bases RepairTree must refuse: trees
// on zero-cost or absorbed-cost layouts, trees built on such a layout
// and offered after it became zero-free, a tree older than the change
// log holds, another graph's tree, and an interval with an unknown
// change.
func TestTreeRepairFallsBack(t *testing.T) {
	a := NewArena()
	refuse := func(label string, g *Graph, base *ShortestPaths) {
		t.Helper()
		if got := a.RepairTree(g, base); got != nil {
			t.Errorf("%s: RepairTree returned a tree, want nil", label)
		}
	}
	// line is a path with the given costs first, then cost-1 edges up to
	// 24 nodes, so a repair may span 4 epochs and every refusal below has
	// its own cause.
	line := func(costs ...float64) *Graph {
		g := New(24, 23)
		g.AddSwitch("")
		for i := 1; i < 24; i++ {
			g.AddSwitch("")
			c := 1.0
			if i <= len(costs) {
				c = costs[i-1]
			}
			g.MustAddEdge(NodeID(i-1), NodeID(i), c)
		}
		return g
	}

	// A zero-cost layout, before and after a change, and the zero-arc
	// base offered once the layout is zero-free.
	g := line(1, 0, 2, 1)
	base := a.Dijkstra(g, 0)
	refuse("zero-cost base, no change", g, base)
	g.SetEdgeCost(3, 2)
	refuse("zero-cost layout", g, base)
	g.SetEdgeCost(1, 1)
	refuse("zero-arc base on a zero-free layout", g, base)

	// An absorbed cost: 1 vanishes next to 1e17.
	g = line(1e17, 1, 2)
	base = a.Dijkstra(g, 0)
	g.SetEdgeCost(2, 3)
	refuse("absorbed-cost layout", g, base)

	// A tree older than the log holds.
	g = line(1, 2, 3, 1, 2, 3, 1, 2)
	base = a.Dijkstra(g, 0)
	for i := 0; i < 2*repairLimit(g.NumNodes(), repairGapDiv); i++ {
		g.SetEdgeCost(7, float64(2+i%2))
	}
	refuse("tree older than the log", g, base)
	if _, _, covered, _ := g.log.since(base.built.epoch, g.CostEpoch(), nil, nil); covered {
		t.Error("the change log claims to cover an interval it dropped")
	}

	// A clone must not repair its original's tree, nor the reverse.
	g = line(1, 2, 3, 1)
	base = a.Dijkstra(g, 0)
	c := g.Clone()
	refuse("clone repairing its original's tree, no change", c, base)
	c.SetEdgeCost(0, 5)
	refuse("clone repairing its original's tree", c, base)
	refuse("original repairing its clone's tree", g, a.Dijkstra(c, 0))

	// Unknown changes: an explicit bump, RestoreAll and UnmaskAll.
	g = line(1, 2, 3, 1)
	for _, bump := range []func(){
		g.BumpCostEpoch,
		func() { g.FailEdge(2); g.RestoreAll() },
		func() { g.MaskNode(2); g.UnmaskAll() },
	} {
		base = a.Dijkstra(g, 0)
		bump()
		refuse("unknown change", g, base)
	}

	// A heap-built tree is never a base.
	g = line(1, 2, 3, 1)
	base = a.DijkstraHeap(g, 0)
	g.SetEdgeCost(3, 2)
	refuse("heap-built base", g, base)
}

// TestTreeRepairCarries pins the two carries: an origin blocked at the
// base epoch and still blocked, and an interval of node-cost changes
// only. Both return the base pointer itself.
func TestTreeRepairCarries(t *testing.T) {
	a := NewArena()
	g := New(16, 15)
	s := g.AddVM("s", 1)
	v := g.AddVM("v", 1)
	for i := 2; i < 16; i++ {
		g.AddSwitch("")
		g.MustAddEdge(NodeID(i-1), NodeID(i), float64(1+i%3))
	}
	g.MustAddEdge(s, v, 1)

	base := a.Dijkstra(g, s)
	g.SetNodeCost(v, 7)
	if got := a.RepairTree(g, base); got != base {
		t.Fatal("node-cost-only interval: tree not carried")
	}

	g.MaskNode(s)
	blocked := a.Dijkstra(g, s)
	if !math.IsInf(blocked.Dist[s], 1) {
		t.Fatal("blocked origin reaches itself")
	}
	g.SetEdgeCost(1, 3)
	g.FailNode(2)
	if got := a.RepairTree(g, blocked); got != blocked {
		t.Fatal("blocked origin: tree not carried")
	}
	g.UnmaskNode(s)
	if got := a.RepairTree(g, blocked); got != nil {
		t.Fatal("unblocked origin repaired from its blocked tree")
	}
}
