package steiner

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sof/internal/graph"
)

// MaxExactTerminals bounds the Dreyfus–Wagner DP: masks are over
// (terminals−1) bits, so the DP table has 2^(t−1)·|V| entries.
const MaxExactTerminals = 16

const (
	choiceNone uint8 = iota
	choiceSplit
	choiceRelax
)

type dwChoice struct {
	kind uint8
	sub  uint32
	pred graph.NodeID
	edge graph.EdgeID
}

// Exact computes an optimal Steiner tree with the Dreyfus–Wagner dynamic
// program in O(3^t·V + 2^t·(E log V)). It is intended for small terminal
// sets (tests, small-instance optimality checks); it returns an error when
// len(terminals) exceeds MaxExactTerminals or terminals are disconnected.
func Exact(g *graph.Graph, terminals []graph.NodeID) (*Tree, error) {
	terminals = dedupeTerminals(terminals)
	switch len(terminals) {
	case 0:
		return &Tree{}, nil
	case 1:
		return &Tree{Nodes: []graph.NodeID{terminals[0]}}, nil
	}
	if len(terminals) > MaxExactTerminals {
		return nil, fmt.Errorf("steiner: %d terminals exceeds exact limit %d", len(terminals), MaxExactTerminals)
	}
	root := terminals[0]
	rest := terminals[1:]
	k := len(rest)
	n := g.NumNodes()
	full := uint32(1)<<k - 1

	dp := make([][]float64, full+1)
	ch := make([][]dwChoice, full+1)
	for mask := uint32(1); mask <= full; mask++ {
		dp[mask] = make([]float64, n)
		ch[mask] = make([]dwChoice, n)
		for v := range dp[mask] {
			dp[mask][v] = math.Inf(1)
		}
		if bits.OnesCount32(mask) == 1 {
			i := bits.TrailingZeros32(mask)
			dp[mask][rest[i]] = 0
		} else {
			// Merge phase: split mask into two nonempty halves at v.
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				other := mask ^ sub
				if sub > other {
					continue // each unordered split once
				}
				for v := 0; v < n; v++ {
					c := dp[sub][v] + dp[other][v]
					if c < dp[mask][v] {
						dp[mask][v] = c
						ch[mask][v] = dwChoice{kind: choiceSplit, sub: sub}
					}
				}
			}
		}
		relax(g, dp[mask], ch[mask])
	}
	if math.IsInf(dp[full][root], 1) {
		return nil, fmt.Errorf("steiner: terminals disconnected: %w", graph.ErrDisconnected)
	}

	edgeSet := make(map[graph.EdgeID]bool)
	var rec func(mask uint32, v graph.NodeID)
	rec = func(mask uint32, v graph.NodeID) {
		for {
			c := ch[mask][v]
			switch c.kind {
			case choiceRelax:
				edgeSet[c.edge] = true
				v = c.pred
			case choiceSplit:
				rec(c.sub, v)
				mask ^= c.sub
			default:
				return
			}
		}
	}
	rec(full, root)

	tree := treeFromEdges(g, edgeSet, terminals)
	recost(g, tree)
	if math.Abs(tree.Cost-dp[full][root]) > 1e-6 {
		return nil, fmt.Errorf("steiner: reconstruction cost %v != dp value %v", tree.Cost, dp[full][root])
	}
	return tree, nil
}

// relax runs a Dijkstra phase over dist in place, recording predecessor
// choices for improved nodes.
func relax(g *graph.Graph, dist []float64, ch []dwChoice) {
	q := &dwPQ{pos: make([]int, len(dist))}
	for i := range q.pos {
		q.pos[i] = -1
	}
	for v, d := range dist {
		if !math.IsInf(d, 1) {
			heap.Push(q, dwItem{node: graph.NodeID(v), dist: d})
		}
	}
	done := make([]bool, len(dist))
	for q.Len() > 0 {
		it := heap.Pop(q).(dwItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, a := range g.Adj(u) {
			v := a.To
			if done[v] {
				continue
			}
			nd := dist[u] + g.EdgeCost(a.Edge)
			if nd < dist[v] {
				dist[v] = nd
				ch[v] = dwChoice{kind: choiceRelax, pred: u, edge: a.Edge}
				if q.pos[v] >= 0 {
					q.items[q.pos[v]].dist = nd
					heap.Fix(q, q.pos[v])
				} else {
					heap.Push(q, dwItem{node: v, dist: nd})
				}
			}
		}
	}
}

func treeFromEdges(g *graph.Graph, edgeSet map[graph.EdgeID]bool, terminals []graph.NodeID) *Tree {
	nodeSet := make(map[graph.NodeID]bool)
	for _, t := range terminals {
		nodeSet[t] = true
	}
	tree := &Tree{}
	for e := range edgeSet {
		tree.Edges = append(tree.Edges, e)
		nodeSet[g.Edge(e).U] = true
		nodeSet[g.Edge(e).V] = true
	}
	for n := range nodeSet {
		tree.Nodes = append(tree.Nodes, n)
	}
	normalize(tree)
	return tree
}

func normalize(t *Tree) {
	sort.Slice(t.Nodes, func(i, j int) bool { return t.Nodes[i] < t.Nodes[j] })
	sort.Slice(t.Edges, func(i, j int) bool { return t.Edges[i] < t.Edges[j] })
}

func recost(g EdgeSource, t *Tree) {
	t.Cost = 0
	for _, e := range t.Edges {
		t.Cost += g.Edge(e).Cost
	}
}

type dwItem struct {
	node graph.NodeID
	dist float64
}

type dwPQ struct {
	items []dwItem
	pos   []int
}

func (q *dwPQ) Len() int           { return len(q.items) }
func (q *dwPQ) Less(i, j int) bool { return q.items[i].dist < q.items[j].dist }
func (q *dwPQ) Push(x interface{}) {
	it := x.(dwItem)
	q.pos[it.node] = len(q.items)
	q.items = append(q.items, it)
}
func (q *dwPQ) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i].node] = i
	q.pos[q.items[j].node] = j
}
func (q *dwPQ) Pop() interface{} {
	it := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	q.pos[it.node] = -1
	return it
}
