package graph

// csrLayout is the graph's adjacency, in compressed-sparse-row form: the
// arcs of node u are arcs[row[u]:row[u+1]], in edge-id order, which is
// the order AddEdge adds them. It is derived from the edge table alone,
// and it is the only adjacency a graph keeps: Adj hands out views of it,
// and the shortest-path hot loops range over one contiguous array
// instead of chasing one slice header per node.
//
// The layout captures topology only — edge costs are read live from the
// edge table, so cost mutations (which bump the cost epoch but never
// change the structure) do not invalidate it. It is keyed by the node and
// edge counts: topology can only grow, so the pair identifies it exactly.
type csrLayout struct {
	nodes, edges int
	row          []int32
	arcs         []Arc
}

// csr returns the current layout, building it on first use and after
// topology growth (a graph still being built, or a clone that gained
// nodes and edges; an Overlay reuses its base's layout instead of
// growing it). Concurrent readers are safe against each other; like all
// Graph mutations, AddEdge concurrent with readers is not supported.
func (g *Graph) csr() *csrLayout {
	if c := g.csrCache.Load(); c != nil && c.nodes == len(g.nodes) && c.edges == len(g.edges) {
		return c
	}
	g.csrMu.Lock()
	defer g.csrMu.Unlock()
	if c := g.csrCache.Load(); c != nil && c.nodes == len(g.nodes) && c.edges == len(g.edges) {
		return c
	}
	n := len(g.nodes)
	// Count node u's arcs at row[u+2], so that after the prefix sum
	// row[u+1] is u's first slot; placing u's arcs then advances it to
	// u's end, which is u+1's first slot.
	row := make([]int32, n+2)
	for _, e := range g.edges {
		row[e.U+2]++
		row[e.V+2]++
	}
	for u := 2; u < n+2; u++ {
		row[u] += row[u-1]
	}
	arcs := make([]Arc, 2*len(g.edges))
	for id, e := range g.edges {
		arcs[row[e.U+1]] = Arc{To: e.V, Edge: EdgeID(id)}
		row[e.U+1]++
		arcs[row[e.V+1]] = Arc{To: e.U, Edge: EdgeID(id)}
		row[e.V+1]++
	}
	c := &csrLayout{nodes: n, edges: len(g.edges), row: row[:n+1], arcs: arcs}
	g.csrCache.Store(c)
	return c
}
