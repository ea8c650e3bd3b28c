package graph

// csrLayout is a compressed-sparse-row view of the adjacency structure:
// the arcs of node u occupy to[row[u]:row[u+1]] / eid[row[u]:row[u+1]],
// in the same order as the adj slices they mirror. Flat slices keep the
// Dijkstra inner loop on two contiguous arrays instead of chasing one
// slice header per node.
//
// The layout captures topology only — edge costs are read live from the
// edge table, so cost mutations (which bump the cost epoch but never
// change the structure) do not invalidate it. It is keyed by the node and
// edge counts: topology can only grow, so the pair identifies it exactly.
type csrLayout struct {
	nodes, edges int
	row          []int32
	to           []int32
	eid          []int32
}

// csr returns the current CSR view, building it on first use and after
// topology growth (a graph still being built, or a clone that gained
// nodes and edges; an Overlay reuses its base's view instead of growing
// it). Concurrent readers are
// safe against each other; like all Graph mutations, AddEdge concurrent
// with readers is not supported.
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
	c := &csrLayout{
		nodes: n,
		edges: len(g.edges),
		row:   make([]int32, n+1),
		to:    make([]int32, 2*len(g.edges)),
		eid:   make([]int32, 2*len(g.edges)),
	}
	idx := int32(0)
	for u := 0; u < n; u++ {
		c.row[u] = idx
		for _, a := range g.adj[u] {
			c.to[idx] = int32(a.To)
			c.eid[idx] = int32(a.Edge)
			idx++
		}
	}
	c.row[n] = idx
	g.csrCache.Store(c)
	return c
}
