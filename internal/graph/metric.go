package graph

// MetricClosure is the complete graph over a node subset of an underlying
// graph, where the distance between two subset members is the shortest-path
// connection cost between them in the underlying graph. It retains the
// shortest-path trees so closure edges can be expanded back into real paths.
//
// The hot paths no longer use it — steiner.KMBWith takes per-terminal
// trees from a PathProvider so they can come from the epoch-keyed oracle
// cache — but it stays as the simple reference form of the closure:
// the triangle-inequality property tests (Lemma 1) and small offline
// analyses are its remaining consumers.
type MetricClosure struct {
	// Terminals are the subset nodes, in the order given at construction.
	Terminals []NodeID
	// Index maps a terminal NodeID to its row in Dist.
	Index map[NodeID]int
	// Dist[i][j] is the shortest-path cost between Terminals[i] and
	// Terminals[j].
	Dist [][]float64
	// Trees[t] is the Dijkstra tree rooted at terminal t.
	Trees map[NodeID]*ShortestPaths
}

// NewMetricClosure computes the metric closure of g over terminals. Each
// terminal contributes one Dijkstra run.
func NewMetricClosure(g *Graph, terminals []NodeID) *MetricClosure {
	mc := &MetricClosure{
		Terminals: append([]NodeID(nil), terminals...),
		Index:     make(map[NodeID]int, len(terminals)),
		Dist:      make([][]float64, len(terminals)),
		Trees:     make(map[NodeID]*ShortestPaths, len(terminals)),
	}
	for i, t := range mc.Terminals {
		mc.Index[t] = i
	}
	for _, t := range mc.Terminals {
		if _, ok := mc.Trees[t]; !ok {
			mc.Trees[t] = Dijkstra(g, t)
		}
	}
	for i, t := range mc.Terminals {
		mc.Dist[i] = make([]float64, len(mc.Terminals))
		sp := mc.Trees[t]
		for j, u := range mc.Terminals {
			mc.Dist[i][j] = sp.Dist[u]
		}
	}
	return mc
}

// Distance returns the closure distance between terminals a and b.
func (mc *MetricClosure) Distance(a, b NodeID) float64 {
	return mc.Dist[mc.Index[a]][mc.Index[b]]
}

// Path expands the closure edge (a,b) into the underlying node path a…b.
func (mc *MetricClosure) Path(a, b NodeID) []NodeID {
	return mc.Trees[a].PathTo(b)
}

// PathEdges expands the closure edge (a,b) into the underlying edge list.
func (mc *MetricClosure) PathEdges(a, b NodeID) []EdgeID {
	return mc.Trees[a].EdgesTo(b)
}
