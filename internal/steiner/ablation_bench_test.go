package steiner

import (
	"math/rand"
	"testing"

	"sof/internal/graph"
)

func ablationGraph(seed int64) (*graph.Graph, []graph.NodeID) {
	g := graph.RandomConnected(graph.RandomConfig{
		Nodes: 60, ExtraEdges: 90, VMFraction: 0.3, MaxEdge: 10, MaxSetup: 5,
	}, seed)
	rng := rand.New(rand.NewSource(seed))
	pool := make([]graph.NodeID, g.NumNodes())
	for i := range pool {
		pool[i] = graph.NodeID(i)
	}
	return g, graph.SampleDistinct(rng, pool, 8)
}

// BenchmarkAblationSteiner compares the Steiner subroutines on identical
// instances, reporting average tree cost.
func BenchmarkAblationSteiner(b *testing.B) {
	type solver struct {
		name string
		run  func(*graph.Graph, []graph.NodeID) (*Tree, error)
	}
	for _, s := range []solver{
		{"KMB", KMB},
		{"Exact", Exact},
	} {
		b.Run(s.name, func(b *testing.B) {
			var costSum float64
			for i := 0; i < b.N; i++ {
				g, terms := ablationGraph(int64(i % 16))
				tr, err := s.run(g, terms)
				if err != nil {
					b.Fatal(err)
				}
				costSum += tr.Cost
			}
			b.ReportMetric(costSum/float64(b.N), "tree-cost")
		})
	}
}
