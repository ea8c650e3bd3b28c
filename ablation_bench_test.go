// Ablation benchmarks for two design choices: the Steiner subroutine
// (KMB vs exact) and the k-stroll solver (exact DP vs cheapest-insertion).
package sof

import (
	"math"
	"math/rand"
	"testing"

	"sof/internal/graph"
	"sof/internal/kstroll"
	"sof/internal/steiner"
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
		run  func(*graph.Graph, []graph.NodeID) (*steiner.Tree, error)
	}
	for _, s := range []solver{
		{"KMB", steiner.KMB},
		{"Exact", steiner.Exact},
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

func ablationStrollInstance(seed int64) *kstroll.Instance {
	rng := rand.New(rand.NewSource(seed))
	const n = 14
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			cost[i][j] = math.Sqrt(dx*dx + dy*dy)
		}
	}
	return &kstroll.Instance{N: n, Cost: cost, Start: 0, End: n - 1, K: 6}
}

// BenchmarkAblationKStroll compares the k-stroll solvers on identical
// metric instances, reporting average walk cost.
func BenchmarkAblationKStroll(b *testing.B) {
	for _, s := range []kstroll.Solver{
		&kstroll.ExactSolver{},
		&kstroll.InsertionSolver{},
	} {
		b.Run(s.Name(), func(b *testing.B) {
			var costSum float64
			for i := 0; i < b.N; i++ {
				in := ablationStrollInstance(int64(i % 16))
				w, err := s.Solve(in)
				if err != nil {
					b.Fatal(err)
				}
				costSum += w.Cost
			}
			b.ReportMetric(costSum/float64(b.N), "walk-cost")
		})
	}
}
