// Ablation benchmark for one design choice: the k-stroll solver (exact DP
// vs cheapest-insertion). The Steiner subroutine's (KMB vs exact) lives in
// internal/steiner.
package sof

import (
	"math"
	"math/rand"
	"testing"

	"sof/internal/kstroll"
)

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
