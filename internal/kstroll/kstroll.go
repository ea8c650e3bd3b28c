// Package kstroll solves the k-stroll problem (Definition 2 of the paper):
// given a weighted graph and two nodes s and u, find the cheapest walk from
// s to u that visits at least k distinct nodes.
//
// Instances produced by the chain package are metric (Lemma 1), so an
// optimal walk can always be shortcut into a simple path with exactly k
// nodes; all solvers here therefore search over simple paths.
//
// The paper invokes the 2-approximation of Chaudhuri et al. [29] as a black
// box. This package substitutes:
//
//   - ExactSolver: Held–Karp-style DP over the subsets a K-stroll reaches,
//     optimal, for small instances;
//   - InsertionSolver: cheapest insertion + 2-opt/or-opt/node-swap local
//     search, fast, validated against ExactSolver in tests;
//   - Auto: picks ExactSolver when feasible, InsertionSolver otherwise.
package kstroll

import (
	"errors"
	"fmt"
	"math"
)

// Instance is a dense symmetric k-stroll instance over nodes 0..N-1.
type Instance struct {
	N    int
	Cost [][]float64 // Cost[i][j] = Cost[j][i], Cost[i][i] = 0
	// Start and End are the walk endpoints (s and the last VM u).
	Start, End int
	// K is the number of distinct nodes the walk must visit, including
	// Start and End.
	K int
}

// Walk is a solution: a simple path visiting exactly K distinct nodes.
type Walk struct {
	Seq  []int // node indices, Seq[0]=Start, Seq[len-1]=End
	Cost float64
}

// ErrInfeasible is returned when no walk with the required number of
// distinct nodes exists.
var ErrInfeasible = errors.New("kstroll: infeasible instance")

// Validate checks structural sanity of the instance.
func (in *Instance) Validate() error {
	if in.N < 1 {
		return fmt.Errorf("kstroll: N=%d", in.N)
	}
	if len(in.Cost) != in.N {
		return fmt.Errorf("kstroll: cost matrix has %d rows, want %d", len(in.Cost), in.N)
	}
	for i, row := range in.Cost {
		if len(row) != in.N {
			return fmt.Errorf("kstroll: row %d has %d entries, want %d", i, len(row), in.N)
		}
		for j, c := range row {
			if math.IsNaN(c) || c < 0 {
				return fmt.Errorf("kstroll: bad cost [%d][%d]=%v", i, j, c)
			}
			if math.Abs(c-in.Cost[j][i]) > 1e-9 {
				return fmt.Errorf("kstroll: asymmetric cost at [%d][%d]", i, j)
			}
		}
	}
	if in.Start < 0 || in.Start >= in.N || in.End < 0 || in.End >= in.N {
		return fmt.Errorf("kstroll: endpoints (%d,%d) out of range", in.Start, in.End)
	}
	if in.K < 1 || in.K > in.N {
		return fmt.Errorf("kstroll: K=%d with N=%d: %w", in.K, in.N, ErrInfeasible)
	}
	if in.Start == in.End && in.K > 1 {
		return fmt.Errorf("kstroll: Start==End requires K=1, got K=%d", in.K)
	}
	if in.Start != in.End && in.K < 2 {
		return fmt.Errorf("kstroll: distinct endpoints require K>=2, got K=%d", in.K)
	}
	return nil
}

// Metric reports whether the instance satisfies the triangle inequality
// (within eps). O(N^3); intended for tests (Lemma 1).
func (in *Instance) Metric(eps float64) bool {
	for a := 0; a < in.N; a++ {
		for b := 0; b < in.N; b++ {
			for c := 0; c < in.N; c++ {
				if in.Cost[a][c] > in.Cost[a][b]+in.Cost[b][c]+eps {
					return false
				}
			}
		}
	}
	return true
}

// WalkCost returns the cost of the node sequence under the instance.
func (in *Instance) WalkCost(seq []int) float64 {
	var c float64
	for i := 1; i < len(seq); i++ {
		c += in.Cost[seq[i-1]][seq[i]]
	}
	return c
}

// Solver finds a low-cost k-stroll walk.
type Solver interface {
	// Solve returns a feasible walk or an error.
	Solve(in *Instance) (*Walk, error)
	// Name identifies the solver in logs and benchmarks.
	Name() string
}

// trivial handles K=1 (Start==End) and K=2 (direct hop) uniformly for all
// solvers. ok is false when the instance needs a real search.
func trivial(in *Instance) (w *Walk, ok bool) {
	switch in.K {
	case 1:
		return &Walk{Seq: []int{in.Start}, Cost: 0}, true
	case 2:
		return &Walk{
			Seq:  []int{in.Start, in.End},
			Cost: in.Cost[in.Start][in.End],
		}, true
	default:
		return nil, false
	}
}

// AutoSolver picks ExactSolver for instances of at most
// DefaultAutoExactLimit nodes and InsertionSolver otherwise. It is the
// default used by the chain and core packages.
type AutoSolver struct{}

// DefaultAutoExactLimit keeps the exact DP under a few milliseconds.
const DefaultAutoExactLimit = 14

// Name implements Solver.
func (s *AutoSolver) Name() string { return "auto" }

// Solve implements Solver.
func (s *AutoSolver) Solve(in *Instance) (*Walk, error) {
	if in.N <= DefaultAutoExactLimit {
		return (&ExactSolver{}).Solve(in)
	}
	return (&InsertionSolver{}).Solve(in)
}

// Auto returns the default solver.
func Auto() Solver { return &AutoSolver{} }
