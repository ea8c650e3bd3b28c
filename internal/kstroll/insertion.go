package kstroll

import (
	"math"
)

// InsertionSolver builds a walk by cheapest insertion and refines it with
// local search (or-opt relocation, 2-opt reversal, and node swap against
// unused nodes). Deterministic: ties break toward lower node index. This is
// the production path for large instances; tests bound its gap against
// ExactSolver.
type InsertionSolver struct{}

// insertionRounds caps the local-search sweeps. Each sweep is
// O(K^2 + K·N).
const insertionRounds = 64

// Name implements Solver.
func (s *InsertionSolver) Name() string { return "insertion" }

// Solve implements Solver.
func (s *InsertionSolver) Solve(in *Instance) (*Walk, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if w, ok := trivial(in); ok {
		return w, nil
	}
	seq := s.construct(in)
	used := make([]bool, in.N)
	for _, v := range seq {
		used[v] = true
	}
	for r := 0; r < insertionRounds; r++ {
		improved := orOpt(in, seq)
		if twoOpt(in, seq) {
			improved = true
		}
		if nodeSwap(in, seq, used) {
			improved = true
		}
		if !improved {
			break
		}
	}
	return &Walk{Seq: seq, Cost: in.WalkCost(seq)}, nil
}

// construct runs cheapest insertion from the 2-node path [Start, End] up to
// K nodes.
func (s *InsertionSolver) construct(in *Instance) []int {
	seq := []int{in.Start, in.End}
	inPath := make([]bool, in.N)
	inPath[in.Start] = true
	inPath[in.End] = true
	for len(seq) < in.K {
		bestNode, bestPos := -1, -1
		bestDelta := math.Inf(1)
		for v := 0; v < in.N; v++ {
			if inPath[v] {
				continue
			}
			for p := 1; p < len(seq); p++ {
				a, b := seq[p-1], seq[p]
				delta := in.Cost[a][v] + in.Cost[v][b] - in.Cost[a][b]
				if delta < bestDelta {
					bestDelta = delta
					bestNode, bestPos = v, p
				}
			}
		}
		seq = append(seq, 0)
		copy(seq[bestPos+1:], seq[bestPos:])
		seq[bestPos] = bestNode
		inPath[bestNode] = true
	}
	return seq
}

// orOpt relocates single interior nodes to their best position; returns
// whether any move improved the walk.
func orOpt(in *Instance, seq []int) bool {
	improved := false
	for i := 1; i < len(seq)-1; i++ {
		v := seq[i]
		removeGain := in.Cost[seq[i-1]][v] + in.Cost[v][seq[i+1]] - in.Cost[seq[i-1]][seq[i+1]]
		bestPos, bestDelta := -1, -1e-9
		for p := 1; p < len(seq); p++ {
			if p == i || p == i+1 {
				continue
			}
			a, b := seq[p-1], seq[p]
			insCost := in.Cost[a][v] + in.Cost[v][b] - in.Cost[a][b]
			delta := removeGain - insCost
			if delta > bestDelta {
				bestDelta = delta
				bestPos = p
			}
		}
		if bestPos < 0 {
			continue
		}
		improved = true
		// Remove v at i, reinsert before bestPos (positions shift left when
		// bestPos > i).
		copy(seq[i:], seq[i+1:len(seq)])
		p := bestPos
		if p > i {
			p--
		}
		copy(seq[p+1:], seq[p:len(seq)-1])
		seq[p] = v
	}
	return improved
}

// twoOpt reverses interior segments when doing so shortens the walk.
func twoOpt(in *Instance, seq []int) bool {
	improved := false
	n := len(seq)
	for i := 1; i < n-1; i++ {
		for j := i + 1; j < n-1; j++ {
			// Reverse seq[i..j]: replaces edges (i-1,i) and (j,j+1) with
			// (i-1,j) and (i,j+1).
			before := in.Cost[seq[i-1]][seq[i]] + in.Cost[seq[j]][seq[j+1]]
			after := in.Cost[seq[i-1]][seq[j]] + in.Cost[seq[i]][seq[j+1]]
			if after < before-1e-12 {
				for a, b := i, j; a < b; a, b = a+1, b-1 {
					seq[a], seq[b] = seq[b], seq[a]
				}
				improved = true
			}
		}
	}
	return improved
}

// nodeSwap replaces interior nodes with cheaper unused nodes; returns
// whether any swap improved the walk. This matters for VM selection, where
// an off-path VM with low setup cost can beat a nearby expensive one.
func nodeSwap(in *Instance, seq []int, used []bool) bool {
	improved := false
	for i := 1; i < len(seq)-1; i++ {
		v := seq[i]
		cur := in.Cost[seq[i-1]][v] + in.Cost[v][seq[i+1]]
		bestNode := -1
		bestCost := cur - 1e-12
		for w := 0; w < in.N; w++ {
			if used[w] {
				continue
			}
			c := in.Cost[seq[i-1]][w] + in.Cost[w][seq[i+1]]
			if c < bestCost {
				bestCost = c
				bestNode = w
			}
		}
		if bestNode >= 0 {
			used[v] = false
			used[bestNode] = true
			seq[i] = bestNode
			improved = true
		}
	}
	return improved
}
