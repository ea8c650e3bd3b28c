package kstroll

import (
	"fmt"
	"math"
	"math/bits"
)

// DefaultExactLimit is the largest instance (node count) ExactSolver
// accepts. The DP keeps a row of N entries for every node set that holds
// Start and at most K-1 nodes: C(N-1, 0) + … + C(N-1, K-2) rows, fewer
// than 2^(N-1) even at K = N. It also sizes the DP's fixed tables.
const DefaultExactLimit = 18

// ExactSolver solves k-stroll optimally with a Held–Karp-style dynamic
// program over visited subsets: dp[mask][v] is the cheapest simple path that
// starts at Start, visits exactly the nodes in mask, and ends at v.
// Exponential in K; use only for small instances and as a test oracle.
//
// A K-stroll reaches only masks of at most K nodes, so the DP runs level
// by level (by mask size) over exactly those: level l holds every mask
// with Start and l other nodes, in ascending order, indexed by the mask's
// combinatorial rank. At N=14 and K=3 that is 92 masks, where a scan of
// all subsets visits 16,384. The walk is the one the full ascending scan
// finds: each dp cell is written only from the one mask a level below it,
// in the same ascending order of v, and the last level is scanned in
// ascending mask order for the first minimum.
type ExactSolver struct{}

// Name implements Solver.
func (s *ExactSolver) Name() string { return "exact" }

// binom[a][b] is the binomial coefficient C(a, b), for mask ranks.
var binom = func() (t [DefaultExactLimit][DefaultExactLimit]int) {
	for a := range t {
		t[a][0] = 1
		for b := 1; b <= a; b++ {
			t[a][b] = t[a-1][b-1] + t[a-1][b]
		}
	}
	return t
}()

// rank returns the position of mask among the masks with as many bits in
// ascending order: its colex rank, the sum of C(p_i, i) over its set bits
// p_1 < p_2 < ….
func rank(mask uint64) int {
	r := 0
	for i := 1; mask != 0; i++ {
		r += binom[bits.TrailingZeros64(mask)][i]
		mask &= mask - 1
	}
	return r
}

// nextMask returns the smallest mask above mask (nonzero) with as many
// bits (Gosper's hack).
func nextMask(mask uint64) uint64 {
	low := mask & -mask
	up := mask + low
	return up | (up^mask)/low>>2
}

// Solve implements Solver.
func (s *ExactSolver) Solve(in *Instance) (*Walk, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.N > DefaultExactLimit {
		return nil, fmt.Errorf("kstroll: exact solver limited to %d nodes, got %d", DefaultExactLimit, in.N)
	}
	if w, ok := trivial(in); ok {
		return w, nil
	}

	// Masks name node sets by the N-1 nodes other than Start: bit j is node
	// j below Start and node j+1 from it on, so ascending masks are
	// ascending node sets. Level l is every mask with l bits; its rows sit
	// at dp[off[l]+rank·n:] (the row of node v's entries), parent alike.
	n, m := in.N, in.N-1
	node := func(j int) int {
		if j >= in.Start {
			return j + 1
		}
		return j
	}
	bit := func(v int) uint64 {
		if v > in.Start {
			return 1 << (v - 1)
		}
		return 1 << v
	}
	last := in.K - 2 // the widest stored level; its extension by End is the answer
	var off [DefaultExactLimit + 1]int
	for l := 0; l <= last; l++ {
		off[l+1] = off[l] + binom[m][l]*n
	}
	dp := newRow(off[last+1])
	parent := make([]int8, off[last+1])
	dp[in.Start] = 0

	var tgt [DefaultExactLimit]int
	for l := 0; l < last; l++ {
		mask := uint64(1)<<l - 1
		for r := range binom[m][l] {
			if r > 0 {
				mask = nextMask(mask)
			}
			for j := range m {
				if mask&(1<<j) == 0 {
					tgt[j] = off[l+1] + rank(mask|1<<j)*n + node(j)
				}
			}
			row := dp[off[l]+r*n : off[l]+(r+1)*n]
			for v, dv := range row {
				// End may only be the final node: do not extend paths that
				// already pass through End.
				if math.IsInf(dv, 1) || v == in.End {
					continue
				}
				cost := in.Cost[v]
				for j := range m {
					if mask&(1<<j) != 0 {
						continue
					}
					if nd := dv + cost[node(j)]; nd < dp[tgt[j]] {
						dp[tgt[j]] = nd
						parent[tgt[j]] = int8(v)
					}
				}
			}
		}
	}

	// The K-node paths end at End, which the last level's masks must not
	// hold; adding End's bit keeps their order, so the first minimum here
	// is the full scan's.
	best := math.Inf(1)
	bestMask, bestPrev := uint64(0), -1
	mask, endBit := uint64(1)<<last-1, bit(in.End)
	for r := range binom[m][last] {
		if r > 0 {
			mask = nextMask(mask)
		}
		if mask&endBit != 0 {
			continue
		}
		d, prev := math.Inf(1), -1
		for v, dv := range dp[off[last]+r*n : off[last]+(r+1)*n] {
			if math.IsInf(dv, 1) {
				continue
			}
			if nd := dv + in.Cost[v][in.End]; nd < d {
				d, prev = nd, v
			}
		}
		if d < best {
			best, bestMask, bestPrev = d, mask, prev
		}
	}
	if bestPrev < 0 {
		return nil, ErrInfeasible
	}

	// Reconstruct.
	seq := make([]int, 0, in.K)
	seq = append(seq, in.End)
	mask, v := bestMask, bestPrev
	for l := last; l > 0; l-- {
		seq = append(seq, v)
		p := parent[off[l]+rank(mask)*n+v]
		mask &^= bit(v)
		v = int(p)
	}
	seq = append(seq, in.Start)
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return &Walk{Seq: seq, Cost: best}, nil
}

func newRow(n int) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = math.Inf(1)
	}
	return row
}
