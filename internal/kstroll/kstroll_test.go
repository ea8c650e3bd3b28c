package kstroll

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// euclidean builds a random metric instance from points in the unit square.
func euclidean(n, k int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
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
	return &Instance{N: n, Cost: cost, Start: 0, End: n - 1, K: k}
}

func TestValidate(t *testing.T) {
	in := euclidean(5, 3, 1)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := euclidean(5, 3, 1)
	bad.K = 9
	if err := bad.Validate(); err == nil {
		t.Error("K>N accepted")
	}
	bad2 := euclidean(5, 3, 1)
	bad2.Cost[1][2] = -1
	bad2.Cost[2][1] = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
	bad3 := euclidean(5, 3, 1)
	bad3.Cost[1][2] += 1
	if err := bad3.Validate(); err == nil {
		t.Error("asymmetric cost accepted")
	}
	same := euclidean(5, 3, 1)
	same.End = same.Start
	if err := same.Validate(); err == nil {
		t.Error("Start==End with K>1 accepted")
	}
}

func TestMetricHolds(t *testing.T) {
	in := euclidean(12, 4, 3)
	if !in.Metric(1e-9) {
		t.Fatal("euclidean instance should be metric")
	}
	in.Cost[0][5] = 100
	in.Cost[5][0] = 100
	if in.Metric(1e-9) {
		t.Fatal("perturbed instance should not be metric")
	}
}

func TestTrivialCases(t *testing.T) {
	for _, s := range []Solver{&ExactSolver{}, &InsertionSolver{}, Auto()} {
		in := euclidean(6, 2, 2)
		w, err := s.Solve(in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := in.VerifyWalk(w); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(w.Seq) != 2 {
			t.Fatalf("%s: K=2 walk = %v", s.Name(), w.Seq)
		}
		one := &Instance{N: 3, Cost: zeroMatrix(3), Start: 1, End: 1, K: 1}
		w, err = s.Solve(one)
		if err != nil || len(w.Seq) != 1 || w.Cost != 0 {
			t.Fatalf("%s K=1: %v %+v", s.Name(), err, w)
		}
	}
}

func zeroMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// bruteForce enumerates all simple paths with exactly K nodes.
func bruteForce(in *Instance) float64 {
	best := math.Inf(1)
	var rec func(seq []int, used []bool)
	rec = func(seq []int, used []bool) {
		if len(seq) == in.K-1 {
			c := in.WalkCost(seq) + in.Cost[seq[len(seq)-1]][in.End]
			if c < best {
				best = c
			}
			return
		}
		for v := 0; v < in.N; v++ {
			if used[v] || v == in.End {
				continue
			}
			used[v] = true
			rec(append(seq, v), used)
			used[v] = false
		}
	}
	used := make([]bool, in.N)
	used[in.Start] = true
	used[in.End] = true
	rec([]int{in.Start}, used)
	return best
}

func TestExactMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		n := 6 + int(seed%3)
		k := 3 + int(seed%4)
		if k > n {
			k = n
		}
		in := euclidean(n, k, seed)
		w, err := (&ExactSolver{}).Solve(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := in.VerifyWalk(w); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := bruteForce(in)
		if math.Abs(w.Cost-want) > 1e-9 {
			t.Fatalf("seed %d: exact %v, brute force %v", seed, w.Cost, want)
		}
	}
}

func TestExactRejectsHugeInstances(t *testing.T) {
	in := euclidean(25, 5, 1)
	if _, err := (&ExactSolver{}).Solve(in); err == nil {
		t.Fatal("expected node-limit error")
	}
}

func TestInsertionFeasibleAndBounded(t *testing.T) {
	worst := 1.0
	for seed := int64(0); seed < 40; seed++ {
		n := 8 + int(seed%6)
		k := 3 + int(seed%6)
		if k > n {
			k = n
		}
		in := euclidean(n, k, seed+100)
		ins, err := (&InsertionSolver{}).Solve(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := in.VerifyWalk(ins); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ex, err := (&ExactSolver{}).Solve(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ins.Cost < ex.Cost-1e-9 {
			t.Fatalf("seed %d: insertion %v beat exact %v", seed, ins.Cost, ex.Cost)
		}
		ratio := 1.0
		if ex.Cost > 1e-12 {
			ratio = ins.Cost / ex.Cost
		}
		if ratio > worst {
			worst = ratio
		}
		// The paper's cited solver guarantees 2x; our heuristic must stay
		// within that on metric instances of evaluation size.
		if ratio > 2.0+1e-9 {
			t.Fatalf("seed %d: insertion ratio %.3f exceeds 2.0", seed, ratio)
		}
	}
	t.Logf("worst insertion/exact ratio over 40 instances: %.4f", worst)
}

func TestAutoSwitchesSolvers(t *testing.T) {
	small := euclidean(10, 4, 9)
	large := euclidean(40, 6, 9)
	auto := Auto()
	ws, err := auto.Solve(small)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := (&ExactSolver{}).Solve(small)
	if math.Abs(ws.Cost-ex.Cost) > 1e-9 {
		t.Fatalf("auto on small instance should be exact: %v vs %v", ws.Cost, ex.Cost)
	}
	wl, err := auto.Solve(large)
	if err != nil {
		t.Fatal(err)
	}
	if err := large.VerifyWalk(wl); err != nil {
		t.Fatal(err)
	}
}

func TestHamiltonianEndpointCase(t *testing.T) {
	// K == N forces a Hamiltonian path.
	in := euclidean(7, 7, 77)
	w, err := (&ExactSolver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Seq) != 7 {
		t.Fatalf("walk has %d nodes, want 7", len(w.Seq))
	}
	if err := in.VerifyWalk(w); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyWalkRejects(t *testing.T) {
	in := euclidean(6, 3, 5)
	if err := in.VerifyWalk(&Walk{Seq: []int{0, 1, 2}, Cost: 0}); err == nil {
		t.Error("wrong endpoint/cost accepted")
	}
	if err := in.VerifyWalk(&Walk{}); err == nil {
		t.Error("empty walk accepted")
	}
	seq := []int{0, 1, 1, 5}
	if err := in.VerifyWalk(&Walk{Seq: seq, Cost: in.WalkCost(seq)}); err == nil {
		t.Error("repeated node accepted")
	}
}

// refExact is the full-scan subset DP the level-by-level ExactSolver is
// pinned to: one row per subset of the N nodes, all 2^N masks scanned in
// ascending order, rows allocated as masks are first reached.
func refExact(in *Instance) (*Walk, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if w, ok := trivial(in); ok {
		return w, nil
	}
	n := in.N
	size := 1 << n
	dp := make([][]float64, size)
	parent := make([][]int8, size)
	startBit := 1 << in.Start
	dp[startBit] = newRow(n)
	dp[startBit][in.Start] = 0
	best := math.Inf(1)
	bestMask, bestEnd := 0, -1
	for mask := 1; mask < size; mask++ {
		if dp[mask] == nil || mask&startBit == 0 {
			continue
		}
		if bits.OnesCount(uint(mask)) == in.K {
			if mask&(1<<in.End) != 0 && dp[mask][in.End] < best {
				best = dp[mask][in.End]
				bestMask, bestEnd = mask, in.End
			}
			continue
		}
		for v := 0; v < n; v++ {
			dv := dp[mask][v]
			if math.IsInf(dv, 1) || v == in.End {
				continue
			}
			for w := 0; w < n; w++ {
				if mask&(1<<w) != 0 {
					continue
				}
				nm := mask | 1<<w
				if dp[nm] == nil {
					dp[nm] = newRow(n)
					parent[nm] = make([]int8, n)
				}
				if nd := dv + in.Cost[v][w]; nd < dp[nm][w] {
					dp[nm][w] = nd
					parent[nm][w] = int8(v)
				}
			}
		}
	}
	if bestEnd < 0 {
		return nil, ErrInfeasible
	}
	seq := make([]int, 0, in.K)
	mask, v := bestMask, bestEnd
	for v != in.Start || bits.OnesCount(uint(mask)) > 1 {
		seq = append(seq, v)
		p := parent[mask][v]
		mask ^= 1 << v
		v = int(p)
	}
	seq = append(seq, in.Start)
	slices.Reverse(seq)
	return &Walk{Seq: seq, Cost: best}, nil
}

// tieInstance builds a symmetric instance over n nodes whose costs follow
// mode: 0 random floats, 1 few values (0, 1 or 2, so optimal walks tie),
// 2 all equal (every K-walk ties), 3 few values with some +Inf pairs.
func tieInstance(rng *rand.Rand, n, k, start, end, mode int) *Instance {
	cost := zeroMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var c float64
			switch mode {
			case 0:
				c = rng.Float64()
			case 1:
				c = float64(rng.Intn(3))
			case 2:
				c = 1
			default:
				c = float64(1 + rng.Intn(2))
				if rng.Intn(4) == 0 {
					c = math.Inf(1)
				}
			}
			cost[i][j], cost[j][i] = c, c
		}
	}
	return &Instance{N: n, Cost: cost, Start: start, End: end, K: k}
}

// sameWalk fails the test unless the exact solver and the full-scan
// reference agree on in: the same error, or the same node sequence and
// the same cost bits.
func sameWalk(t *testing.T, label string, in *Instance) {
	t.Helper()
	got, gerr := (&ExactSolver{}).Solve(in)
	want, werr := refExact(in)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !slices.Equal(got.Seq, want.Seq) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		t.Fatalf("%s: walk %v (%v), reference %v (%v)", label, got.Seq, got.Cost, want.Seq, want.Cost)
	}
}

// TestExactMatchesFullScan pins the level-by-level DP to the full-scan
// reference on seeded instances: random, few-valued, all-equal and
// partly infinite costs, where ties decide the walk.
func TestExactMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		n := 3 + rng.Intn(12)
		k := 3 + rng.Intn(n-2)
		start := rng.Intn(n)
		end := (start + 1 + rng.Intn(n-1)) % n
		in := tieInstance(rng, n, k, start, end, i%4)
		sameWalk(t, fmt.Sprintf("instance %d (N=%d K=%d %d→%d mode %d)", i, n, k, start, end, i%4), in)
	}
}

// FuzzExactMatchesFullScan is TestExactMatchesFullScan over fuzzed
// shapes and seeds.
func FuzzExactMatchesFullScan(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed), uint8(seed*7), uint8(seed*3), uint8(seed*5), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, k, start, end, mode uint8) {
		n := 3 + int(nodes)%12
		kk := 3 + int(k)%(n-2)
		s := int(start) % n
		e := (s + 1 + int(end)%(n-1)) % n
		in := tieInstance(rand.New(rand.NewSource(seed)), n, kk, s, e, int(mode)%4)
		sameWalk(t, fmt.Sprintf("N=%d K=%d %d→%d mode %d", n, kk, s, e, mode%4), in)
	})
}

// VerifyWalk checks that w is a feasible solution: endpoints match, exactly
// K distinct nodes, no repeats, recorded cost correct.
func (in *Instance) VerifyWalk(w *Walk) error {
	if len(w.Seq) == 0 {
		return errors.New("kstroll: empty walk")
	}
	if w.Seq[0] != in.Start || w.Seq[len(w.Seq)-1] != in.End {
		return fmt.Errorf("kstroll: walk endpoints (%d,%d), want (%d,%d)",
			w.Seq[0], w.Seq[len(w.Seq)-1], in.Start, in.End)
	}
	seen := make(map[int]bool, len(w.Seq))
	for _, v := range w.Seq {
		if v < 0 || v >= in.N {
			return fmt.Errorf("kstroll: walk node %d out of range", v)
		}
		if seen[v] {
			return fmt.Errorf("kstroll: walk repeats node %d", v)
		}
		seen[v] = true
	}
	if len(seen) != in.K {
		return fmt.Errorf("kstroll: walk visits %d distinct nodes, want %d", len(seen), in.K)
	}
	if got := in.WalkCost(w.Seq); math.Abs(got-w.Cost) > 1e-6 {
		return fmt.Errorf("kstroll: recorded cost %v != recomputed %v", w.Cost, got)
	}
	return nil
}
