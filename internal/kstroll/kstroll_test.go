package kstroll

import (
	"math"
	"math/rand"
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
