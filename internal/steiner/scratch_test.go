package steiner

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"sof/internal/graph"
)

// scratchCase is one KMB instance with its full-closure reference result.
type scratchCase struct {
	name    string
	g       *graph.Graph
	terms   []graph.NodeID
	p       *memoProvider
	want    *Tree
	wantErr error
}

// scratchCases alternates Ĝ-shaped graphs (auxShaped: ŝ and the
// duplicates sit at the top of the id range), a third of them with a
// failed destination, with smaller random multigraphs, so a reused
// scratch keeps slots and stamps for ids the next instance does not have,
// and arrays longer than it needs. Every fourth case is a cyclicCorpus
// instance, so the arrays only a cyclic path union uses are reused too;
// t fails when fewer than five cases have a cyclic union.
func scratchCases(t *testing.T, n int) []scratchCase {
	t.Helper()
	var cases []scratchCase
	cyclic := 0
	for seed := int64(0); len(cases) < n; seed++ {
		var c scratchCase
		rng := rand.New(rand.NewSource(seed ^ 0x2f2f))
		switch {
		case seed%4 == 3:
			c.g, c.terms = cyclicCorpus[int(seed/4)%len(cyclicCorpus)].instance()
		case seed%2 == 0:
			g, sHat, pool := auxShaped(seed)
			c.g, c.terms = g, []graph.NodeID{sHat}
			for range 1 + rng.Intn(9) {
				c.terms = append(c.terms, pool[rng.Intn(len(pool))])
			}
			if seed%3 == 2 {
				// A failed destination: both sides must fail alike.
				g.FailNode(c.terms[len(c.terms)-1])
			}
		default:
			nodes := 2 + rng.Intn(20)
			c.g = randomMultigraph(seed, nodes)
			for range 1 + rng.Intn(8) {
				c.terms = append(c.terms, graph.NodeID(rng.Intn(nodes)))
			}
		}
		c.name = fmt.Sprintf("seed %d terminals %v", seed, c.terms)
		c.p = &memoProvider{g: c.g}
		var cyc bool
		c.want, cyc, c.wantErr = fullClosureKMB(c.g, c.terms)
		if cyc {
			cyclic++
		}
		cases = append(cases, c)
	}
	if cyclic < 5 {
		t.Fatalf("only %d of %d cases have a cyclic path union", cyclic, n)
	}
	return cases
}

// check requires got to be the reference tree bit for bit, or err to be
// the reference error.
func (c *scratchCase) check(got *Tree, err error) error {
	if c.wantErr != nil {
		if err == nil || err.Error() != c.wantErr.Error() {
			return fmt.Errorf("%s: error %v, want %v", c.name, err, c.wantErr)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: %v", c.name, err)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(c.want.Cost) ||
		!reflect.DeepEqual(got.Edges, c.want.Edges) || !reflect.DeepEqual(got.Nodes, c.want.Nodes) {
		return fmt.Errorf("%s: tree %+v differs from the full-closure reference %+v", c.name, got, c.want)
	}
	return nil
}

// TestKMBScratchReuse runs KMBs back to back on one scratch, alternating
// large Ĝ-shaped and small instances, and pins each to the full-closure
// reference. The second run wraps the slot generation back to 1, the
// generation the first run stamped its nodes with, so it must clear the
// stamps or it would take every terminal for a duplicate.
func TestKMBScratchReuse(t *testing.T) {
	cases := scratchCases(t, 40)
	s := new(scratch)
	run := func(label string, c *scratchCase) {
		t.Helper()
		got, err := s.kmbWith(c.g, c.terms, c.p)
		if err := c.check(got, err); err != nil {
			t.Fatalf("%s (generation %d): %v", label, s.gen, err)
		}
		for _, sp := range s.trees[:cap(s.trees)] {
			if sp != nil {
				t.Fatalf("%s: the scratch still holds a shortest-path tree", label)
			}
		}
	}
	run("first run", &cases[0])
	s.gen = math.MaxUint32
	run("run across the wrap", &cases[0])
	if s.gen != 1 {
		t.Fatalf("generation %d after the wrap, want 1", s.gen)
	}
	for i := range cases {
		run(fmt.Sprint("run ", i), &cases[i])
	}
}

// TestKMBWithConcurrent runs KMBWith from GOMAXPROCS goroutines over
// shared providers, each goroutine through every instance in its own
// order, so the pooled scratches move between instances of every size.
// Every result is pinned to the full-closure reference.
func TestKMBWithConcurrent(t *testing.T) {
	cases := scratchCases(t, 24)
	workers := max(2, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range 3 {
				for _, i := range rng.Perm(len(cases)) {
					c := &cases[i]
					got, err := KMBWith(c.g, c.terms, &KMBOptions{Provider: c.p})
					if err := c.check(got, err); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
