//go:build !race

// The race detector's sync.Pool drops a share of the values put back, so
// allocation counts hold only without it.

package steiner

import (
	"testing"

	"sof/internal/graph"
)

// TestKMBWithAllocatesOnlyTheTree holds KMBWith to the allocations of the
// Tree it returns, its Nodes and its Edges, once the provider is warm and
// the pool holds a scratch: on a Ĝ-shaped instance, whose path union is a
// tree, and on TestKMBCyclicPathUnion's, whose union has a cycle.
func TestKMBWithAllocatesOnlyTheTree(t *testing.T) {
	g, sHat, pool := auxShaped(1)
	cg, cterms := cyclicUnionGraph()
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		terms []graph.NodeID
	}{
		{"Ĝ-shaped", g, append([]graph.NodeID{sHat}, pool[:8]...)},
		{"cyclic union", cg, cterms},
	} {
		opts := &KMBOptions{Provider: &memoProvider{g: c.g}}
		if _, err := KMBWith(c.g, c.terms, opts); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := KMBWith(c.g, c.terms, opts); err != nil {
				t.Fatal(err)
			}
		}); allocs > 3 {
			t.Fatalf("%s: KMBWith allocated %v times per run, want at most 3", c.name, allocs)
		}
	}
}
