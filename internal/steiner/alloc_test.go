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
// the pool holds a scratch.
func TestKMBWithAllocatesOnlyTheTree(t *testing.T) {
	g, sHat, pool := auxShaped(1)
	terms := append([]graph.NodeID{sHat}, pool[:8]...)
	opts := &KMBOptions{Provider: &memoProvider{g: g}}
	if _, err := KMBWith(g, terms, opts); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := KMBWith(g, terms, opts); err != nil {
			t.Fatal(err)
		}
	}); allocs > 3 {
		t.Fatalf("KMBWith allocated %v times per run, want at most 3", allocs)
	}
}
