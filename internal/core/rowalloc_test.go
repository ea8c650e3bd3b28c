//go:build !race

// The race detector's sync.Pool drops a share of the values put back, so
// a pooled row's allocations hold only without it.

package core

import (
	"runtime"
	"testing"

	"sof/internal/chain"
)

// TestConfinedRowAllocationIsRequestSized holds a warm confined ŝ row,
// together with the Ĝ it runs on, to less than 8 bytes per network node
// on BenchmarkSteinerPhase's Inet-5000 requests. Each round builds every
// request's Ĝ again, the skeleton and its admitted candidates through the
// builder, runs the row and releases it. A row that allocated or filled
// an array over the network, or an overlay index sized to it, would cost
// at least that much on its own.
func TestConfinedRowAllocationIsRequestSized(t *testing.T) {
	net, reqs := inetRowRequests(t)
	g := net.G
	oracle := chain.NewOracle(g, chain.Options{})
	auxes := inetRowAuxes(t, net, oracle, reqs)
	round := func() {
		for i, req := range reqs {
			b := &AuxGraphBuilder{g: g, req: req, aux: newAuxSkeleton(g, req.Sources, net.VMs, req.ChainLen)}
			for _, sc := range auxes[i].chains {
				if ok, err := b.AddCandidate(sc); !ok || err != nil {
					t.Fatalf("request %d: candidate %d→%d not admitted: %v", i, sc.Source, sc.LastVM, err)
				}
			}
			_, _, confined, release := sourceRow(g, oracle, b.aux.g, b.aux.sHat, req.Dests)
			release()
			if !confined {
				t.Fatalf("request %d: the row fell back to the overlay heap", i)
			}
		}
	}
	round()
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	perRow := (after.TotalAlloc - before.TotalAlloc) / uint64(rounds*len(reqs))
	limit := uint64(8 * g.NumNodes())
	t.Logf("a warm confined row and its Ĝ allocate %d bytes; the network has %d nodes", perRow, g.NumNodes())
	if perRow >= limit {
		t.Fatalf("a warm confined row and its Ĝ allocate %d bytes, want under %d, 8 per network node", perRow, limit)
	}
}
