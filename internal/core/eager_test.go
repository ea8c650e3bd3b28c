package core

import (
	"context"
	"testing"
	"time"

	"sof/internal/chain"
	"sof/internal/graph"
)

// feedEager replays the canonical candidate stream into an eager builder
// the way the streamed leader does: ExpectCandidates with each source's
// pair count up front, AddCandidate for the feasible results, and
// NoteDelivered after every pair — feasible, infeasible, or pruned alike.
func feedEager(t *testing.T, b *AuxGraphBuilder, req Request, vms []graph.NodeID, results []chain.Result) {
	t.Helper()
	counts := make(map[graph.NodeID]int)
	for _, r := range results {
		counts[r.Pair.Source]++
	}
	for _, s := range req.Sources {
		b.ExpectCandidates(s, counts[s])
	}
	for _, r := range results {
		if r.Err == nil && r.Chain != nil {
			if _, err := b.AddCandidate(r.Chain); err != nil {
				t.Fatalf("AddCandidate: %v", err)
			}
		}
		b.NoteDelivered(r.Pair.Source)
	}
}

// TestEagerCompleteMatchesInline is the eager-mode correctness claim: for
// every seed, pruning on and off, a builder whose per-source refinements
// ran eagerly (launched as each source's last candidate was delivered)
// lands on the bit-identical forest cost of the plain builder and of the
// centralized solve.
func TestEagerCompleteMatchesInline(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, 42} {
		net, req, opts, _ := auxBuilderInstance(t, seed)
		direct, err := SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: SOFDA: %v", seed, err)
		}
		oracle := chain.NewOracle(net.G, chain.Options{})
		results, err := oracle.Chains(context.Background(), opts.VMs, chain.Pairs(req.Sources, opts.VMs), req.ChainLen, 1)
		if err != nil {
			t.Fatalf("seed %d: candidates: %v", seed, err)
		}
		for _, prune := range []bool{false, true} {
			b, err := NewAuxGraphBuilder(context.Background(), net.G, req, opts)
			if err != nil {
				t.Fatalf("seed %d: builder: %v", seed, err)
			}
			if prune {
				b.EnablePruning()
			}
			b.EnableEager()
			feedEager(t, b, req, opts.VMs, results)
			f, err := b.Complete(context.Background())
			if err != nil {
				t.Fatalf("seed %d prune=%v: eager Complete: %v", seed, prune, err)
			}
			if f.TotalCost() != direct.TotalCost() {
				t.Errorf("seed %d prune=%v: eager cost %v != SOFDA %v",
					seed, prune, f.TotalCost(), direct.TotalCost())
			}
			if len(b.eagerRuns) != len(b.aux.srcDup) {
				t.Errorf("seed %d prune=%v: %d eager runs launched for %d distinct sources",
					seed, prune, len(b.eagerRuns), len(b.aux.srcDup))
			}
		}
	}
}

// TestEagerOverlapAccounting pins the completeness tracking and the
// overlap metric on a controlled schedule: a source whose candidates all
// arrive early has its refinement finished well before Complete (counted
// as early, with wall time), while a source completed only by the last
// delivery may finish during the completion phase — but every launched
// run is consumed either way, and destination-tree warming always counts.
func TestEagerOverlapAccounting(t *testing.T) {
	net, req, opts, _ := auxBuilderInstance(t, 7)
	oracle := chain.NewOracle(net.G, chain.Options{})
	results, err := oracle.Chains(context.Background(), opts.VMs, chain.Pairs(req.Sources, opts.VMs), req.ChainLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAuxGraphBuilder(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	b.EnableEager()
	counts := make(map[graph.NodeID]int)
	for _, r := range results {
		counts[r.Pair.Source]++
	}
	for _, s := range req.Sources {
		b.ExpectCandidates(s, counts[s])
	}
	// Deliver everything except the final source's last pair, then give
	// the early refinements time to land before the closing delivery.
	last := len(results) - 1
	for _, r := range results[:last] {
		if r.Err == nil && r.Chain != nil {
			if _, err := b.AddCandidate(r.Chain); err != nil {
				t.Fatal(err)
			}
		}
		b.NoteDelivered(r.Pair.Source)
	}
	time.Sleep(50 * time.Millisecond)
	r := results[last]
	if r.Err == nil && r.Chain != nil {
		if _, err := b.AddCandidate(r.Chain); err != nil {
			t.Fatal(err)
		}
	}
	b.NoteDelivered(r.Pair.Source)

	f, err := b.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatal("nil forest")
	}
	closures, overlapNS := b.EagerOverlap()
	// Destination warming is unconditional; the early-completed sources
	// (every distinct source except possibly the last one) had 50ms to
	// finish refinements that take well under that.
	if closures < len(req.Dests)+1 {
		t.Fatalf("EagerOverlap closures = %d, want at least dests %d + 1 early refinement",
			closures, len(req.Dests))
	}
	if overlapNS <= 0 {
		t.Fatalf("EagerOverlap ns = %d, want > 0 with refinements finished before Complete", overlapNS)
	}
}

// TestEagerLastDeliveryLaunch pins the "terminal completes last" edge:
// when a source's final candidate is the very last delivery before
// Complete, its refinement still launches (and is awaited), never lost —
// the forest matches the plain builder exactly.
func TestEagerLastDeliveryLaunch(t *testing.T) {
	net, req, opts, candidates := auxBuilderInstance(t, 23)
	plain, err := SOFDAFromCandidatesCtx(context.Background(), net.G, req, opts, candidates)
	if err != nil {
		t.Fatal(err)
	}
	oracle := chain.NewOracle(net.G, chain.Options{})
	results, err := oracle.Chains(context.Background(), opts.VMs, chain.Pairs(req.Sources, opts.VMs), req.ChainLen, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAuxGraphBuilder(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	b.EnableEager()
	feedEager(t, b, req, opts.VMs, results)
	// Complete immediately: the last source's run races the completion
	// phase and must be waited on, not dropped.
	f, err := b.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalCost() != plain.TotalCost() {
		t.Errorf("eager cost %v != plain builder %v", f.TotalCost(), plain.TotalCost())
	}
	if len(b.eagerRuns) != len(b.aux.srcDup) {
		t.Errorf("%d eager runs for %d sources; the last-delivery launch was lost",
			len(b.eagerRuns), len(b.aux.srcDup))
	}
}
