package chain

import (
	"context"

	"sof/internal/fanout"
	"sof/internal/graph"
)

// Pair identifies one candidate-chain query: a service chain starting at
// Source and terminating its last VNF on LastVM.
type Pair struct {
	Source graph.NodeID
	LastVM graph.NodeID
}

// Result couples a Pair with the outcome of its query. Exactly one of
// Chain and Err is non-nil. Chain is the oracle's solved-chain memo entry,
// shared with every other query of its cost epoch: treat it as strictly
// read-only, as Oracle.Tree's trees (Oracle.Chain returns private copies).
type Result struct {
	Pair  Pair
	Chain *ServiceChain
	Err   error
}

// Pairs enumerates the candidate (source, lastVM) pairs of Procedure 3 in
// the canonical order core.AuxGraphBuilder is fed them: sources outermost
// (with multiplicity), VMs innermost, skipping self-pairs. The distributed
// leader relies on this order to reproduce the centralized auxiliary graph
// bit for bit.
func Pairs(sources, vms []graph.NodeID) []Pair {
	pairs := make([]Pair, 0, len(sources)*len(vms))
	for _, s := range sources {
		for _, u := range vms {
			if u == s {
				continue
			}
			pairs = append(pairs, Pair{Source: s, LastVM: u})
		}
	}
	return pairs
}

// Chains computes a candidate service chain for every pair, fanning the
// queries out with fanout.For: fanout.Width(parallelism, len(pairs))
// goroutines, or the calling goroutine alone at width 1. Results are
// returned in pair order; per-pair failures (unreachable VMs, too few
// candidates) are recorded in Result.Err rather than aborting the batch.
// The only call-level error is context cancellation, in which case the
// partial results are discarded.
//
// The oracle's caches are shared across workers: each origin's Dijkstra
// tree, each candidate set's VM–VM block and each solved chain is
// computed once (singleflight), whichever worker needs it first. vms is
// hashed and copied once for the whole batch.
func (o *Oracle) Chains(ctx context.Context, vms []graph.NodeID, pairs []Pair, chainLen, parallelism int) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]Result, len(pairs))
	if len(pairs) == 0 {
		return results, nil
	}

	// Every instance build touches tree(source) and tree(v) for each
	// candidate VM, so the batch's full tree demand is known up front:
	// warm it in one batched pass instead of faulting trees in one pooled
	// Dijkstra at a time. Miss-neutral (see WarmTrees), so cache counters
	// and the benchmarks gating on them are unchanged.
	origins := make([]graph.NodeID, 0, len(pairs)+len(vms))
	seenSrc := make(map[graph.NodeID]bool, len(pairs))
	for _, p := range pairs {
		if !seenSrc[p.Source] {
			seenSrc[p.Source] = true
			origins = append(origins, p.Source)
		}
	}
	origins = append(origins, vms...)
	o.WarmTrees(ctx, origins)

	set := newVMSet(vms)
	if err := fanout.For(ctx, len(pairs), parallelism, func(i int) {
		p := pairs[i]
		sc, err := o.chain(set, p.Source, p.LastVM, chainLen)
		results[i] = Result{Pair: p, Chain: sc, Err: err}
	}); err != nil {
		return nil, err
	}
	return results, nil
}
