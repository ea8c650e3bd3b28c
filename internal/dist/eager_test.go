package dist

import (
	"context"
	"math"
	"testing"
	"time"

	"sof/internal/chain"
	"sof/internal/core"
)

// TestEagerClosureMatchesBatchAndCentralized is the overlapped-Steiner
// correctness claim: with EagerClosure armed (on top of streaming and
// pruning), the 4-seed × 3-domain-count matrix lands on exactly the
// centralized cost, and the early-closure counters show the eager runs
// actually fired before completion.
func TestEagerClosureMatchesBatchAndCentralized(t *testing.T) {
	totalEarly := uint64(0)
	for _, seed := range []int64{1, 7, 23, 42} {
		net, req, opts := softLayerInstance(seed)
		central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
		if err != nil {
			t.Fatalf("seed %d: centralized: %v", seed, err)
		}
		for _, domains := range []int{1, 3, 5} {
			cluster := NewClusterWith(net.G, domains, Config{
				Streaming:    true,
				EagerClosure: true,
			})
			f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
			if err != nil {
				cluster.Close()
				t.Fatalf("seed %d domains %d: eager streamed: %v", seed, domains, err)
			}
			if err := f.Validate(req.Sources, req.Dests); err != nil {
				t.Errorf("seed %d domains %d: infeasible forest: %v", seed, domains, err)
			}
			if f.TotalCost() != central.TotalCost() {
				t.Errorf("seed %d domains %d: eager cost %v != centralized %v",
					seed, domains, f.TotalCost(), central.TotalCost())
			}
			st := cluster.StreamStats()
			if st.StreamedResults == 0 {
				t.Errorf("seed %d domains %d: eager run moved no fragments (%+v)", seed, domains, st)
			}
			totalEarly += st.EarlyClosures
			cluster.Close()
		}
	}
	if totalEarly == 0 {
		t.Error("EarlyClosures stayed zero across the whole matrix; eager mode never overlapped anything")
	}
}

// TestEagerClosureSurvivesFallbackReBuy pins terminal completeness under
// the fallback path: when streams are cut mid-exchange and the leader
// re-buys the remainder from its local oracle, the fallback-delivered
// pairs still count toward their sources' completeness, every eager run
// launches, and the cost stays centralized.
func TestEagerClosureSurvivesFallbackReBuy(t *testing.T) {
	net, req, opts := softLayerInstance(23)
	central, err := core.SOFDACtx(context.Background(), net.G, req, opts)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewChannelTransport(net.G, 3, chain.Options{})
	defer inner.Close()
	flaky := &partialStreamTransport{inner: inner, failAfter: 5}
	cluster := NewClusterWith(net.G, 3, Config{
		Transport: flaky, Streaming: true, EagerClosure: true, RetryBudget: 1,
	})
	defer cluster.Close()
	f, err := cluster.SOFDA(context.Background(), req, Options{Core: opts})
	if err != nil {
		t.Fatalf("eager streamed SOFDA over a mid-stream-failing transport: %v", err)
	}
	if f.TotalCost() != central.TotalCost() {
		t.Errorf("cost %v != centralized %v after fallback re-buy with eager closure", f.TotalCost(), central.TotalCost())
	}
	// The early-source eager runs fired even though later pairs arrived
	// through the fallback: destination warming alone guarantees a
	// non-zero counter, and a stalled completeness count would have
	// deadlocked Complete's WaitGroup long before this assertion.
	if st := cluster.StreamStats(); st.EarlyClosures == 0 {
		t.Errorf("EarlyClosures = 0 after a fallback re-buy exchange (%+v)", st)
	}
}

// TestAnswerStreamCheapestFirstFragments pins the domain-side emission
// order: with a slow sink forcing coalesced fragments, every fragment
// lists its feasible results in ascending chain cost (infeasible last,
// ties by index) — cheap chains reach the leader first, fragment by
// fragment.
func TestAnswerStreamCheapestFirstFragments(t *testing.T) {
	net, req, opts := softLayerInstance(7)
	dom := NewDomain(net.G, chain.Options{})
	pairs := chain.Pairs(req.Sources, opts.VMs)
	creq := &CandidateRequest{
		ChainLen:    req.ChainLen,
		Parallelism: 4,
		VMs:         opts.VMs,
		Pairs:       pairs,
	}
	coalesced := false
	if err := dom.AnswerStream(context.Background(), creq, func(f *CandidateFragment) error {
		if len(f.Results) > 1 {
			coalesced = true
		}
		prev := math.Inf(-1)
		prevIdx := -1
		seenInfeasible := false
		for _, fr := range f.Results {
			if fr.Result.Chain == nil {
				seenInfeasible = true
				continue
			}
			if seenInfeasible {
				t.Fatalf("fragment %d: feasible result after an infeasible one", f.Seq)
			}
			c := fr.Result.Chain.TotalCost()
			if c < prev || (c == prev && fr.Index < prevIdx) {
				t.Fatalf("fragment %d: result order not cheapest-first: %v after %v", f.Seq, c, prev)
			}
			prev, prevIdx = c, fr.Index
		}
		// A slow sink lets later solves pile up, forcing coalescing.
		time.Sleep(2 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatalf("AnswerStream: %v", err)
	}
	if !coalesced {
		t.Skip("no fragment coalesced more than one result; ordering not exercised")
	}
}
