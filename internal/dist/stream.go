package dist

import (
	"context"
	"errors"
	"fmt"
)

// StreamStats is a snapshot of the cluster's streaming-exchange counters,
// cumulative across embeddings.
type StreamStats struct {
	// StreamedFragments counts CandidateFragments the leader consumed,
	// trailers included.
	StreamedFragments uint64
	// StreamedResults counts per-pair results delivered through fragments
	// (fallback-solved pairs are not streamed and not counted).
	StreamedResults uint64
	// PrunedCandidates counts feasible candidates rejected as dominated
	// before allocating any aux-graph state.
	PrunedCandidates uint64
	// EpochDrift counts fragments whose cost epoch differed from the
	// request's. Drift alone is observability, not refusal — the digest
	// decides — but a non-zero value flags that a domain re-priced
	// mid-stream.
	EpochDrift uint64
	// OverlapNS accumulates, per embedding, the time between the leader's
	// first aux-graph insertion and the last domain finishing its stream:
	// the window in which leader-side assembly overlapped domain-side
	// solving.
	OverlapNS int64
}

// StreamStats returns the streaming-exchange counters.
func (c *Cluster) StreamStats() StreamStats {
	return StreamStats{
		StreamedFragments: c.streamFragments.Load(),
		StreamedResults:   c.streamResults.Load(),
		PrunedCandidates:  c.streamPruned.Load(),
		EpochDrift:        c.streamEpochDrift.Load(),
		OverlapNS:         c.streamOverlapNS.Load(),
	}
}

// streamEvent is one message from a domain stream goroutine to the
// splicer: either a located pair result or the domain's completion notice.
type streamEvent struct {
	global int
	res    CandidateResult
	done   bool
	domain int
	err    error
}

// streamDomain moves one domain's request over the transport with the
// configured retry budget. Results already delivered to the splicer stay
// delivered; a failed stream is retried — and finally answered by the
// leader-local fallback — only for the undelivered remainder, so no pair
// is ever spliced twice and no completed work is re-bought. Context errors
// are never retried or absorbed by the fallback: a cancelled embedding
// must surface ctx.Err(). ErrNoSuchDomain surfaces immediately too, and
// ErrGraphMismatch skips the pointless retries.
func (c *Cluster) streamDomain(ctx context.Context, domainID int, req *CandidateRequest, indices []int, events chan<- streamEvent) error {
	n := len(req.Pairs)
	delivered := make([]bool, n)
	deliveredCount := 0
	// The current attempt's sub-request and its index map back into the
	// original request's pair slots.
	subReq := req
	subLocal := make([]int, n)
	for i := range subLocal {
		subLocal[i] = i
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.RetryBudget; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		local := subLocal
		err := c.transport.SendStream(ctx, domainID, subReq, func(f *CandidateFragment) error {
			c.streamFragments.Add(1)
			if f.CostEpoch != req.CostEpoch {
				c.streamEpochDrift.Add(1)
			}
			// Digest equality proves content equality, so the epoch is
			// deliberately absent here: counters that drifted over
			// identical graphs (bump-and-restore) must not refuse.
			if f.GraphDigest != req.GraphDigest || f.SourceSetup != req.SourceSetup {
				return fmt.Errorf("dist: domain %d streamed graph digest %x sourceSetup %v, want digest %x sourceSetup %v: %w",
					domainID, f.GraphDigest, f.SourceSetup,
					req.GraphDigest, req.SourceSetup, ErrGraphMismatch)
			}
			for _, fr := range f.Results {
				if fr.Index < 0 || fr.Index >= len(local) {
					return fmt.Errorf("dist: domain %d fragment index %d out of range [0,%d)", domainID, fr.Index, len(local))
				}
				i := local[fr.Index]
				if delivered[i] {
					return fmt.Errorf("dist: domain %d delivered pair %d twice", domainID, i)
				}
				delivered[i] = true
				deliveredCount++
				c.streamResults.Add(1)
				events <- streamEvent{global: indices[i], res: fr.Result}
			}
			return nil
		})
		if err == nil {
			if deliveredCount == n {
				return nil
			}
			// A clean trailer with pairs missing is a protocol violation;
			// re-request the remainder like any failed attempt.
			err = fmt.Errorf("dist: domain %d stream ended after %d of %d results", domainID, deliveredCount, n)
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrNoSuchDomain) {
			// Leader misconfiguration (more cluster domains than the
			// transport serves): deterministic, so retrying is pointless,
			// and absorbing it into the fallback would permanently and
			// silently un-distribute part of every embedding. Fail loudly.
			return err
		}
		if errors.Is(err, ErrGraphMismatch) {
			// A re-send sees the same graphs; go straight to the fallback.
			break
		}
		if deliveredCount > 0 {
			subReq, subLocal = undeliveredRemainder(req, delivered)
		}
	}
	if c.cfg.DisableFallback {
		return fmt.Errorf("dist: domain %d failed past retry budget %d: %w",
			domainID, c.cfg.RetryBudget, lastErr)
	}
	fbReq, fbLocal := undeliveredRemainder(req, delivered)
	results, err := c.fallbackOracle().Chains(ctx, req.VMs, fbReq.Pairs, req.ChainLen, req.Parallelism)
	if err != nil {
		return err
	}
	for j, r := range WireResults(results) {
		events <- streamEvent{global: indices[fbLocal[j]], res: r}
	}
	return nil
}

// undeliveredRemainder builds the retry sub-request covering exactly the
// pairs the previous attempts did not deliver, plus the map from the
// sub-request's pair indices back to the original request's.
func undeliveredRemainder(req *CandidateRequest, delivered []bool) (*CandidateRequest, []int) {
	sub := *req
	sub.Pairs = nil
	var local []int
	for i, d := range delivered {
		if !d {
			sub.Pairs = append(sub.Pairs, req.Pairs[i])
			local = append(local, i)
		}
	}
	return &sub, local
}
