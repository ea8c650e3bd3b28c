package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"sof/internal/chain"
	"sof/internal/graph"
	"sof/internal/steiner"
)

// Request describes one SOF embedding problem: a set of candidate sources,
// a set of destinations all demanding the same VNF chain, and the chain
// length |C|.
type Request struct {
	Sources  []graph.NodeID
	Dests    []graph.NodeID
	ChainLen int
}

// Validate checks the request against the network.
func (r *Request) Validate(g *graph.Graph) error {
	if len(r.Sources) == 0 {
		return errors.New("core: request has no sources")
	}
	if len(r.Dests) == 0 {
		return errors.New("core: request has no destinations")
	}
	if r.ChainLen < 0 {
		return fmt.Errorf("core: negative chain length %d", r.ChainLen)
	}
	for _, s := range r.Sources {
		if !g.Valid(s) {
			return fmt.Errorf("core: source %d out of range", s)
		}
	}
	for _, d := range r.Dests {
		if !g.Valid(d) {
			return fmt.Errorf("core: destination %d out of range", d)
		}
	}
	return nil
}

// Options configure the embedding algorithms.
type Options struct {
	// Chain configures the chain oracle (k-stroll solver, Appendix D
	// source costs). Ignored when Oracle is set.
	Chain chain.Options
	// Oracle, when non-nil, is used instead of constructing a throwaway
	// oracle per call. It must be an oracle over the same graph the
	// algorithm runs on; long-lived callers (sof.Solver, the distributed
	// domains) share one so Dijkstra trees computed for earlier requests
	// stay warm across a request stream (epoch-keyed, see chain.Oracle).
	Oracle *chain.Oracle
	// VMs restricts the candidate VM set; all VMs of the graph when nil.
	VMs []graph.NodeID
	// Parallelism bounds the worker pool used for candidate-chain
	// generation: GOMAXPROCS when <= 0, sequential when 1. The Steiner
	// phase over Ĝ runs on the calling goroutine at any value.
	Parallelism int
}

func (o *Options) vms(g *graph.Graph) []graph.NodeID {
	if o != nil && o.VMs != nil {
		return o.VMs
	}
	return g.VMs()
}

func optsOrDefault(opts *Options) Options {
	if opts == nil {
		return Options{}
	}
	return *opts
}

// oracle returns the shared oracle when the caller supplied one, or a
// fresh single-use oracle over g otherwise.
func (o *Options) oracle(g *graph.Graph) *chain.Oracle {
	if o != nil && o.Oracle != nil {
		return o.Oracle
	}
	return chain.NewOracle(g, o.Chain)
}

// ctxOrBackground normalizes a nil context; every exported Ctx entry point
// tolerates nil the same way chain.Oracle.Chains does.
func ctxOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// SOFDASSCtx is Algorithm 1: the (2+ρST)-approximation for the
// single-source SOF problem. For every candidate last VM u it builds the
// minimum-cost service chain s→u via the k-stroll reduction
// (Procedures 1–2), appends a Steiner tree spanning u and all
// destinations, and returns the cheapest resulting forest; a candidate
// whose cost bound shows it cannot win skips its Steiner tree (see
// bestLastVM). Candidate chains for all last VMs are generated
// concurrently on the oracle's fan-out pool (bounded by
// opts.Parallelism), and the per-VM Steiner phase observes ctx between
// candidates.
func SOFDASSCtx(ctx context.Context, g *graph.Graph, source graph.NodeID, dests []graph.NodeID, chainLen int, opts *Options) (*Forest, error) {
	ctx = ctxOrBackground(ctx)
	req := Request{Sources: []graph.NodeID{source}, Dests: dests, ChainLen: chainLen}
	if err := req.Validate(g); err != nil {
		return nil, err
	}
	o := optsOrDefault(opts)
	vms := o.vms(g)
	oracle := o.oracle(g)

	if chainLen == 0 {
		// Degenerate case: no VNFs; the forest is a Steiner tree rooted at
		// the source. Provider-backed and sequential like every other KMB
		// over the real network — warm fetches are cache lookups.
		tree, err := steiner.KMBWith(g, append([]graph.NodeID{source}, dests...),
			&steiner.KMBOptions{Provider: oracle})
		if err != nil {
			return nil, err
		}
		return ssForest(g, source, nil, tree, dests, 0)
	}

	chains, err := oracle.Chains(ctx, vms, chain.Pairs([]graph.NodeID{source}, vms), chainLen, o.Parallelism)
	if err != nil {
		return nil, err
	}
	sc, tree, cost, err := bestLastVM(ctx, g, oracle, chains, dests)
	if err != nil {
		return nil, err
	}
	if err := assertFinite(cost, "SOFDA-SS cost"); err != nil {
		return nil, err
	}

	return ssForest(g, source, sc, tree, dests, chainLen)
}

// ssForest assembles a SOFDA-SS forest over g: sc's walk from source, or
// a bare root at source when sc is nil (a chain of length 0), with tree's
// edges hung off the walk's end, pruned and validated.
func ssForest(g *graph.Graph, source graph.NodeID, sc *chain.ServiceChain, tree *steiner.Tree, dests []graph.NodeID, chainLen int) (*Forest, error) {
	f := NewForest(g, chainLen)
	last := NoClone
	if sc == nil {
		last = f.newRoot(source)
	} else {
		var err error
		if last, _, err = f.AttachChainWalk(sc); err != nil {
			return nil, err
		}
	}
	destSet := make(map[graph.NodeID]bool, len(dests))
	for _, d := range dests {
		destSet[d] = true
	}
	if _, err := f.AttachTree(last, tree.Edges, destSet); err != nil {
		return nil, err
	}
	f.Prune()
	if err := f.Validate([]graph.NodeID{source}, dests); err != nil {
		return nil, fmt.Errorf("core: SOFDA-SS produced infeasible forest: %w", err)
	}
	return f, nil
}

// boundSlack is the relative slack a lower bound takes off a sum that
// its forest adds up in another order. bestLastVM takes it off a
// candidate's Steiner lower bound, whose distances are Dijkstra sums
// along a path while a tree's cost is summed in edge-id order; SOFDA's
// bestSingleTree takes it off its candidate's setups and links, which
// Forest.Cost sums in clone order. Either pair can disagree in the last
// bits; 1e-9 is far above that rounding and far below any real gap
// between candidates.
const boundSlack = 1e-9

// lastVMCandidate is a feasible chain of Algorithm 1's per-VM loop: its
// index in the chain results, which is the loop's order, and a lower bound
// on the cost of its forest.
type lastVMCandidate struct {
	idx int
	sc  *chain.ServiceChain
	lb  float64
}

// bestLastVM is the per-VM Steiner phase of Algorithm 1 over the chain
// results: for every feasible chain s→u, a KMB tree over {u} ∪ dests. It
// returns the chain, tree and cost that minimize (chain cost + tree cost,
// result index) — the first strict minimum of a scan in result order —
// without running every KMB.
//
// A tree spanning the t = len(dests)+1 terminals costs at least
// OPT ≥ MST·t/(2(t−1)), where MST is the metric-closure MST over the
// terminals (Kou–Markowsky–Berman; duplicate terminals only overcount t,
// which shrinks the factor), and at least dist(u,d) for every
// destination d, since it holds a u–d path. KMB's tree is such a tree, so
// chain cost + the larger of the two, less boundSlack, bounds a
// candidate's cost from below. Candidates run in bound order (stable, so
// the result index breaks ties), and the scan stops at the first bound
// strictly above the best cost so far: that candidate and every later one
// cost strictly more, so none can win or tie.
//
// With no feasible candidate the error is the one the scan in result
// order ends on: the failure with the highest result index. ctx is
// observed between KMB runs.
func bestLastVM(ctx context.Context, g *graph.Graph, oracle *chain.Oracle, results []chain.Result, dests []graph.NodeID) (*chain.ServiceChain, *steiner.Tree, float64, error) {
	var lastErr error
	lastErrIdx := -1
	var cands []lastVMCandidate
	var closure *destClosure
	t := float64(len(dests) + 1)
	for i, r := range results {
		if r.Err != nil {
			lastErr, lastErrIdx = r.Err, i
			continue
		}
		if closure == nil {
			// The first KMB would fetch these trees anyway, once per
			// distinct destination.
			closure = newDestClosure(dests, destTrees(oracle, dests))
		}
		mst, far := closure.mst(r.Chain.LastVM)
		steinerLB := max(mst*t/(2*(t-1)), far)
		cands = append(cands, lastVMCandidate{idx: i, sc: r.Chain, lb: r.Chain.TotalCost() + steinerLB*(1-boundSlack)})
	}
	slices.SortStableFunc(cands, func(a, b lastVMCandidate) int { return cmp.Compare(a.lb, b.lb) })

	var best *lastVMCandidate
	var bestTree *steiner.Tree
	bestCost := 0.0
	terminals := append([]graph.NodeID{graph.None}, dests...)
	kmb := &steiner.KMBOptions{Provider: oracle}
	for i := range cands {
		c := &cands[i]
		if best != nil && c.lb > bestCost {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		terminals[0] = c.sc.LastVM
		tree, err := steiner.KMBWith(g, terminals, kmb)
		if err != nil {
			if c.idx > lastErrIdx {
				lastErr, lastErrIdx = err, c.idx
			}
			continue
		}
		cost := c.sc.TotalCost() + tree.Cost
		if best == nil || cost < bestCost || cost == bestCost && c.idx < best.idx {
			best, bestTree, bestCost = c, tree, cost
		}
	}
	if best == nil {
		if lastErr == nil {
			lastErr = errors.New("core: no feasible last VM")
		}
		return nil, nil, 0, fmt.Errorf("core: SOFDA-SS found no feasible forest: %w", lastErr)
	}
	return best.sc, bestTree, bestCost, nil
}

// lowerBoundCost is a cheap sanity lower bound used in tests: the cost of
// any feasible forest is at least the cheapest chainLen VM setups.
func lowerBoundCost(g *graph.Graph, vms []graph.NodeID, chainLen int) float64 {
	costs := make([]float64, 0, len(vms))
	for _, v := range vms {
		costs = append(costs, g.NodeCost(v))
	}
	if len(costs) < chainLen {
		return 0
	}
	// partial selection sort for the chainLen smallest
	total := 0.0
	for i := 0; i < chainLen; i++ {
		minIdx := i
		for j := i + 1; j < len(costs); j++ {
			if costs[j] < costs[minIdx] {
				minIdx = j
			}
		}
		costs[i], costs[minIdx] = costs[minIdx], costs[i]
		total += costs[i]
	}
	return total
}
