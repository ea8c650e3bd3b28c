package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sof/internal/chain"
	"sof/internal/graph"
	"sof/internal/steiner"
)

// auxGraph is the Steiner instance Ĝ of Procedure 3: the original network
// plus a virtual super-source ŝ, one duplicate per source (VS), one
// duplicate per VM (VM̂), zero-cost edges ŝ–v̂ and û–u, and one virtual edge
// v̂–û per feasible candidate service chain, weighted by the chain's total
// cost. Ĝ is an overlay on the live network: the virtual nodes and edges
// are appended with the ids a copy of the network would give them, and
// the network itself is neither copied nor modified.
type auxGraph struct {
	g    *graph.Overlay // the augmented graph
	sHat graph.NodeID
	// srcDup maps each source to its duplicate v̂; vmDup maps each VM to û.
	srcDup map[graph.NodeID]graph.NodeID
	vmDup  map[graph.NodeID]graph.NodeID
	// chains maps a virtual EdgeID to its candidate service chain.
	chains map[graph.EdgeID]*chain.ServiceChain
	// dupToVM maps û back to its real VM u.
	dupToVM map[graph.NodeID]graph.NodeID
	// origNodes is the node count of the original graph; nodes below this
	// threshold are real.
	origNodes int
	origEdges int
}

// newAuxSkeleton constructs Ĝ's candidate-independent part as an overlay
// on g, without copying it: ŝ, the source and VM duplicates, and their
// zero-cost structural edges. For chainLen == 0 the sources connect to
// their duplicates directly (the problem degenerates to a Steiner forest)
// and no VM duplicates exist. Everything is appended in request order —
// ŝ, then each source's duplicate and ŝ–v̂ edge, then the v̂–v edges or
// each VM's duplicate and û–u edge — so every build of one request
// assigns the same ids. Candidate edges are added afterwards — all at
// once by buildAuxGraph, or one at a time by AuxGraphBuilder as a
// streamed candidate arrives.
func newAuxSkeleton(g *graph.Graph, sources, vms []graph.NodeID, chainLen int) *auxGraph {
	aux := &auxGraph{
		g:         graph.NewOverlay(g),
		srcDup:    make(map[graph.NodeID]graph.NodeID, len(sources)),
		vmDup:     make(map[graph.NodeID]graph.NodeID, len(vms)),
		chains:    make(map[graph.EdgeID]*chain.ServiceChain),
		dupToVM:   make(map[graph.NodeID]graph.NodeID, len(vms)),
		origNodes: g.NumNodes(),
		origEdges: g.NumEdges(),
	}
	aux.sHat = aux.g.AddSwitch()
	uniq := make([]graph.NodeID, 0, len(sources))
	for _, s := range sources {
		if _, ok := aux.srcDup[s]; ok {
			continue
		}
		d := aux.g.AddSwitch()
		aux.srcDup[s] = d
		uniq = append(uniq, s)
		aux.g.MustAddEdge(aux.sHat, d, 0)
	}
	if chainLen == 0 {
		// Degenerate: ŝ–v̂–v with zero cost; anchors are the sources.
		for _, s := range uniq {
			aux.g.MustAddEdge(aux.srcDup[s], s, 0)
		}
		return aux
	}
	for _, u := range vms {
		if _, ok := aux.vmDup[u]; ok {
			continue
		}
		d := aux.g.AddSwitch()
		aux.vmDup[u] = d
		aux.dupToVM[d] = u
		aux.g.MustAddEdge(d, u, 0)
	}
	return aux
}

// buildAuxGraph constructs Ĝ. For chainLen == 0 the sources connect to
// their duplicates directly (the problem degenerates to a Steiner forest).
// Candidate chains for all (source, last VM) pairs are generated
// concurrently through the oracle's fan-out pool; infeasible pairs
// (unreachable or too few VMs) are skipped.
func buildAuxGraph(ctx context.Context, g *graph.Graph, oracle *chain.Oracle, sources, vms []graph.NodeID, chainLen, parallelism int) (*auxGraph, error) {
	aux := newAuxSkeleton(g, sources, vms, chainLen)
	if chainLen == 0 {
		return aux, nil
	}
	results, err := oracle.Chains(ctx, vms, chain.Pairs(sources, vms), chainLen, parallelism)
	if err != nil {
		return nil, err
	}
	feasible := 0
	for _, r := range results {
		if r.Err != nil {
			continue // unreachable or too few VMs via this pair
		}
		id := aux.g.MustAddEdge(aux.srcDup[r.Pair.Source], aux.vmDup[r.Pair.LastVM], r.Chain.TotalCost())
		aux.chains[id] = r.Chain
		feasible++
	}
	if feasible == 0 {
		return nil, errors.New("core: no feasible candidate service chain for any (source, last VM) pair")
	}
	return aux, nil
}

// AuxGraphBuilder assembles Ĝ incrementally from candidate chains as they
// arrive: the distributed leader (Section VI) feeds it fragment by
// fragment while slower domains are still solving, and finalizes into the
// same completion path SOFDACtx uses.
// Feed candidates with AddCandidate in the centralized enumeration order
// and finish with Complete; the resulting forest is identical to handing
// the same candidates to SOFDAFromCandidatesCtx at once.
//
// With EnablePruning, dominated candidates are rejected on arrival and
// never allocate aux-graph state (no overlay edge, no chain entry).
// The prune rule is chosen so the final forest cost is provably unchanged:
// an arriving candidate (s,u) with chain cost w is dominated when some
// already-accepted candidate (s,u′) of the same source with cost w′
// satisfies both
//
//	w > w′ + dist(u′,u)                      (strictly), and
//	w + mst(u) > w′ + mst(u′)                (strictly),
//
// where dist is the real network's shortest-path metric and mst(x) the
// metric-closure MST over {x} ∪ destinations. The first inequality makes
// every Ĝ path through the pruned virtual edge strictly worse than the
// bypass v̂ₛ→û_u′→u′⇝u→û_u, so no shortest path (and hence no KMB closure
// entry or expansion) ever uses it; the second keeps it from winning the
// per-source single-tree refinement, whose candidates are ranked by
// exactly w + mst(u). Witnesses are themselves accepted candidates, so
// the bypass survives in Ĝ.
type AuxGraphBuilder struct {
	g      *graph.Graph
	req    Request
	o      Options
	vms    []graph.NodeID
	oracle *chain.Oracle
	aux    *auxGraph

	pruning   bool
	destTrees map[graph.NodeID]*graph.ShortestPaths
	mst       map[graph.NodeID]float64
	accepted  map[graph.NodeID][]auxCand

	added, pruned int
}

// auxCand is one accepted candidate in the builder's per-source dominance
// index: its last VM, chain cost, and single-tree rank (cost + mst).
type auxCand struct {
	lastVM graph.NodeID
	cost   float64
	rank   float64
}

// NewAuxGraphBuilder validates the request and builds Ĝ's skeleton. It
// requires chainLen >= 1: with no chains to stream, the problem is a plain
// Steiner forest and SOFDACtx solves it directly.
func NewAuxGraphBuilder(g *graph.Graph, req Request, opts *Options) (*AuxGraphBuilder, error) {
	if err := req.Validate(g); err != nil {
		return nil, err
	}
	if req.ChainLen < 1 {
		return nil, errors.New("core: aux-graph builder requires chainLen >= 1 (chainLen 0 degenerates to a Steiner forest)")
	}
	o := optsOrDefault(opts)
	b := &AuxGraphBuilder{g: g, req: req, o: o}
	b.vms = o.vms(g)
	b.oracle = o.oracle(g)
	b.aux = newAuxSkeleton(g, req.Sources, b.vms, req.ChainLen)
	return b, nil
}

// EnablePruning arms early dominated-candidate rejection. It warms and
// pins the per-destination shortest-path trees the rule's mst term needs —
// trees the completion phase's refinement pulls from the same oracle
// anyway, so under a session oracle the work is paid once. The warm pass
// is batched (one arena, one CSR fetch) and miss-neutral, so oracle
// counters match a demand-faulted session; ctx scopes it to the embedding
// (nil is normalized like every other Ctx entry point).
func (b *AuxGraphBuilder) EnablePruning(ctx context.Context) {
	if b.pruning {
		return
	}
	b.pruning = true
	b.oracle.WarmTrees(ctxOrBackground(ctx), b.req.Dests)
	b.destTrees = make(map[graph.NodeID]*graph.ShortestPaths, len(b.req.Dests))
	for _, d := range b.req.Dests {
		b.destTrees[d] = b.oracle.Tree(d)
	}
	b.mst = make(map[graph.NodeID]float64)
	b.accepted = make(map[graph.NodeID][]auxCand)
}

// closure returns the memoized metric-closure MST cost over {u} ∪ dests.
func (b *AuxGraphBuilder) closure(u graph.NodeID) float64 {
	if c, ok := b.mst[u]; ok {
		return c
	}
	c := closureMST(u, b.req.Dests, b.destTrees)
	b.mst[u] = c
	return c
}

// dominated reports whether an arriving candidate is pruned under the
// builder's rule; rank is its precomputed cost + mst term.
func (b *AuxGraphBuilder) dominated(s, u graph.NodeID, w, rank float64) bool {
	for _, c := range b.accepted[s] {
		// dist(u′,u) comes from the oracle's cached tree rooted at u′; an
		// unreachable u yields +Inf and the strict inequality keeps the
		// candidate. dist(u,u) == 0 keeps duplicate pairs too (equal cost
		// never strictly exceeds), matching the batch builder, which adds
		// duplicate edges verbatim.
		if w > c.cost+b.oracle.Tree(c.lastVM).Dist[u] && rank > c.rank {
			return true
		}
	}
	return false
}

// AddCandidate feeds one candidate chain into Ĝ. It reports whether the
// chain was admitted: nil chains and wrong-length chains are skipped (as
// the batch path skips them), and with pruning enabled a dominated
// candidate is rejected without allocating any aux-graph state. Chains
// from sources or to VMs outside the request are an error.
func (b *AuxGraphBuilder) AddCandidate(sc *chain.ServiceChain) (bool, error) {
	if sc == nil || len(sc.VMs) != b.req.ChainLen {
		return false, nil
	}
	sd, ok := b.aux.srcDup[sc.Source]
	if !ok {
		return false, fmt.Errorf("core: candidate chain from unknown source %d", sc.Source)
	}
	ud, ok := b.aux.vmDup[sc.LastVM]
	if !ok {
		return false, fmt.Errorf("core: candidate chain to unknown VM %d", sc.LastVM)
	}
	w := sc.TotalCost()
	if b.pruning {
		rank := w + b.closure(sc.LastVM)
		if b.dominated(sc.Source, sc.LastVM, w, rank) {
			b.pruned++
			return false, nil
		}
		b.accepted[sc.Source] = append(b.accepted[sc.Source], auxCand{lastVM: sc.LastVM, cost: w, rank: rank})
	}
	id := b.aux.g.MustAddEdge(sd, ud, w)
	b.aux.chains[id] = sc
	b.added++
	return true, nil
}

// Added returns the number of candidates admitted into Ĝ.
func (b *AuxGraphBuilder) Added() int { return b.added }

// Pruned returns the number of candidates rejected as dominated.
func (b *AuxGraphBuilder) Pruned() int { return b.pruned }

// Complete runs the shared tail of Algorithm 2 (Steiner phase, forest
// assembly, per-source refinement) over the incrementally built Ĝ.
func (b *AuxGraphBuilder) Complete(ctx context.Context) (*Forest, error) {
	if b.added == 0 {
		return nil, errors.New("core: no feasible candidate service chain supplied")
	}
	return completeForest(ctxOrBackground(ctx), b.g, b.oracle, b.vms, b.req, b.aux)
}

// SOFDAFromCandidatesCtx runs Algorithm 2's Steiner, conflict-resolution,
// and assembly phases over externally supplied candidate chains. It is the
// leader-side entry point of the distributed implementation (Section VI);
// SOFDACtx itself is equivalent to computing all |S|·|M| candidates
// centrally and calling this. ctx is observed between the Steiner,
// assembly, and per-source refinement phases.
func SOFDAFromCandidatesCtx(ctx context.Context, g *graph.Graph, req Request, opts *Options, candidates []*chain.ServiceChain) (*Forest, error) {
	ctx = ctxOrBackground(ctx)
	if req.ChainLen == 0 {
		if err := req.Validate(g); err != nil {
			return nil, err
		}
		return SOFDACtx(ctx, g, req, opts)
	}
	b, err := NewAuxGraphBuilder(g, req, opts)
	if err != nil {
		return nil, err
	}
	for _, sc := range candidates {
		if _, err := b.AddCandidate(sc); err != nil {
			return nil, err
		}
	}
	return b.Complete(ctx)
}

// completeForest runs the shared tail of Algorithm 2 over a built Ĝ: the
// Steiner phase, forest assembly, and the per-source single-tree
// refinement. Both the centralized SOFDA and the distributed leader end
// here, which is what makes their costs provably identical on equal Ĝ.
//
// The Steiner phase is KMB over {ŝ} ∪ dests on Ĝ with one shortest-path
// run on Ĝ: ŝ's, which may stop once every destination is settled (see
// sourceRow). If it misses a destination, the phase fails before it touches
// the oracle. Every destination's closure row is the oracle's
// shortest-path tree over the real network — the trees the refinement
// reads anyway, so a warm session answers them from cache and the
// refinement reuses them. The tree is the one full Ĝ rows would give:
//
//   - ŝ is connected first, so while a destination d′ is still open its
//     Prim key is at most dist_Ĝ(ŝ,d′).
//   - Every Ĝ route through a virtual node passes a source duplicate v̂,
//     and dist_Ĝ(ŝ,v̂) = 0, so a d→d′ route through a virtual node costs
//     at least dist_Ĝ(ŝ,d′).
//   - Prim takes closure edge (d,d′) only when its cost is strictly below
//     that key. That path is therefore real and strictly cheaper than any
//     virtual route, and so is the prefix to every node on it. A virtual
//     shortcut never updates a key, in Ĝ or in the real network.
//   - The heap pops by (dist, id), and delta-stepping is bit-identical to
//     the heap. The overlay keeps a clone's node ids, edge ids and arc
//     order. So the oracle's tree from d has the Ĝ tree's distances and
//     parents along every path that Prim and the expansion read.
//   - The same argument holds for chainLen 0, where the sources hang off
//     their v̂ by zero-cost edges.
//
// Ĝ reads the live network when the phase runs, as the oracle does, so
// under concurrent cost or failure writers both see the same epoch's
// state only when no write lands in between.
func completeForest(ctx context.Context, g *graph.Graph, oracle *chain.Oracle, vms []graph.NodeID, req Request, aux *auxGraph) (*Forest, error) {
	tree, destTrees, err := steinerPhase(g, oracle, req.Dests, aux)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	best, err := assembleForest(g, oracle, vms, req, aux, tree.Edges)
	if err != nil {
		return nil, err
	}
	if req.ChainLen == 0 {
		return best, nil
	}
	// Refinement: the KMB tree on Ĝ is one ρST-approximate Steiner tree;
	// any other feasible tree of Ĝ is equally admissible. For each source,
	// evaluate the single-chain tree built from its cheapest candidate
	// chain (the Ĝ tree that uses exactly one virtual edge) and keep the
	// cheapest assembled forest. This keeps the 3ρST guarantee — the KMB
	// candidate is never discarded for a worse one — while shaving the
	// 2-approximation noise on instances where one tree is optimal.
	for _, s := range req.Sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cand := bestSingleTree(g, oracle, aux, s, req, destTrees)
		if cand == nil {
			continue
		}
		f, err := assembleForest(g, oracle, vms, req, aux, cand)
		if err != nil {
			continue
		}
		if f.TotalCost() < best.TotalCost() {
			best = f
		}
	}
	return best, nil
}

// steinerPhase computes the Steiner tree over {ŝ} ∪ dests on Ĝ, an
// overlay on g (see completeForest), and returns it with the
// destinations' oracle trees.
func steinerPhase(g *graph.Graph, oracle *chain.Oracle, dests []graph.NodeID, aux *auxGraph) (*steiner.Tree, map[graph.NodeID]*graph.ShortestPaths, error) {
	terminals := append([]graph.NodeID{aux.sHat}, dests...)
	rows := &steinerRows{
		sHat:   aux.sHat,
		sHatSP: sourceRow(g, aux.g, aux.sHat, dests),
		oracle: oracle,
		dests:  make(map[graph.NodeID]*graph.ShortestPaths, len(dests)),
	}
	if err := steiner.Unreachable(rows.sHatSP, terminals); err != nil {
		return nil, nil, fmt.Errorf("core: SOFDA Steiner phase: %w", err)
	}
	tree, err := steiner.KMBWith(aux.g, terminals, &steiner.KMBOptions{Provider: rows})
	if err != nil {
		return nil, nil, fmt.Errorf("core: SOFDA Steiner phase: %w", err)
	}
	return tree, rows.dests, nil
}

// sourceRow returns the row of Ĝ's virtual source ŝ, exact at every
// destination and along every destination's path. aux is Ĝ as an overlay
// on g, in the shape newAuxSkeleton and the candidate builders give it:
// ŝ appended first, each source duplicate v̂ hung off ŝ by a zero-cost
// edge, and after them either each VM's duplicate û with its zero-cost
// edge û–u and the candidate edges v̂–û, or, at chain length 0, the
// zero-cost edges v̂–s. The Steiner phase reads it, and so does the
// benchmark that times it.
//
// When g admits a seeded run from Ĝ's seeds (graph.DijkstraSeeded: a
// bucket width, which a zero-cost or absorbed arc rules out, and no arc
// whose cost a distance of the run absorbs, a seed's included), Ĝ's few
// virtual rows are filled here, and the run settles the network from the
// seeds they imply until every destination is settled. Otherwise the
// overlay heap runs over Ĝ in full.
//
// The virtual rows are the heap run's. ŝ pops first, at 0, and hands
// every v̂ distance 0 over its zero-cost edge. The v̂ pop next, in id
// order, and relax their candidate edges in insertion order, so each û
// takes its cheapest candidate, the first one met on an equal cost. Every
// v̂ sits at 0, so a route real → û → v̂ → û′ never improves anything.
// The only virtual → real arcs are the zero-cost û–u (or, at chain
// length 0, v̂–s), so the rest of the run is a run over the network from
// seeds: each VM at its û's distance with û as its parent (each source at
// 0 below its v̂). The network's only arcs back into Ĝ's virtual part are
// the u–û, which give û distance Dist(u) and parent u where that is
// strictly smaller.
func sourceRow(g *graph.Graph, aux *graph.Overlay, sHat graph.NodeID, dests []graph.NodeID) *graph.ShortestPaths {
	n, n0 := aux.NumNodes(), graph.NodeID(g.NumNodes())
	sp := &graph.ShortestPaths{
		Source:     sHat,
		Dist:       make([]float64, n),
		Parent:     make([]graph.NodeID, n),
		ParentEdge: make([]graph.EdgeID, n),
	}
	for i := range sp.Dist {
		sp.Dist[i], sp.Parent[i], sp.ParentEdge[i] = math.Inf(1), graph.None, graph.NoEdge
	}
	sp.Dist[sHat] = 0
	srcDups := aux.Adj(sHat)
	for _, a := range srcDups {
		sp.Dist[a.To], sp.Parent[a.To], sp.ParentEdge[a.To] = 0, sHat, a.Edge
	}
	for _, a := range srcDups {
		for _, c := range aux.Adj(a.To) {
			if c.To == sHat || c.To < n0 {
				continue
			}
			if w := aux.Edge(c.Edge).Cost; w < sp.Dist[c.To] {
				sp.Dist[c.To], sp.Parent[c.To], sp.ParentEdge[c.To] = w, a.To, c.Edge
			}
		}
	}
	seeds := make([]graph.NodeID, 0, n-int(sHat)-1)
	for x := sHat + 1; int(x) < n; x++ {
		if math.IsInf(sp.Dist[x], 1) {
			continue
		}
		for _, c := range aux.Adj(x) {
			if c.To < n0 {
				sp.Dist[c.To], sp.Parent[c.To], sp.ParentEdge[c.To] = sp.Dist[x], x, c.Edge
				seeds = append(seeds, c.To)
			}
		}
	}
	if !graph.DijkstraSeeded(g, sp, seeds, dests) {
		return aux.Dijkstra(sHat)
	}
	for x := sHat + 1; int(x) < n; x++ {
		for _, c := range aux.Adj(x) {
			if c.To < n0 && sp.Dist[c.To] < sp.Dist[x] {
				sp.Dist[x], sp.Parent[x], sp.ParentEdge[x] = sp.Dist[c.To], c.To, c.Edge
			}
		}
	}
	return sp
}

// steinerRows answers the Steiner phase's closure queries: ŝ with its
// row over Ĝ (see sourceRow), and each destination with the oracle's tree
// over the real network, which it keeps for the refinement.
type steinerRows struct {
	sHat   graph.NodeID
	sHatSP *graph.ShortestPaths
	oracle *chain.Oracle
	dests  map[graph.NodeID]*graph.ShortestPaths
}

func (r *steinerRows) Tree(n graph.NodeID) *graph.ShortestPaths {
	if n == r.sHat {
		return r.sHatSP
	}
	sp := r.oracle.Tree(n)
	r.dests[n] = sp
	return sp
}

// isReal reports whether n is a node of the original network.
func (a *auxGraph) isReal(n graph.NodeID) bool { return int(n) < a.origNodes }

// isRealEdge reports whether e is an edge of the original network.
func (a *auxGraph) isRealEdge(e graph.EdgeID) bool { return int(e) < a.origEdges }

// SOFDACtx is Algorithm 2: the 3ρST-approximation for the general SOF
// problem with multiple sources. It builds Ĝ, extracts a Steiner tree
// spanning ŝ and all destinations, materializes the selected candidate
// chains as walks (resolving VNF conflicts per Procedure 4), and attaches
// the tree's real-edge components to the walks' last VMs. The |S|·|M|
// candidate chains of Procedure 3 are computed on a worker pool bounded
// by opts.Parallelism, and ctx is observed throughout.
func SOFDACtx(ctx context.Context, g *graph.Graph, req Request, opts *Options) (*Forest, error) {
	ctx = ctxOrBackground(ctx)
	if err := req.Validate(g); err != nil {
		return nil, err
	}
	o := optsOrDefault(opts)
	vms := o.vms(g)
	oracle := o.oracle(g)

	aux, err := buildAuxGraph(ctx, g, oracle, req.Sources, vms, req.ChainLen, o.Parallelism)
	if err != nil {
		return nil, err
	}
	return completeForest(ctx, g, oracle, vms, req, aux)
}

// bestSingleTree returns Ĝ tree edges for the cheapest single-chain
// solution rooted at s: its best virtual edge (v̂,û) plus a KMB tree over
// {u} ∪ dests, the virtual edge last, or nil when infeasible. Candidates
// are ranked by chain cost + the metric-closure MST over {u} ∪ dests
// (KMB's own upper bound) in Ĝ adjacency order, so the first strict
// minimum wins, and only the winner gets a full KMB run.
func bestSingleTree(g *graph.Graph, oracle *chain.Oracle, aux *auxGraph, s graph.NodeID, req Request, destTrees map[graph.NodeID]*graph.ShortestPaths) []graph.EdgeID {
	sHatDup, ok := aux.srcDup[s]
	if !ok {
		return nil
	}
	winner := graph.NoEdge
	var winnerChain *chain.ServiceChain
	bestCost := 0.0
	for _, a := range aux.g.Adj(sHatDup) {
		sc, ok := aux.chains[a.Edge]
		if !ok {
			continue
		}
		r := sc.TotalCost() + closureMST(sc.LastVM, req.Dests, destTrees)
		if winner == graph.NoEdge || r < bestCost {
			winner, winnerChain, bestCost = a.Edge, sc, r
		}
	}
	if winner == graph.NoEdge {
		return nil
	}
	tree, err := steiner.KMBWith(g, append([]graph.NodeID{winnerChain.LastVM}, req.Dests...),
		&steiner.KMBOptions{Provider: oracle})
	if err != nil {
		return nil
	}
	edges := append([]graph.EdgeID(nil), tree.Edges...)
	return append(edges, winner)
}

// closureMST is the MST cost of the metric closure over {u} ∪ dests, using
// precomputed per-destination shortest-path trees. It is KMB's upper bound
// on its Steiner tree over {u} ∪ dests and, scaled by t/(2(t−1)) for
// t = len(dests)+1 terminals, a lower bound on any such tree (see
// bestLastVM).
func closureMST(u graph.NodeID, dests []graph.NodeID, destTrees map[graph.NodeID]*graph.ShortestPaths) float64 {
	nodes := append([]graph.NodeID{u}, dests...)
	const inf = math.MaxFloat64
	inTree := make([]bool, len(nodes))
	minCost := make([]float64, len(nodes))
	for i := range minCost {
		minCost[i] = inf
	}
	minCost[0] = 0
	total := 0.0
	dist := func(i, j int) float64 {
		// At least one of the pair is a destination with a full tree.
		if i > 0 {
			return destTrees[nodes[i]].Dist[nodes[j]]
		}
		return destTrees[nodes[j]].Dist[nodes[i]]
	}
	for iter := 0; iter < len(nodes); iter++ {
		best := -1
		for i := range nodes {
			if !inTree[i] && (best < 0 || minCost[i] < minCost[best]) {
				best = i
			}
		}
		inTree[best] = true
		if minCost[best] < inf {
			total += minCost[best]
		}
		for i := range nodes {
			if !inTree[i] {
				if d := dist(best, i); d < minCost[i] {
					minCost[i] = d
				}
			}
		}
	}
	return total
}

// assembleForest converts a Steiner tree in Ĝ into a feasible service
// overlay forest (Algorithm 2 steps 3–9).
func assembleForest(g *graph.Graph, oracle *chain.Oracle, vms []graph.NodeID, req Request, aux *auxGraph, treeEdges []graph.EdgeID) (*Forest, error) {
	// Partition the tree's edges: real edges form the distribution
	// components; virtual ESM edges select candidate chains.
	var realEdges []graph.EdgeID
	type anchorInfo struct {
		sc *chain.ServiceChain // nil for chainLen==0 source anchors
		at graph.NodeID        // real anchor node
	}
	var anchors []anchorInfo
	seenAnchor := make(map[graph.NodeID]bool)
	for _, id := range treeEdges {
		if aux.isRealEdge(id) {
			realEdges = append(realEdges, id)
			continue
		}
		if sc, ok := aux.chains[id]; ok {
			// Two chains may target the same last VM when the Steiner tree
			// routes through û as a junction; conflict resolution merges
			// them via same-index sharing, so both are added.
			anchors = append(anchors, anchorInfo{sc: sc, at: sc.LastVM})
			continue
		}
		// Zero-cost structural edges (ŝ–v̂, û–u, and for chainLen==0 the
		// v̂–v edges). The v̂–v edges identify source anchors.
		e := aux.g.Edge(id)
		if req.ChainLen == 0 {
			for s, d := range aux.srcDup {
				if (e.U == d && e.V == s) || (e.V == d && e.U == s) {
					if !seenAnchor[s] {
						seenAnchor[s] = true
						anchors = append(anchors, anchorInfo{at: s})
					}
				}
			}
		}
	}
	if len(anchors) == 0 {
		return nil, errors.New("core: Steiner tree selected no candidate chain")
	}
	// Deterministic order: cheaper chains first so expensive walks attach
	// to established prefixes.
	sort.SliceStable(anchors, func(i, j int) bool {
		ci, cj := 0.0, 0.0
		if anchors[i].sc != nil {
			ci = anchors[i].sc.TotalCost()
		}
		if anchors[j].sc != nil {
			cj = anchors[j].sc.TotalCost()
		}
		if ci != cj {
			return ci < cj
		}
		return anchors[i].at < anchors[j].at
	})

	f := NewForest(g, req.ChainLen)
	res := newResolver(f, oracle, vms)
	anchorClone := make(map[graph.NodeID]CloneID, len(anchors))
	for _, a := range anchors {
		if a.sc == nil {
			anchorClone[a.at] = f.newRoot(a.at)
			continue
		}
		last, err := res.AddWalk(a.sc)
		if err != nil {
			return nil, fmt.Errorf("core: adding walk %d→%d: %w", a.sc.Source, a.sc.LastVM, err)
		}
		anchorClone[a.at] = last
	}

	// Group real tree edges into connected components and attach each to
	// its unique anchor.
	destSet := make(map[graph.NodeID]bool, len(req.Dests))
	for _, d := range req.Dests {
		destSet[d] = true
	}
	comps := componentsOf(g, realEdges)
	served := 0
	for _, comp := range comps {
		anchor := graph.None
		for n := range comp.nodes {
			if _, ok := anchorClone[n]; ok {
				if anchor != graph.None {
					return nil, fmt.Errorf("core: tree component holds two anchors (%d, %d)", anchor, n)
				}
				//sofvet:ignore detorder at most one anchor exists per component (two is an error above), so no tie for map order to break
				anchor = n
			}
		}
		if anchor == graph.None {
			// A component not reachable from any chain: tolerated only if
			// it serves no destination (pruned dead weight).
			for n := range comp.nodes {
				if destSet[n] {
					return nil, fmt.Errorf("core: destination %d in component with no anchor", n)
				}
			}
			continue
		}
		n, err := f.AttachTree(anchorClone[anchor], comp.edges, destSet)
		if err != nil {
			return nil, err
		}
		served += n
	}
	// Destinations that coincide with an anchor node are served directly.
	for _, d := range req.Dests {
		if _, ok := f.dests[d]; ok {
			continue
		}
		if c, ok := anchorClone[d]; ok {
			f.MarkDestination(d, c)
			served++
		}
	}
	if served < len(req.Dests) {
		return nil, fmt.Errorf("core: only %d of %d destinations attached", served, len(req.Dests))
	}
	f.Prune()
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		return nil, fmt.Errorf("core: SOFDA produced infeasible forest: %w", err)
	}
	return f, nil
}

// component is a connected set of real edges with its node set.
type component struct {
	nodes map[graph.NodeID]bool
	edges []graph.EdgeID
}

// componentsOf groups edges into connected components.
func componentsOf(g *graph.Graph, edges []graph.EdgeID) []*component {
	parent := make(map[graph.NodeID]graph.NodeID)
	var find func(x graph.NodeID) graph.NodeID
	find = func(x graph.NodeID) graph.NodeID {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		return parent[x]
	}
	for _, id := range edges {
		e := g.Edge(id)
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
		}
	}
	byRoot := make(map[graph.NodeID]*component)
	for _, id := range edges {
		e := g.Edge(id)
		r := find(e.U)
		c, ok := byRoot[r]
		if !ok {
			c = &component{nodes: make(map[graph.NodeID]bool)}
			byRoot[r] = c
		}
		c.edges = append(c.edges, id)
		c.nodes[e.U] = true
		c.nodes[e.V] = true
	}
	out := make([]*component, 0, len(byRoot))
	roots := make([]graph.NodeID, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}
