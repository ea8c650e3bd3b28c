package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

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
	// chains[i] is the candidate service chain of edge firstChain+i:
	// AddCandidate appends the candidate edges one after another, after
	// the skeleton.
	chains     []*chain.ServiceChain
	firstChain graph.EdgeID
	// origEdges is the edge count of the original graph; edges below it
	// are real.
	origEdges int
}

// newAuxSkeleton constructs Ĝ's candidate-independent part as an overlay
// on g, without copying it: ŝ, the source and VM duplicates, and their
// zero-cost structural edges. For chainLen == 0 the sources connect to
// their duplicates directly (the problem degenerates to a Steiner forest)
// and no VM duplicates exist. Everything is appended in request order —
// ŝ, then each source's duplicate and ŝ–v̂ edge, then the v̂–v edges or
// each VM's duplicate and û–u edge — so every build of one request
// assigns the same ids. AuxGraphBuilder adds the candidate edges
// afterwards, one at a time.
func newAuxSkeleton(g *graph.Graph, sources, vms []graph.NodeID, chainLen int) *auxGraph {
	aux := &auxGraph{
		g:         graph.NewOverlay(g),
		srcDup:    make(map[graph.NodeID]graph.NodeID, len(sources)),
		vmDup:     make(map[graph.NodeID]graph.NodeID, len(vms)),
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
		aux.g.MustAddEdge(d, u, 0)
	}
	return aux
}

// AuxGraphBuilder assembles Ĝ from candidate chains one at a time, and is
// the only way Ĝ is built: SOFDACtx feeds it the oracle's whole candidate
// batch, and the distributed leader (Section VI) feeds it fragment by
// fragment while slower domains are still solving. Feed candidates with
// AddCandidate in the centralized enumeration order (chain.Pairs) and
// finish with Complete; equal candidates in equal order give equal Ĝ, and
// so equal forests.
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
	vms    []graph.NodeID
	oracle *chain.Oracle
	aux    *auxGraph

	pruning  bool
	dests    *destClosure
	mst      map[graph.NodeID]float64
	accepted map[graph.NodeID][]auxCand

	added, pruned int
}

// auxCand is one accepted candidate in the builder's per-source dominance
// index: its last VM, chain cost, and single-tree rank (cost + mst).
type auxCand struct {
	lastVM graph.NodeID
	cost   float64
	rank   float64
}

// NewAuxGraphBuilder validates the request and builds Ĝ's skeleton. At
// chain length 0 the skeleton is the whole Ĝ (the problem degenerates to
// a Steiner forest): AddCandidate skips every chain, and Complete needs
// none.
func NewAuxGraphBuilder(g *graph.Graph, req Request, opts *Options) (*AuxGraphBuilder, error) {
	if err := req.Validate(g); err != nil {
		return nil, err
	}
	o := optsOrDefault(opts)
	b := &AuxGraphBuilder{g: g, req: req}
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
	trees := make([]*graph.ShortestPaths, len(b.req.Dests))
	for i, d := range b.req.Dests {
		trees[i] = b.oracle.Tree(d)
	}
	b.dests = newDestClosure(b.req.Dests, trees)
	b.mst = make(map[graph.NodeID]float64)
	b.accepted = make(map[graph.NodeID][]auxCand)
}

// closure returns the memoized metric-closure MST cost over {u} ∪ dests.
func (b *AuxGraphBuilder) closure(u graph.NodeID) float64 {
	if c, ok := b.mst[u]; ok {
		return c
	}
	c, _ := b.dests.mst(u)
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
		// never strictly exceeds), as the unpruned builder adds duplicate
		// edges verbatim.
		if w > c.cost+b.oracle.Tree(c.lastVM).Dist[u] && rank > c.rank {
			return true
		}
	}
	return false
}

// AddCandidate feeds one candidate chain into Ĝ. It reports whether the
// chain was admitted: nil chains, wrong-length chains and every chain at
// chain length 0 are skipped, and with pruning enabled a dominated
// candidate is rejected without allocating any aux-graph state. Chains
// from sources or to VMs outside the request are an error.
func (b *AuxGraphBuilder) AddCandidate(sc *chain.ServiceChain) (bool, error) {
	if sc == nil || b.req.ChainLen == 0 || len(sc.VMs) != b.req.ChainLen {
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
	if len(b.aux.chains) == 0 {
		b.aux.firstChain = id
	}
	b.aux.chains = append(b.aux.chains, sc)
	b.added++
	return true, nil
}

// Added returns the number of candidates admitted into Ĝ.
func (b *AuxGraphBuilder) Added() int { return b.added }

// Pruned returns the number of candidates rejected as dominated.
func (b *AuxGraphBuilder) Pruned() int { return b.pruned }

// Complete runs the shared tail of Algorithm 2 (Steiner phase, forest
// assembly, per-source refinement) over the built Ĝ. At chain length 1 or
// more it needs at least one admitted candidate.
func (b *AuxGraphBuilder) Complete(ctx context.Context) (*Forest, error) {
	if b.added == 0 && b.req.ChainLen > 0 {
		return nil, errors.New("core: no feasible candidate service chain for any (source, last VM) pair")
	}
	return completeForest(ctxOrBackground(ctx), b.g, b.oracle, b.vms, b.req, b.aux)
}

// completeForest runs the shared tail of Algorithm 2 over a built Ĝ: the
// Steiner phase, forest assembly, and the per-source single-tree
// refinement. Both the centralized SOFDA and the distributed leader end
// here, which is what makes their costs provably identical on equal Ĝ.
// It validates the KMB forest, and a refinement candidate only once it
// would replace the kept forest; it skips the candidates that cannot.
//
// The Steiner phase is KMB over {ŝ} ∪ dests on Ĝ with one shortest-path
// run on Ĝ: ŝ's, confined to the few nodes within rounding of a shortest
// path to a destination (see sourceRow). If no seed reaches a
// destination, the phase fails before it fetches any destination tree.
// Every destination's closure row is the oracle's shortest-path tree
// over the real network — the trees the refinement reads anyway, so a
// warm session answers them from cache, and the row hands them on to KMB
// and the refinement. The tree is the one full Ĝ rows would give:
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
	tree, dests, err := steinerPhase(g, oracle, req.Dests, aux)
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
	if err := best.Validate(req.Sources, req.Dests); err != nil {
		return nil, fmt.Errorf("core: SOFDA produced infeasible forest: %w", err)
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
	//
	// A candidate replaces the kept forest only when it is valid and
	// strictly cheaper, so only a strictly cheaper candidate is validated,
	// and two kinds are not even assembled, since neither can be strictly
	// cheaper:
	//   - one whose lower bound (see bestSingleTree) exceeds the kept
	//     forest's cost: it costs at least its bound;
	//   - one whose real edges are the KMB tree's, and whose chain edge is
	//     the KMB tree's only one: it assembles to the KMB forest itself,
	//     and the kept forest never costs more than that.
	// Both skips are exact: they drop only candidates the comparison
	// would drop. Under a concurrent cost writer a bound can be stale, and
	// a skip can then only forgo a refinement: the kept forest is the
	// validated KMB forest or a validated, cheaper candidate, so validity
	// and 3ρST hold either way.
	bestCost := best.TotalCost()
	kmbReal, kmbChain := splitTree(aux, tree.Edges)
	ranks := make([]float64, aux.g.NumNodes()-g.NumNodes())
	for i := range ranks {
		ranks[i] = math.NaN()
	}
	for _, s := range req.Sources {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cand, lb := bestSingleTree(g, oracle, aux, s, req, dests, ranks)
		if cand == nil || lb > bestCost {
			continue
		}
		if last := len(cand) - 1; cand[last] == kmbChain && slices.Equal(cand[:last], kmbReal) {
			continue
		}
		f, err := assembleForest(g, oracle, vms, req, aux, cand)
		if err != nil {
			continue
		}
		if c := f.TotalCost(); c < bestCost && f.Validate(req.Sources, req.Dests) == nil {
			best, bestCost = f, c
		}
	}
	return best, nil
}

// splitTree returns the real edges of a Ĝ tree whose edges ascend, a
// prefix since real edges have the lowest ids, and its one chain edge, or
// graph.NoEdge when it has none or several.
func splitTree(aux *auxGraph, edges []graph.EdgeID) (real []graph.EdgeID, chainEdge graph.EdgeID) {
	k := 0
	for k < len(edges) && aux.isRealEdge(edges[k]) {
		k++
	}
	chainEdge = graph.NoEdge
	for _, id := range edges[k:] {
		if aux.chainOf(id) != nil {
			if chainEdge != graph.NoEdge {
				return edges[:k], graph.NoEdge
			}
			chainEdge = id
		}
	}
	return edges[:k], chainEdge
}

// steinerPhase computes the Steiner tree over {ŝ} ∪ dests on Ĝ, an
// overlay on g (see completeForest), and returns it with the closure of
// the destinations' trees. provider answers the trees; SOFDA passes its
// oracle. It releases ŝ's row once KMB returns, on every path: KMB keeps
// no tree past its run, and the Steiner tree holds only ids.
func steinerPhase(g *graph.Graph, provider steiner.PathProvider, dests []graph.NodeID, aux *auxGraph) (*steiner.Tree, *destClosure, error) {
	terminals := append([]graph.NodeID{aux.sHat}, dests...)
	row, trees, _, release := sourceRow(g, provider, aux.g, aux.sHat, dests)
	defer release()
	if err := steiner.Unreachable(row, terminals); err != nil {
		return nil, nil, fmt.Errorf("core: SOFDA Steiner phase: %w", err)
	}
	rows := &steinerRows{sHat: aux.sHat, sHatSP: row, dests: dests, trees: trees}
	tree, err := steiner.KMBWith(aux.g, terminals, &steiner.KMBOptions{Provider: rows})
	if err != nil {
		return nil, nil, fmt.Errorf("core: SOFDA Steiner phase: %w", err)
	}
	return tree, newDestClosure(dests, trees), nil
}

// sourceRow returns the row of Ĝ's virtual source ŝ, exact at every
// destination and along every destination's path; trees[i], the tree of
// dests[i] from provider, or nil trees when the row misses a destination;
// whether the row was confined to its tight set (see below); and the
// function that releases the row. aux is Ĝ as an overlay on g, in the
// shape newAuxSkeleton and the candidate builders give it: ŝ appended
// first, each source duplicate v̂ hung off ŝ by a zero-cost edge, and after
// them either each VM's duplicate û with its zero-cost edge û–u and the
// candidate edges v̂–û, or, at chain length 0, the zero-cost edges v̂–s.
// provider must answer with true shortest-path trees over g; the Steiner
// phase passes its oracle.
//
// The heap's run over Ĝ pops ŝ at 0 and hands every v̂ distance 0; each û
// takes its cheapest candidate. So its row at a network node x is
// D(x) = min over the seeds u of seed(u) + dist(u, x): the seeds are the
// network nodes below a reached duplicate, each VM u at its û's distance
// (each source at 0, at chain length 0). Each dist(u, ·) is read from u's
// tree, which the chain solves already built for a VM. A destination no
// seed reaches leaves the row unreachable there, and the whole row then
// comes from the overlay heap, before any destination tree is fetched.
// That row reads the live costs, so a writer that joined the destination
// to a seed after its tree was read can leave it reaching every
// destination; only then are the destination trees fetched, so the trees
// are nil exactly when the row misses a destination.
//
// Otherwise the row is the heap's run over Ĝ confined to its appended
// nodes and the tight set T: the network nodes x with seed(u) +
// dist(u, x) + dist(x, d) ≤ D(d)·(1+ε) for some destination d and some
// seed u within that bound of D(d). T is found by walking each d's tree
// outward from d, since a node's tree path to d is as tight as the node.
// Every neighbour that offers a node of a shortest path its final
// distance lies on a shortest path too, so T holds every such neighbour,
// and the confined run gives the destinations and their paths the heap's
// Dist and ParentEdge bit for bit, ties included (see
// graph.Overlay.DijkstraWithin). That row is pooled: it is sized to the
// network, but only T's entries and the appended nodes' are written, and
// release resets just those, so a confined row allocates and fills
// nothing over the network; T's marks over the network are pooled too.
// Call release once nothing reads the row; it does nothing for the
// overlay heap's rows, which are allocated afresh.
//
// ε covers rounding only. Every distance here is a float64 sum of at most
// n terms, n being Ĝ's node count, so each is within a relative n·2⁻⁵³ of
// its exact value, and a chain of first offers ending at d loses at most
// 2⁻⁵² per link. The test's three sums against D(d) therefore need about
// 12n·2⁻⁵³; ε = 32n·2⁻⁵³ doubles that.
//
// Two cases take the overlay heap over all of Ĝ instead. T grows past
// half the network, as a seed far out or a cluster of zero-cost or
// absorbed links makes it. That share bounds the walk's work before the
// heap takes over; it is not a break-even, since a walk and a confined
// run over nearly half of a large network already cost more than the
// heap. Or the cost epoch moved between the first tree read and the end,
// so the trees and the live costs the run reads may disagree.
func sourceRow(g *graph.Graph, provider steiner.PathProvider, aux *graph.Overlay, sHat graph.NodeID, dests []graph.NodeID) (row *graph.ShortestPaths, trees []*graph.ShortestPaths, confined bool, release func()) {
	epoch := g.CostEpoch()
	n, n0 := aux.NumNodes(), g.NumNodes()
	// at[x-n0] is appended node x's distance from ŝ in the heap's run: 0
	// for each v̂, and each û's cheapest candidate, or +Inf without one.
	at := make([]float64, n-n0)
	for i := range at {
		at[i] = math.Inf(1)
	}
	for a := range aux.Arcs(sHat) {
		at[int(a.To)-n0] = 0
	}
	for a := range aux.Arcs(sHat) {
		for c := range aux.Arcs(a.To) {
			if int(c.To) >= n0 {
				at[int(c.To)-n0] = min(at[int(c.To)-n0], aux.Edge(c.Edge).Cost)
			}
		}
	}
	type seed struct {
		d  float64
		sp *graph.ShortestPaths
	}
	seeds := make([]seed, 0, n-n0)
	for x := sHat + 1; int(x) < n; x++ {
		if d := at[int(x)-n0]; !math.IsInf(d, 1) {
			for c := range aux.Arcs(x) {
				if int(c.To) < n0 {
					seeds = append(seeds, seed{d: d, sp: provider.Tree(c.To)})
				}
			}
		}
	}
	bound := make([]float64, len(dests))
	for i, d := range dests {
		bound[i] = math.Inf(1)
		for _, s := range seeds {
			bound[i] = min(bound[i], s.d+s.sp.Dist[d])
		}
		if math.IsInf(bound[i], 1) {
			row = aux.Dijkstra(sHat)
			for _, d := range dests {
				if !row.Reachable(d) {
					return row, nil, false, noRelease
				}
			}
			return row, destTrees(provider, dests), false, noRelease
		}
	}
	trees = destTrees(provider, dests)
	eps := float64(n) * 0x1p-48
	t := tightPool.Get().(*tightSet)
	defer func() {
		t.clear()
		tightPool.Put(t)
	}()
	in := t.marks(n0)
	limit := n0 / 2
	near := make([]seed, 0, len(seeds))
	var stack []graph.NodeID
	for i, d := range dests {
		if slices.Index(dests[:i], d) >= 0 {
			continue
		}
		limitD := bound[i] * (1 + eps)
		near = near[:0]
		for _, s := range seeds {
			if s.d+s.sp.Dist[d] <= limitD {
				near = append(near, s)
			}
		}
		tree := trees[i]
		stack = append(stack[:0], d)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !in[x] {
				in[x] = true
				if t.nodes = append(t.nodes, x); len(t.nodes) > limit {
					return aux.Dijkstra(sHat), trees, false, noRelease
				}
			}
			for _, a := range g.Adj(x) {
				if tree.ParentEdge[a.To] != a.Edge {
					continue
				}
				for _, s := range near {
					if s.d+s.sp.Dist[a.To]+tree.Dist[a.To] <= limitD {
						stack = append(stack, a.To)
						break
					}
				}
			}
		}
	}
	row, release = aux.DijkstraWithin(sHat, t.nodes)
	if g.CostEpoch() != epoch {
		release()
		return aux.Dijkstra(sHat), trees, false, noRelease
	}
	return row, trees, true, release
}

// noRelease is the release of a row sourceRow allocated afresh.
func noRelease() {}

// tightSet is sourceRow's tight set T, pooled across rows: a mark per
// network node, false between rows, and the nodes marked, in walk order.
type tightSet struct {
	in    []bool
	nodes []graph.NodeID
}

var tightPool = sync.Pool{New: func() any { return new(tightSet) }}

// marks returns the marks over n nodes, all false.
func (t *tightSet) marks(n int) []bool {
	if len(t.in) < n {
		t.in = make([]bool, n)
	}
	return t.in[:n]
}

// clear unmarks the nodes marked and empties the set.
func (t *tightSet) clear() {
	for _, x := range t.nodes {
		t.in[x] = false
	}
	t.nodes = t.nodes[:0]
}

// destTrees returns the tree of each of dests from provider, fetching a
// repeated destination's tree once.
func destTrees(provider steiner.PathProvider, dests []graph.NodeID) []*graph.ShortestPaths {
	trees := make([]*graph.ShortestPaths, len(dests))
	for i, d := range dests {
		if j := slices.Index(dests[:i], d); j >= 0 {
			trees[i] = trees[j]
		} else {
			trees[i] = provider.Tree(d)
		}
	}
	return trees
}

// steinerRows answers the Steiner phase's closure queries from the rows
// sourceRow returned: ŝ's row over Ĝ, and each destination's tree over
// the real network.
type steinerRows struct {
	sHat   graph.NodeID
	sHatSP *graph.ShortestPaths
	dests  []graph.NodeID
	trees  []*graph.ShortestPaths
}

func (r *steinerRows) Tree(n graph.NodeID) *graph.ShortestPaths {
	if n == r.sHat {
		return r.sHatSP
	}
	return r.trees[slices.Index(r.dests, n)]
}

// isRealEdge reports whether e is an edge of the original network.
func (a *auxGraph) isRealEdge(e graph.EdgeID) bool { return int(e) < a.origEdges }

// chainOf returns the candidate chain of Ĝ edge id, or nil when id is not
// a candidate edge.
func (a *auxGraph) chainOf(id graph.EdgeID) *chain.ServiceChain {
	if i := int(id - a.firstChain); i >= 0 && i < len(a.chains) {
		return a.chains[i]
	}
	return nil
}

// SOFDACtx is Algorithm 2: the 3ρST-approximation for the general SOF
// problem with multiple sources. It builds Ĝ, extracts a Steiner tree
// spanning ŝ and all destinations, materializes the selected candidate
// chains as walks (resolving VNF conflicts per Procedure 4), and attaches
// the tree's real-edge components to the walks' last VMs. The |S|·|M|
// candidate chains of Procedure 3 are computed on a worker pool bounded
// by opts.Parallelism, and ctx is observed throughout. It is the
// unpruned reference the distributed leader's pruning is pinned to.
func SOFDACtx(ctx context.Context, g *graph.Graph, req Request, opts *Options) (*Forest, error) {
	ctx = ctxOrBackground(ctx)
	b, err := candidateBuilder(ctx, g, req, opts)
	if err != nil {
		return nil, err
	}
	return b.Complete(ctx)
}

// candidateBuilder returns SOFDACtx's Ĝ, unpruned: the skeleton plus every
// feasible candidate chain of the chain.Pairs enumeration, fed in pair
// order. Infeasible pairs (unreachable, or too few VMs) are skipped.
func candidateBuilder(ctx context.Context, g *graph.Graph, req Request, opts *Options) (*AuxGraphBuilder, error) {
	b, err := NewAuxGraphBuilder(g, req, opts)
	if err != nil || req.ChainLen == 0 {
		return b, err
	}
	results, err := b.oracle.Chains(ctx, b.vms, chain.Pairs(req.Sources, b.vms), req.ChainLen, optsOrDefault(opts).Parallelism)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if _, err := b.AddCandidate(r.Chain); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// bestSingleTree returns Ĝ tree edges for the cheapest single-chain
// solution rooted at s: its best virtual edge (v̂,û) plus a KMB tree over
// {u} ∪ dests, the virtual edge last, or nil when infeasible. Candidates
// are ranked by chain cost + the metric-closure MST over {u} ∪ dests
// (KMB's own upper bound) in Ĝ adjacency order, so the first strict
// minimum wins, and only the winner gets a full KMB run. ranks memoizes
// the MST of each û, at index û − g.NumNodes(), NaN until computed, so an
// embed ranks each last VM once over all its sources.
//
// It also returns lb, a lower bound on the cost of the forest the edges
// assemble to. That forest prunes nothing: KMB's leaves are terminals,
// and the walk ends at the anchor u. So it costs the setups of the
// chain's VMs, the walk's links and the KMB tree's links, the terms
// Forest.Cost sums in another order; lb is their sum less boundSlack. It
// leaves out the source's setup that the chain's TotalCost holds under
// chain.Options.SourceSetupCost, since no clone pays it.
func bestSingleTree(g *graph.Graph, oracle *chain.Oracle, aux *auxGraph, s graph.NodeID, req Request, dests *destClosure, ranks []float64) (edges []graph.EdgeID, lb float64) {
	sHatDup, ok := aux.srcDup[s]
	if !ok {
		return nil, 0
	}
	n0 := g.NumNodes()
	winner := graph.NoEdge
	var winnerChain *chain.ServiceChain
	bestCost := 0.0
	for a := range aux.g.Arcs(sHatDup) {
		sc := aux.chainOf(a.Edge)
		if sc == nil {
			continue
		}
		mst := ranks[int(a.To)-n0]
		if math.IsNaN(mst) {
			mst, _ = dests.mst(sc.LastVM)
			ranks[int(a.To)-n0] = mst
		}
		r := sc.TotalCost() + mst
		if winner == graph.NoEdge || r < bestCost {
			winner, winnerChain, bestCost = a.Edge, sc, r
		}
	}
	if winner == graph.NoEdge {
		return nil, 0
	}
	tree, err := steiner.KMBWith(g, append([]graph.NodeID{winnerChain.LastVM}, req.Dests...),
		&steiner.KMBOptions{Provider: oracle})
	if err != nil {
		return nil, 0
	}
	setup := 0.0
	for _, v := range winnerChain.VMs {
		setup += g.NodeCost(v)
	}
	edges = append(append(make([]graph.EdgeID, 0, len(tree.Edges)+1), tree.Edges...), winner)
	return edges, (setup + winnerChain.ConnCost + tree.Cost) * (1 - boundSlack)
}

// destClosure is the destination half of the metric closure over
// {u} ∪ dests, read once per embed: the destinations' shortest-path trees
// and the |D|×|D| matrix of their distances, position for position, so
// duplicate destinations keep their own rows. Row i is read from
// dests[i]'s tree, as every closure MST over {u} ∪ dests reads it; a
// candidate u then costs its own column and a Prim over cached values.
// It is not safe for concurrent use.
type destClosure struct {
	trees []*graph.ShortestPaths
	// dist[i*len(trees)+j] is trees[i].Dist[dests[j]].
	dist []float64
	// key and done are mst's Prim state over the destinations.
	key  []float64
	done []bool
}

// newDestClosure reads the distance matrix of dests from trees, where
// trees[i] is dests[i]'s shortest-path tree.
func newDestClosure(dests []graph.NodeID, trees []*graph.ShortestPaths) *destClosure {
	k := len(dests)
	c := &destClosure{trees: trees, dist: make([]float64, k*k), key: make([]float64, k), done: make([]bool, k)}
	for i, sp := range trees {
		for j, d := range dests {
			c.dist[i*k+j] = sp.Dist[d]
		}
	}
	return c
}

// mst returns the MST cost of the metric closure over {u} ∪ dests and
// far, u's largest distance to a destination. The MST is KMB's upper
// bound on its Steiner tree over {u} ∪ dests and, scaled by t/(2(t−1))
// for t = len(dests)+1 terminals, a lower bound on any such tree (see
// bestLastVM). Prim scans by index, u first, and takes the first
// smallest key; a distance pair is read from the tree of the terminal
// just added, a destination's row or, for u, its column, so a +Inf pair
// never becomes a key and leaves its terminal at math.MaxFloat64, which
// the sum skips.
func (c *destClosure) mst(u graph.NodeID) (cost, far float64) {
	const inf = math.MaxFloat64
	k := len(c.trees)
	key, done := c.key, c.done
	for i, sp := range c.trees {
		d := sp.Dist[u]
		far = max(far, d)
		key[i], done[i] = inf, false
		if d < key[i] {
			key[i] = d
		}
	}
	for range k {
		best := -1
		for i := range key {
			if !done[i] && (best < 0 || key[i] < key[best]) {
				best = i
			}
		}
		done[best] = true
		if key[best] < inf {
			cost += key[best]
		}
		row := c.dist[best*k : (best+1)*k]
		for i, d := range row {
			if !done[i] && d < key[i] {
				key[i] = d
			}
		}
	}
	return cost, far
}

// assembleForest converts a Steiner tree in Ĝ into a service overlay
// forest (Algorithm 2 steps 3–9) and prunes it. It does not validate it:
// completeForest validates the KMB forest and each candidate that would
// replace it. Beyond the forest, it allocates working lists only, and the
// destination set AttachTree takes.
func assembleForest(g *graph.Graph, oracle *chain.Oracle, vms []graph.NodeID, req Request, aux *auxGraph, treeEdges []graph.EdgeID) (*Forest, error) {
	// Partition the tree's edges: real edges form the distribution
	// components; virtual ESM edges select candidate chains.
	realEdges := make([]graph.EdgeID, 0, len(treeEdges))
	type anchorInfo struct {
		sc    *chain.ServiceChain // nil for chainLen==0 source anchors
		at    graph.NodeID        // real anchor node
		clone CloneID             // the clone the anchor's component hangs off
	}
	var anchors []anchorInfo
	for _, id := range treeEdges {
		if aux.isRealEdge(id) {
			realEdges = append(realEdges, id)
			continue
		}
		if sc := aux.chainOf(id); sc != nil {
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
					if !slices.ContainsFunc(anchors, func(a anchorInfo) bool { return a.at == s }) {
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
	for i := range anchors {
		a := &anchors[i]
		if a.sc == nil {
			a.clone = f.newRoot(a.at)
			continue
		}
		last, err := res.AddWalk(a.sc)
		if err != nil {
			return nil, fmt.Errorf("core: adding walk %d→%d: %w", a.sc.Source, a.sc.LastVM, err)
		}
		a.clone = last
	}
	// anchorAt returns the clone anchoring real node n, the last anchor at
	// n in walk order, or NoClone when n anchors nothing.
	anchorAt := func(n graph.NodeID) CloneID {
		for i := len(anchors) - 1; i >= 0; i-- {
			if anchors[i].at == n {
				return anchors[i].clone
			}
		}
		return NoClone
	}

	// Group real tree edges into connected components and attach each to
	// its unique anchor.
	destSet := make(map[graph.NodeID]bool, len(req.Dests))
	for _, d := range req.Dests {
		destSet[d] = true
	}
	served := 0
	for _, comp := range componentsOf(g, realEdges) {
		anchor, node := NoClone, graph.None
		for _, n := range comp.nodes {
			if c := anchorAt(n); c != NoClone {
				if anchor != NoClone {
					return nil, fmt.Errorf("core: tree component holds two anchors (%d, %d)", node, n)
				}
				anchor, node = c, n
			}
		}
		if anchor == NoClone {
			// A component not reachable from any chain: tolerated only if
			// it serves no destination (pruned dead weight).
			for _, n := range comp.nodes {
				if destSet[n] {
					return nil, fmt.Errorf("core: destination %d in component with no anchor", n)
				}
			}
			continue
		}
		n, err := f.AttachTree(anchor, comp.edges, destSet)
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
		if c := anchorAt(d); c != NoClone {
			f.MarkDestination(d, c)
			served++
		}
	}
	if served < len(req.Dests) {
		return nil, fmt.Errorf("core: only %d of %d destinations attached", served, len(req.Dests))
	}
	f.Prune()
	return f, nil
}

// component is a connected set of real edges: its nodes, ascending, and
// its edges in input order.
type component struct {
	nodes []graph.NodeID
	edges []graph.EdgeID
}

// componentsOf groups edges into connected components, ordered by the node
// their union-find root is. The union-find runs over local indices, the
// endpoints ascending, and links the first edge end's root under the
// second's, so the roots, and with them the components' order, depend on
// the edges' order alone. Each component's nodes and edges are carved
// from one array each.
func componentsOf(g *graph.Graph, edges []graph.EdgeID) []component {
	nodes := endpoints(g, edges)
	n := len(nodes)
	// parent is the union-find forest; comp[i] is then node i's component,
	// and size[c] counts component c's nodes, then its edges.
	buf := make([]int32, 3*n)
	parent, comp, size := buf[:n], buf[n:2*n], buf[2*n:]
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		r := x
		for parent[r] != r {
			r = parent[r]
		}
		for parent[x] != r {
			parent[x], x = r, parent[x]
		}
		return r
	}
	for _, id := range edges {
		e := g.Edge(id)
		if ru, rv := find(int32(localOf(nodes, e.U))), find(int32(localOf(nodes, e.V))); ru != rv {
			parent[ru] = rv
		}
	}
	k := int32(0)
	for i := range parent {
		if parent[i] == int32(i) {
			comp[i] = k
			k++
		}
	}
	for i := range comp {
		comp[i] = comp[find(int32(i))]
		size[comp[i]]++
	}
	out := make([]component, k)
	restN := make([]graph.NodeID, n)
	for c := range out {
		out[c].nodes, restN = restN[:0:size[c]], restN[size[c]:]
		size[c] = 0
	}
	for i, v := range nodes {
		out[comp[i]].nodes = append(out[comp[i]].nodes, v)
	}
	for _, id := range edges {
		size[comp[localOf(nodes, g.Edge(id).U)]]++
	}
	restE := make([]graph.EdgeID, len(edges))
	for c := range out {
		out[c].edges, restE = restE[:0:size[c]], restE[size[c]:]
	}
	for _, id := range edges {
		c := &out[comp[localOf(nodes, g.Edge(id).U)]]
		c.edges = append(c.edges, id)
	}
	return out
}
