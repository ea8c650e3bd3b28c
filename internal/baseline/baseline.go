// Package baseline implements the comparison algorithms of Section VIII-A:
//
//   - ST: a single Steiner tree from the best source connected with one
//     service chain (the paper's "special case with only one Steiner tree
//     connected with a service chain").
//   - eST (enhanced Steiner Tree): picks the minimum-cost Steiner tree
//     among all sources, builds the shortest service chain closest to the
//     tree, and connects it at minimum cost; extended to multiple sources
//     by the paper's iterative tree-addition heuristic.
//   - eNEMP (enhanced NEMP [27]): like eST, but the chain must terminate
//     on a VM already inside the tree.
//
// The multi-source extension follows the paper: iteratively add the
// cheapest candidate tree rooted at an unused source, assigning every
// destination to its closest tree, while the total cost decreases. Each
// added tree runs its VNFs on VMs unused by earlier trees.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"sof/internal/chain"
	"sof/internal/core"
	"sof/internal/graph"
	"sof/internal/steiner"
)

// Kind selects a baseline algorithm.
type Kind uint8

// Baseline algorithm identifiers.
const (
	KindST Kind = iota + 1
	KindEST
	KindENEMP
)

func (k Kind) String() string {
	switch k {
	case KindST:
		return "ST"
	case KindEST:
		return "eST"
	case KindENEMP:
		return "eNEMP"
	default:
		return fmt.Sprintf("baseline(%d)", uint8(k))
	}
}

// SolveCtx embeds the request with the baseline of the given kind: ST, a
// single Steiner tree plus one service chain from the best single source;
// eST, the enhanced Steiner tree heuristic; or eNEMP, the enhanced NEMP
// heuristic. ctx is observed between candidate trees, mirroring the
// context support of the core algorithms so the whole stack can be driven
// under one deadline.
func SolveCtx(ctx context.Context, g *graph.Graph, req core.Request, opts *core.Options, kind Kind) (*core.Forest, error) {
	return run(ctx, g, req, opts, kind)
}

// candidate is one service tree rooted at a source, spanning all
// destinations, with its service chain and attachment.
type candidate struct {
	source graph.NodeID
	sc     *chain.ServiceChain // nil when chainLen == 0
	tree   *steiner.Tree
	attach graph.NodeID
	// extension path from the chain's last VM to the attach node
	// (pass-through); empty when the last VM is the attach node.
	extNodes []graph.NodeID
	extEdges []graph.EdgeID
	extCost  float64
	// per-destination path data within the tree, rooted at attach: each
	// node's distance and the edge toward attach.
	dist       map[graph.NodeID]float64
	parentEdge map[graph.NodeID]graph.EdgeID
}

// chainCost is the candidate's fixed cost (chain + extension).
func (c *candidate) chainCost() float64 {
	if c.sc == nil {
		return c.extCost
	}
	return c.sc.TotalCost() + c.extCost
}

// prunedTree returns the edges of the tree restricted to the union of
// attach→d paths for the assigned destinations plus the path to the
// tree's own source, with their total cost. The source branch is kept
// even though the chain re-enters the tree at the attach node: the
// baseline trees are rooted at their source (that structural rigidity is
// the weakness SOFDA removes). g is the network the tree spans.
func (c *candidate) prunedTree(g *graph.Graph, assigned []graph.NodeID) ([]graph.EdgeID, float64) {
	seen := make(map[graph.EdgeID]bool)
	var edges []graph.EdgeID
	var cost float64
	targets := append([]graph.NodeID{c.source}, assigned...)
	for _, d := range targets {
		for cur := d; cur != c.attach; {
			e := c.parentEdge[cur]
			if seen[e] {
				break // the rest of the path is already included
			}
			seen[e] = true
			edges = append(edges, e)
			ed := g.Edge(e)
			cost += ed.Cost
			cur = ed.Other(cur)
		}
	}
	return edges, cost
}

type builder struct {
	ctx    context.Context
	g      *graph.Graph
	req    core.Request
	oracle *chain.Oracle
	vms    []graph.NodeID
	kind   Kind
}

func run(ctx context.Context, g *graph.Graph, req core.Request, opts *core.Options, kind Kind) (*core.Forest, error) {
	if err := req.Validate(g); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	o := core.Options{}
	if opts != nil {
		o = *opts
	}
	vms := o.VMs
	if vms == nil {
		vms = g.VMs()
	}
	oracle := o.Oracle
	if oracle == nil {
		oracle = chain.NewOracle(g, o.Chain)
	}
	b := &builder{
		ctx:    ctx,
		g:      g,
		req:    req,
		oracle: oracle,
		vms:    vms,
		kind:   kind,
	}
	return b.solve()
}

func (b *builder) solve() (*core.Forest, error) {
	used := make(map[graph.NodeID]bool)
	usedSrc := make(map[graph.NodeID]bool)

	first, err := b.bestCandidate(used, usedSrc)
	if err != nil {
		return nil, err
	}
	chosen := []*candidate{first}
	markUsed(first, used)
	usedSrc[first.source] = true

	if b.kind != KindST {
		for len(usedSrc) < countDistinct(b.req.Sources) {
			if err := b.ctx.Err(); err != nil {
				return nil, err
			}
			curCost, _ := b.totalCost(chosen)
			cand, err := b.bestCandidate(used, usedSrc)
			if err != nil {
				break // no feasible additional tree (e.g. VMs exhausted)
			}
			newCost, _ := b.totalCost(append(chosen, cand))
			if newCost >= curCost-1e-9 {
				break
			}
			chosen = append(chosen, cand)
			markUsed(cand, used)
			usedSrc[cand.source] = true
		}
	}
	_, assign := b.totalCost(chosen)
	return b.assemble(chosen, assign)
}

func countDistinct(ns []graph.NodeID) int {
	m := make(map[graph.NodeID]bool, len(ns))
	for _, n := range ns {
		m[n] = true
	}
	return len(m)
}

func markUsed(c *candidate, used map[graph.NodeID]bool) {
	if c.sc != nil {
		for _, v := range c.sc.VMs {
			used[v] = true
		}
	}
}

// bestCandidate builds a candidate for every unused source and returns the
// cheapest (by standalone cost: chain + extension + full tree).
func (b *builder) bestCandidate(used, usedSrc map[graph.NodeID]bool) (*candidate, error) {
	var best *candidate
	bestCost := math.Inf(1)
	var lastErr error
	for _, s := range b.req.Sources {
		if usedSrc[s] {
			continue
		}
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		c, err := b.buildCandidate(s, used)
		if err != nil {
			lastErr = err
			continue
		}
		cost := c.chainCost() + c.tree.Cost
		if cost < bestCost {
			best = c
			bestCost = cost
		}
	}
	if best == nil {
		if lastErr == nil {
			lastErr = errors.New("baseline: no unused source")
		}
		return nil, lastErr
	}
	return best, nil
}

// buildCandidate constructs the service tree rooted at s with its chain.
func (b *builder) buildCandidate(s graph.NodeID, used map[graph.NodeID]bool) (*candidate, error) {
	terminals := append([]graph.NodeID{s}, b.req.Dests...)
	// Oracle-backed KMB: the per-source trees and the destination trees
	// come from the session's epoch-keyed cache, shared with the chain
	// queries and with the other algorithms of a comparison run.
	tree, err := steiner.KMBWith(b.g, terminals, &steiner.KMBOptions{Provider: b.oracle})
	if err != nil {
		return nil, err
	}
	c := &candidate{source: s, tree: tree}
	if b.req.ChainLen == 0 {
		c.attach = s
	} else {
		free := make([]graph.NodeID, 0, len(b.vms))
		for _, v := range b.vms {
			if !used[v] {
				free = append(free, v)
			}
		}
		if len(free) < b.req.ChainLen {
			return nil, fmt.Errorf("baseline: %d free VMs for chain of %d", len(free), b.req.ChainLen)
		}
		if err := b.attachChain(c, s, free); err != nil {
			return nil, err
		}
	}
	if err := b.rootTreeAt(c); err != nil {
		return nil, err
	}
	return c, nil
}

// attachChain selects the chain and its attachment per the baseline kind.
func (b *builder) attachChain(c *candidate, s graph.NodeID, free []graph.NodeID) error {
	treeNodes := make(map[graph.NodeID]bool, len(c.tree.Nodes))
	for _, n := range c.tree.Nodes {
		treeNodes[n] = true
	}
	// The baselines take their chains from the prior-work heuristics the
	// paper cites ([13][62] for eST, NEMP [27] for eNEMP): a greedy
	// nearest-VM walk from the source, not SOFDA's k-stroll reduction.
	// The chain is constructed first and only then connected to the tree —
	// that myopia is exactly the weakness SOFDA's joint optimization
	// removes.
	var bestSC *chain.ServiceChain
	var bestAttach graph.NodeID
	var bestExtCost float64

	if b.kind == KindENEMP {
		// NEMP: the final VM must be inside the multicast tree. VMs hang
		// off their data-center switches, so "inside" means the VM or its
		// hosting switch is spanned by the tree.
		inside := make(map[graph.NodeID]bool)
		for _, v := range free {
			if treeNodes[v] {
				inside[v] = true
				continue
			}
			for _, a := range b.g.Adj(v) {
				if treeNodes[a.To] {
					inside[v] = true
					break
				}
			}
		}
		if sc, err := b.greedyChain(s, free, inside); err == nil {
			bestSC = sc
			attach, extCost, err := b.nearestTreeNode(sc.LastVM, treeNodes)
			if err == nil {
				bestAttach = attach
				bestExtCost = extCost
			} else {
				bestSC = nil
			}
		}
	}
	if bestSC == nil {
		sc, err := b.greedyChain(s, free, nil)
		if err != nil {
			return err
		}
		bestSC = sc
		attach, extCost, err := b.nearestTreeNode(sc.LastVM, treeNodes)
		if err != nil {
			return err
		}
		bestAttach = attach
		bestExtCost = extCost
	}
	c.sc = bestSC
	c.attach = bestAttach
	c.extCost = bestExtCost
	if bestSC.LastVM != bestAttach {
		nodes, edges, _, err := b.oracle.Path(bestSC.LastVM, bestAttach)
		if err != nil {
			return err
		}
		c.extNodes = nodes
		c.extEdges = edges
	}
	return nil
}

// greedyChain builds a service chain by repeatedly walking to the VM with
// the smallest marginal cost (path + setup) from the current position, in
// the style of the online chain-deployment heuristics [13][62]. When
// lastInside is non-nil the final VM is chosen among tree nodes (NEMP).
func (b *builder) greedyChain(s graph.NodeID, free []graph.NodeID, lastInside map[graph.NodeID]bool) (*chain.ServiceChain, error) {
	sc := &chain.ServiceChain{Source: s}
	sc.Nodes = append(sc.Nodes, s)
	cur := s
	used := make(map[graph.NodeID]bool)
	for i := 0; i < b.req.ChainLen; i++ {
		isLast := i == b.req.ChainLen-1
		bestVM := graph.None
		bestCost := math.Inf(1)
		for _, v := range free {
			if used[v] {
				continue
			}
			if isLast && lastInside != nil && !lastInside[v] {
				continue
			}
			// An unreachable VM sits at +Inf and never wins.
			if c := b.oracle.Tree(cur).Dist[v] + b.g.NodeCost(v); c < bestCost {
				bestCost = c
				bestVM = v
			}
		}
		if bestVM == graph.None {
			return nil, fmt.Errorf("baseline: greedy chain stuck at VNF %d from source %d", i+1, s)
		}
		nodes, edges, d, err := b.oracle.Path(cur, bestVM)
		if err != nil {
			return nil, err
		}
		sc.Nodes = append(sc.Nodes, nodes[1:]...)
		sc.Edges = append(sc.Edges, edges...)
		sc.VMs = append(sc.VMs, bestVM)
		sc.VMPos = append(sc.VMPos, len(sc.Nodes)-1)
		sc.SetupCost += b.g.NodeCost(bestVM)
		sc.ConnCost += d
		used[bestVM] = true
		cur = bestVM
	}
	sc.LastVM = cur
	return sc, nil
}

// nearestTreeNode returns the tree node closest to u by shortest path.
func (b *builder) nearestTreeNode(u graph.NodeID, treeNodes map[graph.NodeID]bool) (graph.NodeID, float64, error) {
	// Scan candidates in sorted id order: map order would break ties by
	// whichever equal-distance node the runtime happened to yield first,
	// and the attach node shapes the whole tree.
	nodes := make([]graph.NodeID, 0, len(treeNodes))
	for n := range treeNodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	bestNode := graph.None
	bestDist := math.Inf(1)
	for _, n := range nodes {
		if d := b.oracle.Tree(u).Dist[n]; d < bestDist {
			bestDist = d
			bestNode = n
		}
	}
	if bestNode == graph.None {
		return graph.None, 0, graph.ErrDisconnected
	}
	return bestNode, bestDist, nil
}

// rootTreeAt computes per-destination parent pointers and distances within
// the tree, rooted at the attach node.
func (b *builder) rootTreeAt(c *candidate) error {
	adj := make(map[graph.NodeID][]graph.EdgeID)
	for _, e := range c.tree.Edges {
		ed := b.g.Edge(e)
		adj[ed.U] = append(adj[ed.U], e)
		adj[ed.V] = append(adj[ed.V], e)
	}
	c.dist = make(map[graph.NodeID]float64)
	c.parentEdge = make(map[graph.NodeID]graph.EdgeID)
	c.dist[c.attach] = 0
	queue := []graph.NodeID{c.attach}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range adj[n] {
			other := b.g.Edge(e).Other(n)
			if _, ok := c.dist[other]; ok {
				continue
			}
			c.dist[other] = c.dist[n] + b.g.EdgeCost(e)
			c.parentEdge[other] = e
			queue = append(queue, other)
		}
	}
	for _, d := range b.req.Dests {
		if _, ok := c.dist[d]; !ok {
			return fmt.Errorf("baseline: destination %d not in tree of source %d", d, c.source)
		}
	}
	return nil
}

// totalCost evaluates a forest of candidates: every destination joins its
// closest tree, trees serving no destination are dropped, and each kept
// tree is pruned to its assigned destinations.
func (b *builder) totalCost(cands []*candidate) (float64, map[graph.NodeID]int) {
	assign := make(map[graph.NodeID]int, len(b.req.Dests))
	for _, d := range b.req.Dests {
		best := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].dist[d] < cands[best].dist[d] {
				best = i
			}
		}
		assign[d] = best
	}
	total := 0.0
	for i, c := range cands {
		var mine []graph.NodeID
		for d, idx := range assign {
			if idx == i {
				mine = append(mine, d)
			}
		}
		sort.Slice(mine, func(a, b int) bool { return mine[a] < mine[b] })
		if len(mine) == 0 {
			continue
		}
		_, treeCost := c.prunedTree(b.g, mine)
		total += c.chainCost() + treeCost
	}
	return total, assign
}

// assemble builds the final validated forest.
func (b *builder) assemble(cands []*candidate, assign map[graph.NodeID]int) (*core.Forest, error) {
	f := core.NewForest(b.g, b.req.ChainLen)
	for i, c := range cands {
		var mine []graph.NodeID
		for d, idx := range assign {
			if idx == i {
				mine = append(mine, d)
			}
		}
		sort.Slice(mine, func(a, b int) bool { return mine[a] < mine[b] })
		if len(mine) == 0 {
			continue
		}
		var anchor core.CloneID
		if c.sc == nil {
			anchor = f.NewRoot(c.source)
		} else {
			last, _, err := f.AttachChainWalk(c.sc)
			if err != nil {
				return nil, err
			}
			anchor = last
			for j := 1; j < len(c.extNodes); j++ {
				anchor = f.AppendClone(anchor, c.extNodes[j], c.extEdges[j-1])
			}
		}
		destSet := make(map[graph.NodeID]bool, len(mine))
		for _, d := range mine {
			destSet[d] = true
		}
		edges, _ := c.prunedTree(b.g, mine)
		if _, err := f.AttachTree(anchor, edges, destSet); err != nil {
			return nil, err
		}
	}
	// No pruning: the baselines pay their source-rooted tree branches in
	// full (see prunedTree); core.Forest.Prune would strip them and make
	// the baselines stronger than the algorithms they reproduce.
	if err := f.Validate(b.req.Sources, b.req.Dests); err != nil {
		return nil, fmt.Errorf("baseline %v produced infeasible forest: %w", b.kind, err)
	}
	return f, nil
}
