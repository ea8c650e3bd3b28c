// Package sofexact computes optimal service overlay forests for small
// instances. It replaces the paper's CPLEX baseline.
//
// The SOF problem is reduced to a rooted directed Steiner tree on a layered
// graph: node (v, j) means "data at node v with the first j VNFs applied".
// In-layer arcs copy the network's links in both directions at their
// connection cost; an "enable" arc (v, j)→(v, j+1) with the VM's setup cost
// applies VNF j+1 at v; a virtual root reaches (s, 0) for every source at
// zero cost. A minimum arborescence spanning the root and all (d, |C|)
// terminals is exactly a minimum service overlay forest, except that it may
// enable one VM for several VNFs. That residual constraint (IP constraint
// (6)) is enforced by branch-and-bound on forbidden enable arcs, with the
// relaxation solved exactly by a directed Dreyfus–Wagner dynamic program.
package sofexact

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sof/internal/core"
	"sof/internal/graph"
)

// MaxTerminals bounds the Dreyfus–Wagner DP (3^T merge work).
const MaxTerminals = 14

// Options configure the exact solver.
type Options struct {
	// VMs restricts candidate VMs (all VMs of the graph when nil).
	VMs []graph.NodeID
	// MaxBranchNodes bounds the branch-and-bound tree (default 10000).
	MaxBranchNodes int
	// SourceSetupCost charges each used source its node cost (Appendix D).
	SourceSetupCost bool
	// NoPrime disables seeding the incumbent with SOFDA's feasible
	// solution (priming only strengthens pruning; disable for tests that
	// must exercise the raw search).
	NoPrime bool
}

// arc of the layered digraph.
type arc struct {
	from, to int
	cost     float64
	// edge is the real edge for in-layer arcs, NoEdge for enable/root arcs.
	edge graph.EdgeID
	// enableVM is the real VM enabled by this arc (None otherwise).
	enableVM graph.NodeID
	// enableVNF is the 1-based VNF index applied (0 otherwise).
	enableVNF int
}

// layered is the layered digraph with reverse adjacency for the DP.
type layered struct {
	n      int // real node count
	levels int // chainLen+1
	nodes  int // n*levels + 1 (virtual root)
	root   int
	arcs   []arc
	// in[v] lists arcs entering layered node v.
	in [][]int32
}

func (l *layered) id(v graph.NodeID, layer int) int { return int(v) + layer*l.n }

// buildLayered takes the candidate VMs as a sorted, deduplicated slice:
// arc order determines branch order downstream, so iterating a map here
// would make the search tree (though never the optimal cost) depend on
// Go's randomized map order.
func buildLayered(g *graph.Graph, sources []graph.NodeID, vms []graph.NodeID, chainLen int, srcCost bool) *layered {
	n := g.NumNodes()
	levels := chainLen + 1
	l := &layered{
		n:      n,
		levels: levels,
		nodes:  n*levels + 1,
		root:   n * levels,
	}
	addArc := func(a arc) {
		l.arcs = append(l.arcs, a)
	}
	for layer := 0; layer < levels; layer++ {
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(graph.EdgeID(e))
			addArc(arc{from: l.id(ed.U, layer), to: l.id(ed.V, layer), cost: ed.Cost, edge: graph.EdgeID(e), enableVM: graph.None})
			addArc(arc{from: l.id(ed.V, layer), to: l.id(ed.U, layer), cost: ed.Cost, edge: graph.EdgeID(e), enableVM: graph.None})
		}
	}
	for _, v := range vms {
		for layer := 0; layer < chainLen; layer++ {
			addArc(arc{
				from: l.id(v, layer), to: l.id(v, layer+1),
				cost: g.NodeCost(v), edge: graph.NoEdge,
				enableVM: v, enableVNF: layer + 1,
			})
		}
	}
	seen := make(map[graph.NodeID]bool, len(sources))
	for _, s := range sources {
		if seen[s] {
			continue
		}
		seen[s] = true
		c := 0.0
		if srcCost {
			c = g.NodeCost(s)
		}
		addArc(arc{from: l.root, to: l.id(s, 0), cost: c, edge: graph.NoEdge, enableVM: graph.None})
	}
	l.in = make([][]int32, l.nodes)
	for i, a := range l.arcs {
		l.in[a.to] = append(l.in[a.to], int32(i))
	}
	return l
}

// branchTrace, when set by a test, observes every branch-and-bound
// branching decision (the VM branched on and its conflicting arc count)
// in the order taken. The search must report the identical sequence on
// every run — it is the repeat-run determinism probe for the fixes that
// removed map-order dependence from buildLayered and the conflict pick.
var branchTrace func(vm graph.NodeID, arcs int)

// SolveCtx returns an optimal forest for the request, or an error when the
// instance is too large, infeasible, or the branch budget is exhausted.
// ctx is observed at every branch-and-bound node expansion, so a mid-run
// cancellation aborts the search before the next relaxation is solved
// (each node still pays one full Dreyfus–Wagner pass, which bounds the
// cancellation latency).
func SolveCtx(ctx context.Context, g *graph.Graph, req core.Request, opts *Options) (*core.Forest, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(g); err != nil {
		return nil, err
	}
	o := Options{}
	if opts != nil {
		o = *opts
	}
	if len(req.Dests) > MaxTerminals {
		return nil, fmt.Errorf("sofexact: %d destinations exceeds limit %d", len(req.Dests), MaxTerminals)
	}
	vmList := o.VMs
	if vmList == nil {
		vmList = g.VMs()
	}
	// Sort and deduplicate without mutating the caller's slice; the sorted
	// order fixes the enable-arc order and with it the branch order.
	vmList = append([]graph.NodeID(nil), vmList...)
	sort.Slice(vmList, func(i, j int) bool { return vmList[i] < vmList[j] })
	uniq := vmList[:0]
	for i, v := range vmList {
		if i == 0 || v != vmList[i-1] {
			uniq = append(uniq, v)
		}
	}
	vmList = uniq
	l := buildLayered(g, req.Sources, vmList, req.ChainLen, o.SourceSetupCost)

	// Terminals: (d, |C|) deduped, plus the root.
	termIdx := make(map[int]int)
	var terms []int
	for _, d := range req.Dests {
		id := l.id(d, req.ChainLen)
		if _, ok := termIdx[id]; !ok {
			termIdx[id] = len(terms)
			terms = append(terms, id)
		}
	}

	maxNodes := o.MaxBranchNodes
	if maxNodes == 0 {
		maxNodes = 10000
	}
	forbidden := make([]bool, len(l.arcs))
	var bestArcs []int
	bestCost := math.Inf(1)
	// Prime the incumbent with SOFDA's feasible forest: branch-and-bound
	// then only explores branches that can strictly beat the heuristic,
	// which prunes the search by orders of magnitude. Correctness is
	// unaffected — if nothing beats the heuristic, the heuristic forest is
	// optimal and is returned.
	var primed *core.Forest
	if !o.NoPrime {
		if f, err := core.SOFDACtx(ctx, g, req, &core.Options{VMs: vmList}); err == nil {
			primed = f
			bestCost = f.TotalCost()
		}
	}
	nodes := 0
	var rec func() error
	rec = func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		nodes++
		if nodes > maxNodes {
			return errors.New("sofexact: branch budget exhausted")
		}
		cost, used, err := l.steiner(terms, forbidden)
		if err != nil {
			return nil // this branch infeasible; prune
		}
		if cost >= bestCost-1e-12 {
			return nil
		}
		// Check the one-VNF-per-VM constraint; branch on the most
		// conflicted VM.
		byVM := make(map[graph.NodeID][]int)
		for _, ai := range used {
			a := l.arcs[ai]
			if a.enableVM != graph.None {
				byVM[a.enableVM] = append(byVM[a.enableVM], ai)
			}
		}
		// Pick the most conflicted VM, breaking count ties toward the
		// smallest node id: byVM is a map, so the selection must not lean
		// on its iteration order or the branch tree varies run to run.
		vmKeys := make([]graph.NodeID, 0, len(byVM))
		for v := range byVM {
			vmKeys = append(vmKeys, v)
		}
		sort.Slice(vmKeys, func(i, j int) bool { return vmKeys[i] < vmKeys[j] })
		conflictVM := graph.None
		for _, v := range vmKeys {
			if len(byVM[v]) > 1 && (conflictVM == graph.None || len(byVM[v]) > len(byVM[conflictVM])) {
				conflictVM = v
			}
		}
		if conflictVM == graph.None {
			bestCost = cost
			bestArcs = append(bestArcs[:0], used...)
			return nil
		}
		// SOS1-style branching: in any feasible solution the VM keeps at
		// most one of its enable arcs, so one branch per "keep only j"
		// choice covers all of them (a solution enabling none is feasible
		// in every branch). Forbidding |J|−1 arcs per branch prunes far
		// faster than excluding one arc at a time.
		conflictArcs := byVM[conflictVM]
		if branchTrace != nil {
			branchTrace(conflictVM, len(conflictArcs))
		}
		for keep := range conflictArcs {
			for i, ai := range conflictArcs {
				if i != keep {
					forbidden[ai] = true
				}
			}
			err := rec()
			for i, ai := range conflictArcs {
				if i != keep {
					forbidden[ai] = false
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(); err != nil {
		return nil, err
	}
	if bestArcs == nil {
		if primed != nil {
			// Nothing beat the heuristic incumbent: it is optimal.
			return primed, nil
		}
		if len(terms) > 0 {
			return nil, errors.New("sofexact: no feasible forest")
		}
	}
	return l.toForest(g, req, bestArcs)
}

// steiner solves the rooted directed Steiner tree on the layered graph with
// the Dreyfus–Wagner DP, skipping forbidden arcs. It returns the optimal
// cost and the arcs used.
func (l *layered) steiner(terms []int, forbidden []bool) (float64, []int, error) {
	k := len(terms)
	full := uint32(1)<<k - 1
	n := l.nodes

	type choice struct {
		kind uint8 // 0 none, 1 split, 2 arc
		sub  uint32
		arc  int32
	}
	dp := make([][]float64, full+1)
	ch := make([][]choice, full+1)
	for mask := uint32(1); mask <= full; mask++ {
		dp[mask] = make([]float64, n)
		ch[mask] = make([]choice, n)
		for v := range dp[mask] {
			dp[mask][v] = math.Inf(1)
		}
		if bits.OnesCount32(mask) == 1 {
			dp[mask][terms[bits.TrailingZeros32(mask)]] = 0
		} else {
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				other := mask ^ sub
				if sub > other {
					continue
				}
				for v := 0; v < n; v++ {
					if c := dp[sub][v] + dp[other][v]; c < dp[mask][v] {
						dp[mask][v] = c
						ch[mask][v] = choice{kind: 1, sub: sub}
					}
				}
			}
		}
		// Relax over reversed arcs: dp[mask][u] ← arc(u→w).cost + dp[mask][w].
		q := &floatPQ{pos: make([]int32, n)}
		for i := range q.pos {
			q.pos[i] = -1
		}
		for v, d := range dp[mask] {
			if !math.IsInf(d, 1) {
				heap.Push(q, pqEntry{node: int32(v), dist: d})
			}
		}
		done := make([]bool, n)
		for q.Len() > 0 {
			e := heap.Pop(q).(pqEntry)
			w := int(e.node)
			if done[w] {
				continue
			}
			done[w] = true
			for _, ai := range l.in[w] {
				if forbidden[ai] {
					continue
				}
				a := l.arcs[ai]
				u := a.from
				if done[u] {
					continue
				}
				nd := a.cost + dp[mask][w]
				if nd < dp[mask][u] {
					dp[mask][u] = nd
					ch[mask][u] = choice{kind: 2, arc: ai}
					if q.pos[u] >= 0 {
						q.items[q.pos[u]].dist = nd
						heap.Fix(q, int(q.pos[u]))
					} else {
						heap.Push(q, pqEntry{node: int32(u), dist: nd})
					}
				}
			}
		}
	}
	if math.IsInf(dp[full][l.root], 1) {
		return 0, nil, errors.New("sofexact: terminals unreachable")
	}
	var used []int
	var rec func(mask uint32, v int)
	rec = func(mask uint32, v int) {
		for {
			c := ch[mask][v]
			switch c.kind {
			case 2:
				used = append(used, int(c.arc))
				v = l.arcs[c.arc].to
			case 1:
				rec(c.sub, v)
				mask ^= c.sub
			default:
				return
			}
		}
	}
	rec(full, l.root)
	return dp[full][l.root], used, nil
}

// toForest converts the arborescence arcs into a validated core.Forest.
func (l *layered) toForest(g *graph.Graph, req core.Request, used []int) (*core.Forest, error) {
	f := core.NewForest(g, req.ChainLen)
	children := make(map[int][]arc)
	for _, ai := range used {
		a := l.arcs[ai]
		children[a.from] = append(children[a.from], a)
	}
	destLayer := req.ChainLen
	destSet := make(map[graph.NodeID]bool, len(req.Dests))
	for _, d := range req.Dests {
		destSet[d] = true
	}
	var attach func(node int, clone core.CloneID) error
	attach = func(node int, clone core.CloneID) error {
		layer := node / l.n
		real := graph.NodeID(node % l.n)
		if layer == destLayer && destSet[real] {
			f.MarkDestination(real, clone)
		}
		for _, a := range children[node] {
			var child core.CloneID
			if a.enableVM != graph.None {
				child = f.AppendInPlace(clone)
				if err := f.Enable(child, a.enableVNF); err != nil {
					return err
				}
			} else {
				child = f.AppendClone(clone, graph.NodeID(a.to%l.n), a.edge)
			}
			if err := attach(a.to, child); err != nil {
				return err
			}
		}
		return nil
	}
	for _, a := range children[l.root] {
		src := graph.NodeID(a.to % l.n)
		root := f.NewRoot(src)
		if err := attach(a.to, root); err != nil {
			return nil, err
		}
	}
	f.Prune()
	if err := f.Validate(req.Sources, req.Dests); err != nil {
		return nil, fmt.Errorf("sofexact: assembled forest invalid: %w", err)
	}
	return f, nil
}

type pqEntry struct {
	node int32
	dist float64
}

type floatPQ struct {
	items []pqEntry
	pos   []int32
}

func (q *floatPQ) Len() int           { return len(q.items) }
func (q *floatPQ) Less(i, j int) bool { return q.items[i].dist < q.items[j].dist }
func (q *floatPQ) Push(x interface{}) {
	e := x.(pqEntry)
	q.pos[e.node] = int32(len(q.items))
	q.items = append(q.items, e)
}
func (q *floatPQ) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.pos[q.items[i].node] = int32(i)
	q.pos[q.items[j].node] = int32(j)
}
func (q *floatPQ) Pop() interface{} {
	e := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	q.pos[e.node] = -1
	return e
}
