// Package sofip builds and solves the paper's Integer Program for SOF
// (Section III-A, constraints (1)–(8)) using the internal simplex and
// branch-and-bound substrates. It exists to cross-validate the layered
// exact solver (internal/sofexact) on tiny instances, mirroring the role
// CPLEX plays in the paper; the layered solver is the one used in the
// benchmark harness because it scales to the paper's evaluation sizes.
package sofip

import (
	"fmt"
	"maps"
	"slices"

	"sof/internal/core"
	"sof/internal/graph"
	"sof/internal/ilp"
	"sof/internal/lp"
)

// Limits keep the dense tableau tractable and numerically reliable.
const (
	MaxNodesLimit = 16
	MaxDests      = 3
	MaxChain      = 2
)

// Result reports the optimal IP solution.
type Result struct {
	Cost      float64
	SetupCost float64
	ConnCost  float64
	// SigmaVMs[u] is the VNF index assigned to VM u (1-based).
	SigmaVMs map[graph.NodeID]int
}

// arcT is one direction of one edge instance (parallel edges are distinct
// arcs, unlike the paper's simple-graph notation).
type arcT struct {
	from, to graph.NodeID
	edge     graph.EdgeID
	cost     float64
}

// model carries the variable index maps.
// Function indices: 0 = fS, 1..|C| = chain VNFs, |C|+1 = fD.
type model struct {
	g    *graph.Graph
	req  core.Request
	lp   *lp.Problem
	arcs []arcT

	nextVar int
	gamma   map[[3]int]int // (destIdx, funcIdx, node) -> var
	pi      map[[3]int]int // (destIdx, funcIdx, arcIdx) -> var
	sigma   map[[2]int]int // (funcIdx, node) -> var
	tau     map[[2]int]int // (funcIdx, arcIdx) -> var
	vars    []float64      // objective coefficients
}

func fD(chainLen int) int { return chainLen + 1 }

// Solve builds and optimizes the IP. It returns an error for oversized
// instances (this solver is intentionally restricted to tiny ones).
func Solve(g *graph.Graph, req core.Request, maxNodes int) (*Result, error) {
	if err := req.Validate(g); err != nil {
		return nil, err
	}
	if g.NumNodes() > MaxNodesLimit || len(req.Dests) > MaxDests || req.ChainLen > MaxChain {
		return nil, fmt.Errorf("sofip: instance too large (%d nodes, %d dests, chain %d); limits are %d/%d/%d",
			g.NumNodes(), len(req.Dests), req.ChainLen, MaxNodesLimit, MaxDests, MaxChain)
	}
	if req.ChainLen < 1 {
		return nil, fmt.Errorf("sofip: chain length must be >= 1 (got %d)", req.ChainLen)
	}
	m := newModel(g, req)
	if err := m.build(); err != nil {
		return nil, err
	}
	binary := make([]int, m.nextVar)
	for i := range binary {
		binary[i] = i
	}
	if maxNodes == 0 {
		maxNodes = 50000
	}
	sol, err := (&ilp.Problem{LP: m.lp, Binary: binary, MaxNodes: maxNodes}).Solve()
	if err != nil {
		return nil, fmt.Errorf("sofip: %w", err)
	}
	res := &Result{Cost: sol.Objective, SigmaVMs: make(map[graph.NodeID]int)}
	for key, v := range m.sigma {
		if sol.X[v] > 0.5 {
			res.SigmaVMs[graph.NodeID(key[1])] = key[0]
		}
	}
	// Constraint (6) gives each VM one VNF at most, so this counts every
	// enabled VM once, in id order.
	for _, vm := range slices.Sorted(maps.Keys(res.SigmaVMs)) {
		res.SetupCost += g.NodeCost(vm)
	}
	res.ConnCost = res.Cost - res.SetupCost
	return res, nil
}

func newModel(g *graph.Graph, req core.Request) *model {
	m := &model{
		g: g, req: req,
		gamma: make(map[[3]int]int),
		pi:    make(map[[3]int]int),
		sigma: make(map[[2]int]int),
		tau:   make(map[[2]int]int),
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		m.arcs = append(m.arcs,
			arcT{from: ed.U, to: ed.V, edge: graph.EdgeID(e), cost: ed.Cost},
			arcT{from: ed.V, to: ed.U, edge: graph.EdgeID(e), cost: ed.Cost})
	}
	return m
}

func (m *model) newVar(objCoeff float64) int {
	v := m.nextVar
	m.nextVar++
	m.vars = append(m.vars, objCoeff)
	return v
}

func (m *model) build() error {
	m.allocate()
	m.lp = lp.NewProblem(m.nextVar)
	for v, c := range m.vars {
		if c != 0 {
			if err := m.lp.SetObjectiveCoeff(v, c); err != nil {
				return err
			}
		}
	}
	return m.constraints()
}

func (m *model) allocate() {
	g, req := m.g, m.req
	L := req.ChainLen
	// γ(d, fS, s) for sources; γ(d, f, u) for VMs. γ(d, fD, ·) is fixed by
	// constraints (3)-(4) and substituted, so no variables are created.
	for d := range req.Dests {
		for _, s := range req.Sources {
			key := [3]int{d, 0, int(s)}
			if _, ok := m.gamma[key]; !ok {
				m.gamma[key] = m.newVar(0)
			}
		}
		for f := 1; f <= L; f++ {
			for _, u := range g.VMs() {
				m.gamma[[3]int{d, f, int(u)}] = m.newVar(0)
			}
		}
	}
	// σ(f, u) with setup-cost objective.
	for f := 1; f <= L; f++ {
		for _, u := range g.VMs() {
			m.sigma[[2]int{f, int(u)}] = m.newVar(g.NodeCost(u))
		}
	}
	// τ(f, arc) with connection-cost objective; π(d, f, arc) free.
	for ai, a := range m.arcs {
		for f := 0; f <= L; f++ {
			m.tau[[2]int{f, ai}] = m.newVar(a.cost)
			for d := range req.Dests {
				m.pi[[3]int{d, f, ai}] = m.newVar(0)
			}
		}
	}
}

// gammaTerm returns γ(d, f, u) as either a variable or a fixed constant
// (fD rows and combinations with no variable are fixed).
func (m *model) gammaTerm(d, f int, u graph.NodeID) (varIdx int, fixed float64, isVar bool) {
	if f == fD(m.req.ChainLen) {
		if u == m.req.Dests[d] {
			return 0, 1, false
		}
		return 0, 0, false
	}
	if v, ok := m.gamma[[3]int{d, f, int(u)}]; ok {
		return v, 0, true
	}
	return 0, 0, false
}

func (m *model) constraints() error {
	g, req := m.g, m.req
	L := req.ChainLen
	// (1) each destination picks exactly one source.
	for d := range req.Dests {
		var terms []lp.Term
		seen := make(map[int]bool)
		for _, s := range req.Sources {
			v := m.gamma[[3]int{d, 0, int(s)}]
			if !seen[v] {
				seen[v] = true
				terms = append(terms, lp.Term{Var: v, Coeff: 1})
			}
		}
		if err := m.lp.AddConstraint(terms, lp.EQ, 1); err != nil {
			return err
		}
	}
	// (2) each destination picks exactly one VM per VNF.
	for d := range req.Dests {
		for f := 1; f <= L; f++ {
			var terms []lp.Term
			for _, u := range g.VMs() {
				terms = append(terms, lp.Term{Var: m.gamma[[3]int{d, f, int(u)}], Coeff: 1})
			}
			if err := m.lp.AddConstraint(terms, lp.EQ, 1); err != nil {
				return err
			}
		}
	}
	// (5) γ(d,f,u) ≤ σ(f,u).
	for d := range req.Dests {
		for f := 1; f <= L; f++ {
			for _, u := range g.VMs() {
				terms := []lp.Term{
					{Var: m.gamma[[3]int{d, f, int(u)}], Coeff: 1},
					{Var: m.sigma[[2]int{f, int(u)}], Coeff: -1},
				}
				if err := m.lp.AddConstraint(terms, lp.LE, 0); err != nil {
					return err
				}
			}
		}
	}
	// (6) at most one VNF per VM.
	for _, u := range g.VMs() {
		var terms []lp.Term
		for f := 1; f <= L; f++ {
			terms = append(terms, lp.Term{Var: m.sigma[[2]int{f, int(u)}], Coeff: 1})
		}
		if err := m.lp.AddConstraint(terms, lp.LE, 1); err != nil {
			return err
		}
	}
	// (7) chain routing: out(u) − in(u) ≥ γ(d,f,u) − γ(d,fN,u).
	for d := range req.Dests {
		for f := 0; f <= L; f++ {
			fN := f + 1
			for u := 0; u < g.NumNodes(); u++ {
				var terms []lp.Term
				for ai, a := range m.arcs {
					if int(a.from) == u {
						terms = append(terms, lp.Term{Var: m.pi[[3]int{d, f, ai}], Coeff: 1})
					}
					if int(a.to) == u {
						terms = append(terms, lp.Term{Var: m.pi[[3]int{d, f, ai}], Coeff: -1})
					}
				}
				rhs := 0.0
				if v, fixed, isVar := m.gammaTerm(d, f, graph.NodeID(u)); isVar {
					terms = append(terms, lp.Term{Var: v, Coeff: -1})
				} else {
					rhs += fixed
				}
				if v, fixed, isVar := m.gammaTerm(d, fN, graph.NodeID(u)); isVar {
					terms = append(terms, lp.Term{Var: v, Coeff: 1})
				} else {
					rhs -= fixed
				}
				if len(terms) == 0 && rhs <= 0 {
					continue
				}
				if err := m.lp.AddConstraint(terms, lp.GE, rhs); err != nil {
					return err
				}
			}
		}
	}
	// (8) π ≤ τ.
	for d := range req.Dests {
		for f := 0; f <= L; f++ {
			for ai := range m.arcs {
				terms := []lp.Term{
					{Var: m.pi[[3]int{d, f, ai}], Coeff: 1},
					{Var: m.tau[[2]int{f, ai}], Coeff: -1},
				}
				if err := m.lp.AddConstraint(terms, lp.LE, 0); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Relaxation solves the root LP relaxation (with 0/1 bounds) and returns
// its objective. It is an LP-based lower bound on the optimal forest cost.
func Relaxation(g *graph.Graph, req core.Request) (float64, error) {
	m := newModel(g, req)
	if err := m.build(); err != nil {
		return 0, err
	}
	for v := 0; v < m.nextVar; v++ {
		if err := m.lp.AddConstraint([]lp.Term{{Var: v, Coeff: 1}}, lp.LE, 1); err != nil {
			return 0, err
		}
	}
	sol, err := m.lp.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("sofip: relaxation status %v", sol.Status)
	}
	return sol.Objective, nil
}
