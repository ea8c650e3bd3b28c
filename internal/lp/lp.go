// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize cᵀx  subject to  Ax {≤,=,≥} b,  x ≥ 0.
//
// It is the substrate for the branch-and-bound integer solver
// (internal/ilp) that replaces CPLEX in the paper's optimal-baseline
// experiments. Bland's rule prevents cycling; the solver
// is intended for the small instances on which the paper runs its optimum.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota + 1 // ≤
	GE                  // ≥
	EQ                  // =
)

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int8(s))
	}
}

// Term is one coefficient of a constraint row.
type Term struct {
	Var   int
	Coeff float64
}

type row struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is an LP under construction. The zero value is unusable; call
// NewProblem.
type Problem struct {
	n    int
	obj  []float64
	rows []row
}

// NewProblem returns a problem with n decision variables (all ≥ 0) and a
// zero objective.
func NewProblem(n int) *Problem {
	return &Problem{n: n, obj: make([]float64, n)}
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return p.n }

// SetObjectiveCoeff sets the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoeff(v int, c float64) error {
	if v < 0 || v >= p.n {
		return fmt.Errorf("lp: variable %d out of range", v)
	}
	p.obj[v] = c
	return nil
}

// AddConstraint appends the row Σ terms {sense} rhs.
func (p *Problem) AddConstraint(terms []Term, sense Sense, rhs float64) error {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.n {
			return fmt.Errorf("lp: variable %d out of range", t.Var)
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			return fmt.Errorf("lp: bad coefficient %v", t.Coeff)
		}
	}
	if sense != LE && sense != GE && sense != EQ {
		return fmt.Errorf("lp: bad sense %d", sense)
	}
	p.rows = append(p.rows, row{terms: append([]Term(nil), terms...), sense: sense, rhs: rhs})
	return nil
}

// CopyInto replicates p's objective and rows into dst, which must have the
// same variable count.
func (p *Problem) CopyInto(dst *Problem) error {
	if dst.n != p.n {
		return fmt.Errorf("lp: CopyInto size mismatch: %d vs %d", dst.n, p.n)
	}
	copy(dst.obj, p.obj)
	dst.rows = dst.rows[:0]
	for _, r := range p.rows {
		dst.rows = append(dst.rows, row{
			terms: append([]Term(nil), r.terms...),
			sense: r.sense,
			rhs:   r.rhs,
		})
	}
	return nil
}

// Solution is the result of a successful solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const eps = 1e-9

// ErrIterationLimit is returned when simplex exceeds its pivot budget.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

// Solve runs two-phase simplex and returns the optimal solution, or a
// Solution with Infeasible/Unbounded status (and a nil X).
func (p *Problem) Solve() (*Solution, error) {
	m := len(p.rows)
	if m == 0 {
		// No constraints: x = 0 is optimal unless some coefficient rewards
		// growth, in which case the problem is unbounded below.
		for _, c := range p.obj {
			if c < 0 {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, p.n)}, nil
	}
	// Columns: n structural + one slack/surplus per inequality + one
	// artificial per row that needs it.
	nSlack := 0
	for _, r := range p.rows {
		if r.sense != EQ {
			nSlack++
		}
	}
	total := p.n + nSlack
	// Build rows with b >= 0.
	a := make([][]float64, m)
	b := make([]float64, m)
	slackCol := p.n
	type rowInfo struct{ slack int }
	infos := make([]rowInfo, m)
	for i, r := range p.rows {
		a[i] = make([]float64, total)
		for _, t := range r.terms {
			a[i][t.Var] += t.Coeff
		}
		b[i] = r.rhs
		infos[i].slack = -1
		switch r.sense {
		case LE:
			a[i][slackCol] = 1
			infos[i].slack = slackCol
			slackCol++
		case GE:
			a[i][slackCol] = -1
			infos[i].slack = slackCol
			slackCol++
		}
		if b[i] < 0 {
			for j := range a[i] {
				a[i][j] = -a[i][j]
			}
			b[i] = -b[i]
		}
	}
	// Artificial variables: one per row whose slack cannot serve as the
	// initial basis (EQ rows, or rows whose slack coefficient became -1
	// after sign normalization).
	basis := make([]int, m)
	nArt := 0
	for i := range a {
		s := infos[i].slack
		if s >= 0 && a[i][s] == 1 {
			basis[i] = s
		} else {
			basis[i] = -1
			nArt++
		}
	}
	cols := total + nArt
	t := make([][]float64, m)
	artCol := total
	for i := range a {
		t[i] = make([]float64, cols+1)
		copy(t[i], a[i])
		t[i][cols] = b[i]
		if basis[i] == -1 {
			t[i][artCol] = 1
			basis[i] = artCol
			artCol++
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		phase1 := make([]float64, cols)
		for j := total; j < cols; j++ {
			phase1[j] = 1
		}
		val, err := simplex(t, basis, phase1, cols)
		if err != nil {
			return nil, err
		}
		if val > 1e-6 {
			return &Solution{Status: Infeasible}, nil
		}
		// Drive remaining artificials out of the basis.
		for i, bv := range basis {
			if bv < total {
				continue
			}
			pivoted := false
			for j := 0; j < total; j++ {
				if math.Abs(t[i][j]) > eps {
					pivot(t, basis, i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; harmless to leave (its rhs is ~0).
				t[i][bv] = 1 // keep basis consistent
			}
		}
	}

	// Phase 2.
	phase2 := make([]float64, cols)
	copy(phase2, p.obj)
	// Forbid artificials from re-entering.
	for j := total; j < cols; j++ {
		phase2[j] = math.Inf(1)
	}
	val, err := simplex(t, basis, phase2, total)
	if err != nil {
		if errors.Is(err, errUnbounded) {
			return &Solution{Status: Unbounded}, nil
		}
		return nil, err
	}
	x := make([]float64, p.n)
	for i, bv := range basis {
		if bv < p.n {
			x[bv] = t[i][cols]
		}
	}
	return &Solution{Status: Optimal, X: x, Objective: val}, nil
}

var errUnbounded = errors.New("lp: unbounded")

// simplex minimizes cost over the tableau in place, allowing entering
// columns < limit. Returns the objective value.
func simplex(t [][]float64, basis []int, cost []float64, limit int) (float64, error) {
	m := len(t)
	if m == 0 {
		return 0, nil
	}
	cols := len(t[0]) - 1
	// Reduced costs maintained implicitly: z_j - c_j computed per
	// iteration from the basis (dense textbook implementation; fine for
	// the instance sizes we target).
	maxIter := 200*(m+cols) + 5000
	for iter := 0; iter < maxIter; iter++ {
		// y = c_B applied to rows; reduced cost r_j = c_j - Σ_i c_{B(i)} t[i][j].
		entering := -1
		for j := 0; j < limit && j < cols; j++ {
			if math.IsInf(cost[j], 1) {
				continue
			}
			r := cost[j]
			for i := 0; i < m; i++ {
				cb := cost[basis[i]]
				if cb != 0 && !math.IsInf(cb, 1) && t[i][j] != 0 {
					r -= cb * t[i][j]
				}
			}
			if r < -1e-7 {
				entering = j // Bland: first improving column
				break
			}
		}
		if entering < 0 {
			obj := 0.0
			for i := 0; i < m; i++ {
				cb := cost[basis[i]]
				if cb != 0 && !math.IsInf(cb, 1) {
					obj += cb * t[i][cols]
				}
			}
			return obj, nil
		}
		// Ratio test: find the true minimum ratio, then break ties among
		// rows within tolerance by smallest basis index (Bland).
		minRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][entering] > eps {
				if r := t[i][cols] / t[i][entering]; r < minRatio {
					minRatio = r
				}
			}
		}
		if math.IsInf(minRatio, 1) {
			return 0, errUnbounded
		}
		leave := -1
		for i := 0; i < m; i++ {
			if t[i][entering] > eps {
				r := t[i][cols] / t[i][entering]
				if r <= minRatio+eps && (leave < 0 || basis[i] < basis[leave]) {
					leave = i
				}
			}
		}
		pivot(t, basis, leave, entering)
	}
	return 0, ErrIterationLimit
}

// pivot makes column j basic in row i, snapping near-zero residue to zero
// to limit numerical drift over long degenerate pivot sequences.
func pivot(t [][]float64, basis []int, i, j int) {
	cols := len(t[i])
	pv := t[i][j]
	for k := 0; k < cols; k++ {
		t[i][k] /= pv
		if t[i][k] != 0 && math.Abs(t[i][k]) < 1e-11 {
			t[i][k] = 0
		}
	}
	t[i][j] = 1
	for r := range t {
		if r == i {
			continue
		}
		f := t[r][j]
		if f == 0 {
			continue
		}
		for k := 0; k < cols; k++ {
			t[r][k] -= f * t[i][k]
			if t[r][k] != 0 && math.Abs(t[r][k]) < 1e-11 {
				t[r][k] = 0
			}
		}
		t[r][j] = 0
	}
	basis[i] = j
}

// Objective evaluates the objective at x.
func (p *Problem) Objective(x []float64) float64 {
	v := 0.0
	for i, c := range p.obj {
		v += c * x[i]
	}
	return v
}
