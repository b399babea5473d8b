// Package ilp is a self-contained 0/1 integer linear programming solver,
// substituting for the Gurobi solver the paper uses (Section 9.1). It
// supports binary and boxed continuous variables, linear constraints, and
// minimization objectives; solving uses branch & bound in which each
// worker re-solves every node's LP relaxation with a bounded-variable
// dual simplex on one live dense tableau. The solver honours deadlines and
// reports the best incumbent on timeout — matching the paper's observation
// that "in case of a timeout, the ILP approach still produces a solution
// (which is however not guaranteed to be optimal anymore)".
package ilp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the comparison direction of a constraint.
type Sense uint8

const (
	// LE is "<=".
	LE Sense = iota
	// GE is ">=".
	GE
	// EQ is "=".
	EQ
)

// String renders the comparison operator.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// VarID identifies a variable within a model.
type VarID int

// varInfo describes one variable.
type varInfo struct {
	name     string
	integer  bool
	lo, hi   float64
	priority int // branching priority; higher branches first
}

// Term is one coefficient*variable pair of a linear expression.
type Term struct {
	Var   VarID
	Coeff float64
}

// constraint is sum(terms) sense rhs.
type constraint struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Model is a mutable ILP instance. Build it with AddBinary/AddContinuous,
// AddConstraint, and SetObjective*, then call Solve.
type Model struct {
	vars     []varInfo
	cons     []constraint
	obj      []Term
	objConst float64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NumVars returns the number of variables added so far.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// VarName returns the name the variable was added with (for diagnostics).
// Names need not be unique: a model builder may pass one static tag per
// kind of variable, and Solve's errors print the variable's index too.
func (m *Model) VarName(v VarID) string { return m.vars[v].name }

// AddBinary adds a 0/1 integer variable and returns its id.
func (m *Model) AddBinary(name string) VarID {
	m.vars = append(m.vars, varInfo{name: name, integer: true, lo: 0, hi: 1})
	return VarID(len(m.vars) - 1)
}

// SetBranchPriority assigns a branching priority to a variable: among
// fractional integer variables, branch-and-bound always branches on one
// with the highest priority. Structural decision variables (which plots to
// show) should outrank derived indicators — fixing them collapses large
// parts of the model, while branching on an indicator rarely does.
func (m *Model) SetBranchPriority(v VarID, priority int) {
	m.vars[v].priority = priority
}

// AddContinuous adds a continuous variable with bounds [lo, hi]. Both
// bounds must be finite: Solve rejects a model with an unboxed variable.
func (m *Model) AddContinuous(name string, lo, hi float64) VarID {
	m.vars = append(m.vars, varInfo{name: name, lo: lo, hi: hi})
	return VarID(len(m.vars) - 1)
}

// AddConstraint adds sum(terms) sense rhs. Terms referencing the same
// variable repeatedly are summed.
func (m *Model) AddConstraint(terms []Term, sense Sense, rhs float64) {
	m.cons = append(m.cons, constraint{terms: mergeTerms(terms), sense: sense, rhs: rhs})
}

// SetObjective sets the linear objective to minimize, plus a constant
// offset added to reported objective values.
func (m *Model) SetObjective(terms []Term, constant float64) {
	m.obj = mergeTerms(terms)
	m.objConst = constant
}

// mergeTerms sums duplicate variables and drops zero coefficients.
func mergeTerms(terms []Term) []Term {
	byVar := make(map[VarID]float64, len(terms))
	order := make([]VarID, 0, len(terms))
	for _, t := range terms {
		if _, ok := byVar[t.Var]; !ok {
			order = append(order, t.Var)
		}
		byVar[t.Var] += t.Coeff
	}
	out := make([]Term, 0, len(order))
	for _, v := range order {
		if c := byVar[v]; c != 0 {
			out = append(out, Term{Var: v, Coeff: c})
		}
	}
	return out
}

// Status describes the outcome of a Solve call.
type Status uint8

const (
	// StatusOptimal means a provably optimal integer solution was found.
	StatusOptimal Status = iota
	// StatusFeasible means a feasible (not provably optimal) solution was
	// found before the deadline expired.
	StatusFeasible
	// StatusInfeasible means the model has no feasible solution.
	StatusInfeasible
	// StatusTimeout means the deadline expired with no feasible solution.
	StatusTimeout
)

// String names the solve outcome.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusTimeout:
		return "timeout"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Solution is the result of solving a model.
type Solution struct {
	Status    Status
	Objective float64
	Values    []float64 // indexed by VarID; integer vars hold exact 0/1
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// LPSolves is the number of LP relaxations solved during the search.
	LPSolves int
	// SimplexIters is the total simplex iterations across all relaxations.
	SimplexIters int
	// Incumbents counts how many times a new best integer solution was
	// adopted (warm start, integral relaxations, and rounding heuristic).
	Incumbents int
	// Workers is the number of branch-and-bound subtree workers that
	// ran: 1 when the search ended in the single-threaded seed phase.
	Workers int
	// Steals counts frontier nodes a worker took from another worker's
	// deque (work-stealing load balance events).
	Steals int
	// SharedPrunes counts subtrees pruned against an incumbent that a
	// different worker discovered — the payoff of sharing the incumbent
	// atomically instead of searching independently.
	SharedPrunes int
	// Bound is the best proven lower bound on the optimum (minimization).
	Bound float64
}

// Value returns the solution value of v rounded for integer variables.
func (s *Solution) Value(v VarID) float64 { return s.Values[v] }

// IsSet reports whether binary variable v is 1 in the solution.
func (s *Solution) IsSet(v VarID) bool { return s.Values[v] > 0.5 }

// ErrNoModel is returned when solving an empty model.
var ErrNoModel = errors.New("ilp: model has no variables")

// evalObjective computes the objective value of an assignment.
func (m *Model) evalObjective(x []float64) float64 {
	v := m.objConst
	for _, t := range m.obj {
		v += t.Coeff * x[t.Var]
	}
	return v
}

// Feasible reports whether the assignment x (indexed by VarID, one
// entry per variable) satisfies every bound, integrality requirement
// and constraint within tol. Callers deriving warm-start assignments
// use it to vet a candidate seed before handing it to Options.WarmStart
// — Solve silently discards an infeasible seed, so checking up front is
// the only way to know whether a seed will actually take.
func (m *Model) Feasible(x []float64, tol float64) bool {
	if len(x) != len(m.vars) {
		return false
	}
	return m.feasible(x, tol)
}

// feasible reports whether x satisfies all constraints, bounds and
// integrality requirements within tolerance.
func (m *Model) feasible(x []float64, tol float64) bool {
	for i, vi := range m.vars {
		if vi.integer && math.Abs(x[i]-math.Round(x[i])) > tol {
			return false
		}
	}
	return m.satisfies(x, tol)
}

// satisfies reports whether x satisfies all constraints and bounds
// within tolerance, integrality aside: the model check every LP
// relaxation point passes before branch and bound uses it.
func (m *Model) satisfies(x []float64, tol float64) bool {
	for i, vi := range m.vars {
		if x[i] < vi.lo-tol || x[i] > vi.hi+tol {
			return false
		}
	}
	for _, c := range m.cons {
		s := 0.0
		for _, t := range c.terms {
			s += t.Coeff * x[t.Var]
		}
		switch c.sense {
		case LE:
			if s > c.rhs+tol {
				return false
			}
		case GE:
			if s < c.rhs-tol {
				return false
			}
		case EQ:
			if math.Abs(s-c.rhs) > tol {
				return false
			}
		}
	}
	return true
}
