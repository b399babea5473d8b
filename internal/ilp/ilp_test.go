package ilp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// bruteForceBinary exhaustively minimizes a pure-binary model, returning
// the optimal objective and whether any assignment is feasible.
func bruteForceBinary(m *Model) (float64, []float64, bool) {
	n := len(m.vars)
	best := math.Inf(1)
	var bestX []float64
	x := make([]float64, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if m.feasible(x, 1e-9) {
				if obj := m.evalObjective(x); obj < best {
					best = obj
					bestX = append([]float64(nil), x...)
				}
			}
			return
		}
		x[i] = 0
		rec(i + 1)
		x[i] = 1
		rec(i + 1)
	}
	rec(0)
	return best, bestX, bestX != nil
}

func TestSolveKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2 (as minimization of the negation).
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	c := m.AddBinary("c")
	m.AddConstraint([]Term{{a, 1}, {b, 1}, {c, 1}}, LE, 2)
	m.SetObjective([]Term{{a, -10}, {b, -6}, {c, -4}}, 0)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-16)) > 1e-9 {
		t.Errorf("objective = %v, want -16", sol.Objective)
	}
	if !sol.IsSet(a) || !sol.IsSet(b) || sol.IsSet(c) {
		t.Errorf("solution = %v", sol.Values)
	}
}

func TestSolveEqualityAndGE(t *testing.T) {
	// Exactly two of four selected, must include d; minimize weight.
	m := NewModel()
	vars := make([]VarID, 4)
	names := []string{"a", "b", "c", "d"}
	weights := []float64{5, 1, 3, 2}
	terms := make([]Term, 4)
	obj := make([]Term, 4)
	for i := range vars {
		vars[i] = m.AddBinary(names[i])
		terms[i] = Term{vars[i], 1}
		obj[i] = Term{vars[i], weights[i]}
	}
	m.AddConstraint(terms, EQ, 2)
	m.AddConstraint([]Term{{vars[3], 1}}, GE, 1)
	m.SetObjective(obj, 0)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Optimal: d (forced, weight 2) + b (weight 1) = 3.
	if math.Abs(sol.Objective-3) > 1e-9 {
		t.Errorf("objective = %v, want 3", sol.Objective)
	}
	if !sol.IsSet(vars[1]) || !sol.IsSet(vars[3]) {
		t.Errorf("solution = %v", sol.Values)
	}
}

func TestSolveInfeasible(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.AddConstraint([]Term{{a, 1}}, GE, 2) // impossible for binary
	m.SetObjective([]Term{{a, 1}}, 0)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveEmptyModel(t *testing.T) {
	if _, err := NewModel().Solve(Options{}); err == nil {
		t.Error("empty model should error")
	}
}

func TestSolveObjectiveConstant(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.SetObjective([]Term{{a, 5}}, 100)
	sol, _ := m.Solve(Options{})
	if math.Abs(sol.Objective-100) > 1e-9 {
		t.Errorf("objective = %v, want 100 (a=0 plus constant)", sol.Objective)
	}
}

func TestSolveContinuousVariables(t *testing.T) {
	// Mixed model: binary gate y, continuous x in [0, 10];
	// min -x s.t. x <= 10*y, y costs 5.
	m := NewModel()
	y := m.AddBinary("y")
	x := m.AddContinuous("x", 0, 10)
	m.AddConstraint([]Term{{x, 1}, {y, -10}}, LE, 0)
	m.SetObjective([]Term{{x, -1}, {y, 5}}, 0)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Turning y on costs 5 but allows x=10, net -5: optimal.
	if math.Abs(sol.Objective-(-5)) > 1e-6 {
		t.Errorf("objective = %v, want -5", sol.Objective)
	}
	if got := sol.Value(x); math.Abs(got-10) > 1e-6 {
		t.Errorf("x = %v, want 10", got)
	}
}

func TestSolveContinuousLowerBound(t *testing.T) {
	// x in [2, 6], min x -> 2.
	m := NewModel()
	x := m.AddContinuous("x", 2, 6)
	m.SetObjective([]Term{{x, 1}}, 0)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Value(x)-2) > 1e-6 {
		t.Errorf("x = %v, want 2", sol.Value(x))
	}
}

// randomBinaryModel draws one small random binary model from the
// differential-test corpus (shared with the parallel determinism test).
func randomBinaryModel(rng *rand.Rand) *Model {
	n := 2 + rng.Intn(7) // up to 8 binaries -> 256 assignments
	m := NewModel()
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = m.AddBinary("x")
	}
	nCons := 1 + rng.Intn(5)
	for c := 0; c < nCons; c++ {
		var terms []Term
		for i := range vars {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{vars[i], float64(rng.Intn(11) - 5)})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{vars[0], 1})
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(9) - 2)
		m.AddConstraint(terms, sense, rhs)
	}
	obj := make([]Term, n)
	for i := range vars {
		obj[i] = Term{vars[i], float64(rng.Intn(21) - 10)}
	}
	m.SetObjective(obj, float64(rng.Intn(5)))
	return m
}

func TestSolveMatchesBruteForceOnRandomModels(t *testing.T) {
	// Differential test: random small binary models, LP-based B&B must
	// match exhaustive enumeration exactly (both objective and status).
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		m := randomBinaryModel(rng)

		wantObj, _, wantFeasible := bruteForceBinary(m)
		sol, err := m.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !wantFeasible {
			if sol.Status != StatusInfeasible {
				t.Errorf("trial %d: status = %v, want infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Errorf("trial %d: status = %v, want optimal", trial, sol.Status)
			continue
		}
		if math.Abs(sol.Objective-wantObj) > 1e-6 {
			t.Errorf("trial %d: objective = %v, want %v", trial, sol.Objective, wantObj)
		}
		if !m.feasible(sol.Values, 1e-6) {
			t.Errorf("trial %d: returned infeasible assignment", trial)
		}
	}
}

func TestSolveDeadlineReturnsIncumbent(t *testing.T) {
	// A model big enough that optimality proof takes a while, with an
	// already-expired deadline and a warm start: must return the warm
	// start as a feasible (not optimal) solution.
	rng := rand.New(rand.NewSource(5))
	m := NewModel()
	n := 40
	vars := make([]VarID, n)
	terms := make([]Term, n)
	obj := make([]Term, n)
	for i := range vars {
		vars[i] = m.AddBinary("x")
		terms[i] = Term{vars[i], float64(1 + rng.Intn(5))}
		obj[i] = Term{vars[i], -float64(1 + rng.Intn(9))}
	}
	m.AddConstraint(terms, LE, 30)
	m.SetObjective(obj, 0)

	warm := make([]float64, n)
	warm[0] = 1 // trivially feasible
	sol, err := m.Solve(Options{
		Deadline:  time.Now().Add(-time.Second),
		WarmStart: warm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusFeasible {
		t.Fatalf("status = %v, want feasible", sol.Status)
	}
	if !m.feasible(sol.Values, 1e-6) {
		t.Error("incumbent infeasible")
	}
}

func TestSolveTimeoutWithoutIncumbent(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.AddConstraint([]Term{{a, 1}}, LE, 1)
	m.SetObjective([]Term{{a, -1}}, 0)
	sol, err := m.Solve(Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusTimeout {
		t.Errorf("status = %v, want timeout", sol.Status)
	}
}

func TestSolveMaxNodesCap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewModel()
	n := 30
	terms := make([]Term, n)
	obj := make([]Term, n)
	for i := 0; i < n; i++ {
		v := m.AddBinary("x")
		terms[i] = Term{v, float64(1 + rng.Intn(7))}
		obj[i] = Term{v, -float64(1 + rng.Intn(7))}
	}
	m.AddConstraint(terms, LE, 25)
	m.SetObjective(obj, 0)
	sol, err := m.Solve(Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Nodes > 4 { // allow the in-flight node to finish
		t.Errorf("nodes = %d, want <= 4", sol.Nodes)
	}
	if sol.Status == StatusOptimal && sol.Nodes >= 3 {
		t.Errorf("claimed optimal after hitting node cap")
	}
}

func TestSolveWarmStartNeverWorsens(t *testing.T) {
	// Even with plenty of time, the result must be at least as good as a
	// feasible warm start.
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.AddConstraint([]Term{{a, 1}, {b, 1}}, LE, 1)
	m.SetObjective([]Term{{a, -3}, {b, -2}}, 0)
	warm := []float64{0, 1} // objective -2
	sol, err := m.Solve(Options{WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective > -2+1e-9 {
		t.Errorf("objective = %v, worse than warm start", sol.Objective)
	}
	if sol.Status != StatusOptimal || sol.Objective != -3 {
		t.Errorf("sol = %+v, want optimal -3", sol)
	}
}

func TestSolveInvalidWarmStartIgnored(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.AddConstraint([]Term{{a, 1}, {b, 1}}, LE, 1)
	m.SetObjective([]Term{{a, -1}, {b, -1}}, 0)
	// Warm start violating the constraint must be discarded, not returned.
	sol, err := m.Solve(Options{WarmStart: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-(-1)) > 1e-9 {
		t.Errorf("sol = %+v", sol)
	}
}

func TestMergeTermsDeduplication(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.AddConstraint([]Term{{a, 1}, {a, 1}}, LE, 1) // 2a <= 1 -> a = 0
	m.SetObjective([]Term{{a, -1}}, 0)
	sol, _ := m.Solve(Options{})
	if sol.IsSet(a) {
		t.Error("duplicate terms not merged: 2a <= 1 must force a = 0")
	}
}

func TestBoundReporting(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.SetObjective([]Term{{a, 2}}, 1)
	sol, _ := m.Solve(Options{})
	if sol.Status != StatusOptimal || sol.Bound != sol.Objective {
		t.Errorf("optimal bound = %v, obj = %v", sol.Bound, sol.Objective)
	}
}

func TestStatusAndSenseStrings(t *testing.T) {
	if StatusOptimal.String() != "optimal" || StatusTimeout.String() != "timeout" {
		t.Error("status strings")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("sense strings")
	}
	m := NewModel()
	v := m.AddBinary("myvar")
	if m.VarName(v) != "myvar" || m.NumVars() != 1 || m.NumConstraints() != 0 {
		t.Error("model accessors")
	}
}

// TestSolveRejectsUnboxedVariable pins the boxed-variable contract the
// dual simplex rests on: a variable with an infinite or empty domain is
// an error that names it, not a silent wrong answer.
func TestSolveRejectsUnboxedVariable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi float64
	}{
		{"up", 0, math.Inf(1)},
		{"down", math.Inf(-1), 0},
		{"empty", 2, 1},
		{"nan", math.NaN(), 1},
	} {
		m := NewModel()
		a := m.AddBinary("a")
		z := m.AddContinuous(tc.name, tc.lo, tc.hi)
		m.AddConstraint([]Term{{z, 1}, {a, -1}}, LE, 0)
		m.SetObjective([]Term{{a, 1}, {z, -1}}, 0)
		_, err := m.Solve(Options{})
		if err == nil || !strings.Contains(err.Error(), `"`+tc.name+`" (#1)`) {
			t.Errorf("bounds [%v, %v]: err = %v, want an error naming %q (#1)", tc.lo, tc.hi, err, tc.name)
		}
	}
}
