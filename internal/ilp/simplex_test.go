package ilp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// lpAlmost compares with LP-solver tolerance.
func lpAlmost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// lpModel builds min c'x s.t. rows (sense) b over continuous variables
// boxed in [0, hi].
func lpModel(c []float64, hi float64, rows [][]float64, senses []Sense, b []float64) *Model {
	m := NewModel()
	obj := make([]Term, len(c))
	for j := range c {
		obj[j] = Term{m.AddContinuous("x", 0, hi), c[j]}
	}
	for i, row := range rows {
		terms := make([]Term, len(row))
		for j, a := range row {
			terms[j] = Term{VarID(j), a}
		}
		m.AddConstraint(terms, senses[i], b[i])
	}
	m.SetObjective(obj, 0)
	return m
}

// unfixed returns a fixing vector that leaves all n variables free.
func unfixed(n int) []int8 {
	f := make([]int8, n)
	for i := range f {
		f[i] = -1
	}
	return f
}

// solveLP solves m's LP relaxation from the slack basis, no binary fixed.
func solveLP(m *Model, deadline time.Time) ([]float64, float64, lpStatus) {
	return newBoxLP(m).solve(unfixed(m.NumVars()), deadline)
}

func TestSolveLPBasicMax(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic example):
	// optimum at (2, 6) with objective 36; as minimization of the negation.
	m := lpModel([]float64{-3, -5}, 100,
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]Sense{LE, LE, LE}, []float64{4, 12, 18})
	x, obj, st := solveLP(m, time.Time{})
	if st != lpOptimal {
		t.Fatalf("status = %v", st)
	}
	if !lpAlmost(obj, -36) {
		t.Errorf("objective = %v, want -36", obj)
	}
	if !lpAlmost(x[0], 2) || !lpAlmost(x[1], 6) {
		t.Errorf("x = %v, want (2, 6)", x)
	}
}

func TestSolveLPEqualityAndGE(t *testing.T) {
	// min x + y s.t. x + y = 4, x >= 1: optimum 4 at e.g. (1, 3).
	m := lpModel([]float64{1, 1}, 100,
		[][]float64{{1, 1}, {1, 0}},
		[]Sense{EQ, GE}, []float64{4, 1})
	x, obj, st := solveLP(m, time.Time{})
	if st != lpOptimal {
		t.Fatalf("status = %v", st)
	}
	if !lpAlmost(obj, 4) {
		t.Errorf("objective = %v, want 4", obj)
	}
	if x[0] < 1-1e-6 || !lpAlmost(x[0]+x[1], 4) {
		t.Errorf("x = %v", x)
	}
}

// TestSolveLPZeroRHSNormalization covers zero right-hand sides in LE,
// GE and EQ form; each sense boxes its slack — LE [0,∞), GE (−∞,0],
// EQ [0,0] — and the slack basis takes the rows as they come.
func TestSolveLPZeroRHSNormalization(t *testing.T) {
	// min -x s.t. x - y <= 0, y - x >= 0, x - y = 0, y <= 5: x = y = 5.
	m := lpModel([]float64{-1, 0}, 10,
		[][]float64{{1, -1}, {-1, 1}, {1, -1}, {0, 1}},
		[]Sense{LE, GE, EQ, LE}, []float64{0, 0, 0, 5})
	x, obj, st := solveLP(m, time.Time{})
	if st != lpOptimal {
		t.Fatalf("status = %v", st)
	}
	if !lpAlmost(obj, -5) || !lpAlmost(x[0], 5) || !lpAlmost(x[1], 5) {
		t.Errorf("x = %v obj = %v", x, obj)
	}
}

// TestSolveLPNegativeRHSFlip covers a negative right-hand side, which
// the slack basis takes without flipping the row.
func TestSolveLPNegativeRHSFlip(t *testing.T) {
	// -x <= -2 means x >= 2; min x is 2.
	m := lpModel([]float64{1}, 10, [][]float64{{-1}}, []Sense{LE}, []float64{-2})
	x, obj, st := solveLP(m, time.Time{})
	if st != lpOptimal || !lpAlmost(obj, 2) || !lpAlmost(x[0], 2) {
		t.Errorf("x = %v obj = %v st = %v", x, obj, st)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	// x >= 3 and x <= 1.
	m := lpModel([]float64{1}, 10, [][]float64{{1}, {1}}, []Sense{GE, LE}, []float64{3, 1})
	if _, _, st := solveLP(m, time.Time{}); st != lpInfeasible {
		t.Errorf("status = %v, want infeasible", st)
	}
}

func TestSolveLPNoConstraints(t *testing.T) {
	m := lpModel([]float64{1, 2}, 10, nil, nil, nil)
	x, obj, st := solveLP(m, time.Time{})
	if st != lpOptimal || obj != 0 || x[0] != 0 || x[1] != 0 {
		t.Errorf("unconstrained min of positive costs should sit at the lower bounds: %v %v %v", x, obj, st)
	}
	m = lpModel([]float64{-1}, 10, nil, nil, nil)
	if x, obj, st := solveLP(m, time.Time{}); st != lpOptimal || obj != -10 || x[0] != 10 {
		t.Errorf("negative cost should sit at the upper bound: %v %v %v", x, obj, st)
	}
}

func TestSolveLPDeadline(t *testing.T) {
	// An already-expired deadline aborts promptly on a non-trivial LP.
	n := 40
	rng := rand.New(rand.NewSource(1))
	c := make([]float64, n)
	for i := range c {
		c[i] = -rng.Float64()
	}
	rows := make([][]float64, n)
	senses := make([]Sense, n)
	b := make([]float64, n)
	for r := range rows {
		rows[r] = make([]float64, n)
		for j := range rows[r] {
			rows[r][j] = rng.Float64()
		}
		senses[r] = LE
		b[r] = 1 + rng.Float64()
	}
	m := lpModel(c, 10, rows, senses, b)
	if _, _, st := solveLP(m, time.Now().Add(-time.Second)); st != lpAborted {
		t.Errorf("status = %v, want aborted", st)
	}
}

// TestSolveLPRandomAgainstVertexEnumeration differential-tests the dual
// simplex on small random boxed LPs against brute-force vertex
// enumeration.
func TestSolveLPRandomAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		// 2 variables in [0, 10], up to 4 LE constraints with positive
		// rhs: the origin is feasible, so the LP always is.
		nCons := 1 + rng.Intn(4)
		rows := make([][]float64, nCons)
		senses := make([]Sense, nCons)
		b := make([]float64, nCons)
		for i := range rows {
			rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			senses[i] = LE
			b[i] = rng.Float64() * 5
		}
		m := lpModel([]float64{rng.NormFloat64(), rng.NormFloat64()}, 10, rows, senses, b)
		x, obj, st := solveLP(m, time.Time{})
		want, ok := vertexOptimum(m, unfixed(2))
		if !ok || st != lpOptimal {
			t.Errorf("trial %d: status = %v, enumeration feasible = %v", trial, st, ok)
			continue
		}
		if !lpAlmost(obj, want) {
			t.Errorf("trial %d: obj = %v, want %v (x = %v)", trial, obj, want, x)
		}
	}
}

// vertexOptimum minimizes the LP relaxation of a small model under the
// given binary fixings by enumerating every vertex: each choice of n
// hyperplanes among the rows (as equalities) and the variables' node
// bounds, solved and kept when feasible. The box makes the feasible set
// a polytope, so the optimum sits at one of them. ok is false when the
// relaxation is infeasible.
func vertexOptimum(m *Model, fixed []int8) (best float64, ok bool) {
	n := len(m.vars)
	lo := make([]float64, n)
	hi := make([]float64, n)
	for j, vi := range m.vars {
		lo[j], hi[j] = vi.lo, vi.hi
		if vi.integer && fixed[j] >= 0 {
			lo[j], hi[j] = float64(fixed[j]), float64(fixed[j])
		}
	}
	type plane struct {
		a   []float64
		rhs float64
	}
	var planes []plane
	for _, c := range m.cons {
		a := make([]float64, n)
		for _, t := range c.terms {
			a[t.Var] = t.Coeff
		}
		planes = append(planes, plane{a, c.rhs})
	}
	for j := 0; j < n; j++ {
		unit := make([]float64, n)
		unit[j] = 1
		planes = append(planes, plane{unit, lo[j]}, plane{unit, hi[j]})
	}
	feasible := func(x []float64) bool {
		for j := range x {
			if x[j] < lo[j]-1e-7 || x[j] > hi[j]+1e-7 {
				return false
			}
		}
		return m.satisfies(x, 1e-7)
	}
	best = math.Inf(1)
	pick := make([]int, n)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	x := make([]float64, n)
	var rec func(k, from int)
	rec = func(k, from int) {
		if k == n {
			for i, p := range pick {
				copy(a[i], planes[p].a)
				a[i][n] = planes[p].rhs
			}
			if !gaussSolve(a, x) || !feasible(x) {
				return
			}
			if v := m.evalObjective(x); v < best {
				best = v
			}
			return
		}
		for p := from; p < len(planes); p++ {
			pick[k] = p
			rec(k+1, p+1)
		}
	}
	rec(0, 0)
	return best, !math.IsInf(best, 1)
}

// gaussSolve solves the n×n system held in the augmented matrix a into
// x with partial pivoting, reporting false when it is singular.
func gaussSolve(a [][]float64, x []float64) bool {
	n := len(a)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-9 {
			return false
		}
		a[col], a[p] = a[p], a[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	for i := range x {
		x[i] = a[i][n] / a[i][i]
	}
	return true
}

// randomBoxedModel draws a small mixed model: binaries and continuous
// variables in random finite boxes, rows of every sense.
func randomBoxedModel(rng *rand.Rand) *Model {
	m := NewModel()
	n := 2 + rng.Intn(4)
	for j := 0; j < n; j++ {
		if rng.Intn(3) == 0 {
			lo := -3 * rng.Float64()
			m.AddContinuous("z", lo, lo+0.5+4*rng.Float64())
		} else {
			m.AddBinary("x")
		}
	}
	for c := 1 + rng.Intn(4); c > 0; c-- {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) > 0 {
				terms = append(terms, Term{VarID(j), float64(rng.Intn(9) - 4)})
			}
		}
		m.AddConstraint(terms, []Sense{LE, GE, EQ}[rng.Intn(3)], float64(rng.Intn(7)-2))
	}
	obj := make([]Term, n)
	for j := range obj {
		obj[j] = Term{VarID(j), rng.NormFloat64() * 5}
	}
	m.SetObjective(obj, rng.Float64())
	return m
}

// TestLiveTableauMatchesColdSolveAndVertices is the node re-solve
// property: for random boxed models and random fixing sequences,
// re-solving every fixing on one live tableau agrees with a cold solve
// from the slack basis and with vertex enumeration, on feasibility and
// on the objective within 1e-7.
func TestLiveTableauMatchesColdSolveAndVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 150; trial++ {
		m := randomBoxedModel(rng)
		live := newBoxLP(m)
		fixed := unfixed(m.NumVars())
		for step := 0; step < 25; step++ {
			for j, vi := range m.vars {
				if vi.integer {
					fixed[j] = int8(rng.Intn(3) - 1)
				}
			}
			_, liveObj, liveSt := live.solve(fixed, time.Time{})
			_, coldObj, coldSt := newBoxLP(m).solve(fixed, time.Time{})
			want, feasible := vertexOptimum(m, fixed)
			if !feasible {
				if liveSt != lpInfeasible || coldSt != lpInfeasible {
					t.Fatalf("trial %d step %d: live %v cold %v, want infeasible", trial, step, liveSt, coldSt)
				}
				continue
			}
			if liveSt != lpOptimal || coldSt != lpOptimal {
				t.Fatalf("trial %d step %d: live %v cold %v, want optimal %v", trial, step, liveSt, coldSt, want)
			}
			if math.Abs(liveObj-coldObj) > 1e-7 || math.Abs(liveObj-want) > 1e-7 {
				t.Fatalf("trial %d step %d: live %v cold %v vertices %v", trial, step, liveObj, coldObj, want)
			}
		}
	}
}
