package ilp

import (
	"math"
	"time"
)

// lpStatus is the outcome of an LP relaxation solve.
type lpStatus uint8

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpAborted // deadline or iteration cap hit
)

const (
	// primalTol is how far a basic variable may sit outside its box
	// before the dual simplex pivots it out.
	primalTol = 1e-9
	// dualTol is the reduced cost below which a nonbasic variable has no
	// preferred bound.
	dualTol = 1e-9
	// pivotTol is the smallest pivot-row entry accepted as a pivot.
	pivotTol = 1e-9
	// deadlineCheckMask throttles time.Now calls to every 64 iterations.
	deadlineCheckMask = 63
	// rebuildEvery scales the pivot budget after which a live tableau is
	// rebuilt from the slack basis to shed accumulated rounding error:
	// rebuildEvery·(rows+structurals) pivots.
	rebuildEvery = 40
)

// boxLP is a live bounded-variable dual simplex tableau over one model's
// LP relaxation. Every model row i gets one slack s_i,
//
//	sum_j a_ij x_j + s_i = rhs_i,
//
// boxed by the row's sense: LE [0,∞), GE (−∞,0], EQ [0,0]. Every
// structural x_j keeps its finite [lo, hi] (Model.Solve rejects any
// other), so the slack basis with each structural at the bound its cost
// prefers is dual feasible, and no phase 1 or artificial column is ever
// needed. A branch-and-bound node is only a set of bound changes: a
// fixing sets lo = hi. Reduced costs do not depend on bounds, so the
// previous node's optimal basis stays dual feasible once the nonbasic
// structurals move to the bounds their reduced costs prefer, and the
// dual simplex restores primal feasibility in a few pivots. That holds
// for any node, not only a child of the last one, so each worker keeps
// one boxLP and re-solves every node it pops on it.
type boxLP struct {
	m      *Model
	nv, nr int // structural columns, rows (= slack columns)

	arena []float64
	t     [][]float64 // nr rows of B⁻¹[A I], nv+nr columns each
	d     []float64   // reduced costs by column
	xb    []float64   // basic values by row
	basis []int       // column basic in each row
	pos   []int       // row of a basic column, -1 when nonbasic
	val   []float64   // value of each nonbasic column, always a bound
	lo    []float64   // current bounds by column
	hi    []float64
	cost  []float64 // objective by structural column

	// idx/vals gather the pivot row's nonzeros once per pivot.
	idx  []int
	vals []float64
	x    []float64 // structural solution of the last solve

	pivots int  // pivots since the last rebuild
	stale  bool // rebuild before the next solve
	iters  int  // pivots of the last solve, cold retry included
}

// newBoxLP allocates a tableau for m. It is built from the slack basis
// on the first solve.
func newBoxLP(m *Model) *boxLP {
	nv, nr := len(m.vars), len(m.cons)
	cols := nv + nr
	lp := &boxLP{
		m: m, nv: nv, nr: nr,
		arena: make([]float64, nr*cols),
		t:     make([][]float64, nr),
		d:     make([]float64, cols),
		xb:    make([]float64, nr),
		basis: make([]int, nr),
		pos:   make([]int, cols),
		val:   make([]float64, cols),
		lo:    make([]float64, cols),
		hi:    make([]float64, cols),
		cost:  make([]float64, nv),
		idx:   make([]int, 0, cols),
		vals:  make([]float64, 0, cols),
		x:     make([]float64, nv),
		stale: true,
	}
	for i := range lp.t {
		lp.t[i] = lp.arena[i*cols : (i+1)*cols : (i+1)*cols]
	}
	for _, term := range m.obj {
		lp.cost[term.Var] += term.Coeff
	}
	for i, con := range m.cons {
		k := nv + i
		switch con.sense {
		case LE:
			lp.lo[k], lp.hi[k] = 0, math.Inf(1)
		case GE:
			lp.lo[k], lp.hi[k] = math.Inf(-1), 0
		case EQ:
			lp.lo[k], lp.hi[k] = 0, 0
		}
	}
	return lp
}

// rebuild resets the tableau to the slack basis with every structural
// at 0; solve then moves each one to a bound of its box.
func (lp *boxLP) rebuild() {
	clear(lp.arena)
	for i, con := range lp.m.cons {
		row := lp.t[i]
		for _, term := range con.terms {
			row[term.Var] = term.Coeff
		}
		row[lp.nv+i] = 1
		lp.xb[i] = con.rhs
	}
	for k := range lp.pos {
		lp.pos[k] = -1
	}
	for i := range lp.basis {
		lp.basis[i] = lp.nv + i
		lp.pos[lp.nv+i] = i
	}
	copy(lp.d, lp.cost)
	clear(lp.d[lp.nv:])
	clear(lp.val)
	lp.pivots = 0
	lp.stale = false
}

// solve re-solves the relaxation under the given binary fixings (-1
// unfixed) on the live tableau. It returns the structural solution,
// which aliases lp and is valid until the next solve, and its objective.
// A point that fails the model check is re-solved once from a rebuilt
// tableau, so tableau drift can never surface as a solution.
func (lp *boxLP) solve(fixed []int8, deadline time.Time) ([]float64, float64, lpStatus) {
	lp.iters = 0
	for {
		cold := lp.stale || lp.pivots > rebuildEvery*(lp.nr+lp.nv)
		if cold {
			lp.rebuild()
		}
		st := lp.resolve(fixed, deadline)
		if st == lpAborted {
			lp.stale = true
			return nil, 0, st
		}
		if st == lpInfeasible {
			return nil, 0, st
		}
		x := lp.x
		obj := lp.m.objConst
		for j := range x {
			if r := lp.pos[j]; r >= 0 {
				x[j] = lp.xb[r]
			} else {
				x[j] = lp.val[j]
			}
			obj += lp.cost[j] * x[j]
		}
		if lp.m.satisfies(x, 1e-6) {
			return x, obj, lpOptimal
		}
		lp.stale = true
		if cold {
			return nil, 0, lpAborted
		}
	}
}

// resolve applies the node's bounds, moves every nonbasic structural to
// the bound its reduced cost prefers, and runs the dual simplex.
func (lp *boxLP) resolve(fixed []int8, deadline time.Time) lpStatus {
	for j, vi := range lp.m.vars {
		lo, hi := vi.lo, vi.hi
		if vi.integer && fixed[j] >= 0 {
			lo = float64(fixed[j])
			hi = lo
		}
		lp.lo[j], lp.hi[j] = lo, hi
		if lp.pos[j] >= 0 {
			continue
		}
		target := lo
		switch dj, v := lp.d[j], lp.val[j]; {
		case dj < -dualTol:
			target = hi
		case dj <= dualTol && v == hi:
			target = hi
		}
		if delta := target - lp.val[j]; delta != 0 {
			for i, row := range lp.t {
				if a := row[j]; a != 0 {
					lp.xb[i] -= delta * a
				}
			}
			lp.val[j] = target
		}
	}
	return lp.dualSimplex(deadline)
}

// dualSimplex pivots out the most infeasible basic variable until every
// basic value sits inside its box. Past half the iteration cap it falls
// back to smallest-index choices (Bland) to break any cycling.
func (lp *boxLP) dualSimplex(deadline time.Time) lpStatus {
	iterCap := 20*(lp.nr+lp.nv) + 1000
	for iter := 0; ; iter++ {
		if iter >= iterCap {
			return lpAborted
		}
		if iter&deadlineCheckMask == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return lpAborted
		}
		bland := iter > iterCap/2

		// Leaving row: the basic variable farthest outside its box.
		r := -1
		worst := primalTol
		for i, bc := range lp.basis {
			v := lp.xb[i]
			inf := lp.lo[bc] - v
			if over := v - lp.hi[bc]; over > inf {
				inf = over
			}
			if inf <= primalTol {
				continue
			}
			if bland {
				if r == -1 || bc < lp.basis[r] {
					r = i
				}
			} else if inf > worst {
				worst = inf
				r = i
			}
		}
		if r == -1 {
			return lpOptimal
		}
		leave := lp.basis[r]
		bound := lp.hi[leave]
		up := lp.xb[r] < lp.lo[leave] // the leaving variable must rise
		if up {
			bound = lp.lo[leave]
		}

		// Dual ratio test over the pivot row. Row r reads
		// x_leave = const − Σ a_k x_k, so raising x_leave needs an a_k < 0
		// column that can rise (at lo) or an a_k > 0 column that can fall
		// (at hi); lowering it the opposite. The smallest |d_k|/|a_k| keeps
		// every reduced cost on its bound's side; ties go to the larger
		// pivot for stability.
		row := lp.t[r]
		enter := -1
		bestRatio, bestA := math.Inf(1), 0.0
		for k, a := range row {
			if a <= pivotTol && a >= -pivotTol {
				continue
			}
			if lp.pos[k] >= 0 || lp.lo[k] == lp.hi[k] {
				continue
			}
			atLo := lp.val[k] == lp.lo[k]
			if (a < 0) != (up == atLo) {
				continue
			}
			dk := lp.d[k]
			if !atLo {
				dk = -dk
			}
			if dk < 0 {
				dk = 0 // drift: a reduced cost a hair past its sign
			}
			absA := math.Abs(a)
			ratio := dk / absA
			switch {
			case enter == -1, ratio < bestRatio-1e-12:
			case ratio <= bestRatio+1e-12 && !bland && absA > bestA:
			default:
				continue
			}
			enter, bestRatio, bestA = k, ratio, absA
		}
		if enter == -1 {
			return lpInfeasible
		}

		// Primal update: move the entering column until the leaving
		// variable reaches its bound.
		step := (lp.xb[r] - bound) / row[enter]
		for i, ri := range lp.t {
			if a := ri[enter]; a != 0 {
				lp.xb[i] -= step * a
			}
		}
		lp.xb[r] = lp.val[enter] + step
		lp.val[leave] = bound
		lp.basis[r] = enter
		lp.pos[enter] = r
		lp.pos[leave] = -1
		lp.pivot(r, enter)
		lp.pivots++
		lp.iters++
	}
}

// pivot performs a Gauss-Jordan pivot on row r, column c of the tableau
// and the reduced-cost row. The pivot row's nonzeros are gathered once,
// and each other row with a nonzero in column c is updated over that
// list only; the tableau stays sparse enough that a dense row sweep
// would be mostly multiplications by zero.
func (lp *boxLP) pivot(r, c int) {
	pr := lp.t[r]
	inv := 1 / pr[c]
	idx, vals := lp.idx[:0], lp.vals[:0]
	for k, v := range pr {
		if v != 0 {
			v *= inv
			pr[k] = v
			idx = append(idx, k)
			vals = append(vals, v)
		}
	}
	pr[c] = 1
	for i, row := range lp.t {
		if i == r {
			continue
		}
		f := row[c]
		if f == 0 {
			continue
		}
		for p, k := range idx {
			row[k] -= f * vals[p]
		}
		row[c] = 0
	}
	if f := lp.d[c]; f != 0 {
		for p, k := range idx {
			lp.d[k] -= f * vals[p]
		}
		lp.d[c] = 0
	}
	lp.idx, lp.vals = idx, vals
}
