package core

import (
	"context"
	"fmt"

	"sort"
	"time"

	"muve/internal/ilp"
)

// ILPSolver translates multiplot selection into 0/1 integer programming
// (Section 5) and solves it with the bundled branch-and-bound solver. On
// timeout it returns the best incumbent — as the paper notes, "the ILP
// approach still produces a solution (which is however not guaranteed to
// be optimal anymore)".
//
// Following the paper's own implementation note (footnote 3: "we use
// slightly different auxiliary variables ... the asymptotic number of
// variables and constraints is however equivalent"), products of decision
// variables are linearized against the aggregate totals (red bars B_R, red
// plots P_R, bars B, plots P) with one continuous auxiliary variable per
// (query, total) pair instead of one binary per variable pair. The integer
// optima coincide with the pairwise formulation under the Section 4.2
// model.
type ILPSolver struct {
	// Timeout bounds optimization time (the paper uses one second for
	// interactive analysis). Zero means no limit.
	Timeout time.Duration
	// WarmStart, when true, seeds the search with the greedy solution so
	// timeouts can never return something worse than greedy. Off by
	// default to keep the two solvers' comparison honest.
	WarmStart bool
	// Hint, when non-nil, seeds the search with a prior multiplot — the
	// previous incremental sequence's best, or the previous utterance's
	// answer in a voice session. The hint is remapped onto the current
	// instance by (template key, bar label), filtered down to what still
	// exists, feasibility-checked, and only then handed to branch-and-
	// bound as its initial incumbent; a hint from a disjoint candidate
	// set degrades to a cold start, never a mis-seed or an infeasible
	// model. When both Hint and WarmStart yield a seed, the cheaper
	// incumbent wins. Stats.WarmStart reports how the hint fared.
	Hint *Multiplot
	// MaxBarsPerPlot caps bars per plot (0 = derived from screen width).
	MaxBarsPerPlot int
	// Ctx, when non-nil, bounds the solve: a context deadline earlier
	// than Timeout wins (the branch-and-bound search then returns its
	// best incumbent, exactly as on Timeout), and a context already
	// cancelled before the solve starts aborts it with the context's
	// error.
	Ctx context.Context
}

// Name identifies the solver in experiment output.
func (s *ILPSolver) Name() string { return "ILP" }

// WarmStartResult classifies the fate of a warm-start hint (a prior
// multiplot handed to ILPSolver.Hint) for stats, trace spans and the
// muve_warmstart_total metric. The zero value "" means no hint was
// provided.
type WarmStartResult string

const (
	// WarmHit: every hint entry mapped onto the current instance and the
	// derived assignment seeded the search.
	WarmHit WarmStartResult = "hit"
	// WarmPartial: part of the hint survived the remap (vanished
	// templates, labels or over-cap bars were dropped) and the remainder
	// seeded the search.
	WarmPartial WarmStartResult = "partial"
	// WarmInfeasible: the hint mapped onto current variables but the
	// derived assignment violates the model (e.g. a processing-cost
	// bound the prior answer busts), so nothing was seeded.
	WarmInfeasible WarmStartResult = "infeasible"
	// WarmNone: a hint was provided but nothing in it exists in the
	// current instance; the solve started cold.
	WarmNone WarmStartResult = "none"
)

// ilpVars records the variable layout of one model build for decoding.
type ilpVars struct {
	model *ilp.Model
	// plotVar[t][r] -> p_{t,r}; -1 when the plot cannot fit in any row.
	plotVar map[string][]ilp.VarID
	// barVar/hlVar[t][r][j] -> q and h vars for the j-th query of group t.
	barVar map[string][][]ilp.VarID
	hlVar  map[string][][]ilp.VarID
	// sVar[t][r] -> s_{t,r}: plot t in row r contains a highlighted bar.
	sVar map[string][]ilp.VarID
	// zVars[qi] -> the four continuous product auxiliaries (zhB, zhP,
	// zdB, zdP) with their big-M bounds, for warm-start value derivation.
	zVars map[int][4]zAux
	// groups by key, with deterministic order in keys.
	groups map[string]templateGroup
	keys   []string
	// per-query aggregate vars.
	disp []ilp.VarID // qd_i: displayed anywhere
	hl   []ilp.VarID // h_i: highlighted anywhere
	dnh  []ilp.VarID // d_i: displayed, not highlighted
	// groupVars[gi] -> g_i for processing-cost-aware instances.
	groupVars []ilp.VarID
}

// Solve builds and solves the ILP.
func (s *ILPSolver) Solve(in *Instance) (Multiplot, Stats, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return Multiplot{}, Stats{}, err
	}
	if s.Ctx != nil {
		if err := s.Ctx.Err(); err != nil {
			return Multiplot{}, Stats{}, err
		}
	}
	v, err := s.buildModel(in)
	if err != nil {
		return Multiplot{}, Stats{}, err
	}
	opt := ilp.Options{Ctx: s.Ctx}
	if s.Timeout > 0 {
		opt.Deadline = start.Add(s.Timeout)
	}
	if s.Ctx != nil {
		if d, ok := s.Ctx.Deadline(); ok && (opt.Deadline.IsZero() || d.Before(opt.Deadline)) {
			opt.Deadline = d
		}
	}
	warmRes, seed := s.warmSeed(in, v)
	if seed != nil {
		opt.WarmStart = seed
	}
	sol, err := v.model.Solve(opt)
	if err != nil {
		return Multiplot{}, Stats{}, err
	}
	st := Stats{
		Duration:     time.Since(start),
		Nodes:        sol.Nodes,
		LPSolves:     sol.LPSolves,
		SimplexIters: sol.SimplexIters,
		Incumbents:   sol.Incumbents,
		Workers:      sol.Workers,
		Steals:       sol.Steals,
		SharedPrunes: sol.SharedPrunes,
		WarmStart:    warmRes,
	}
	switch sol.Status {
	case ilp.StatusOptimal:
		st.Optimal = true
	case ilp.StatusFeasible:
		st.TimedOut = true
	case ilp.StatusTimeout:
		// No incumbent at all: fall back to the empty multiplot, which is
		// always feasible for this problem.
		st.TimedOut = true
		m := Multiplot{}
		st.Cost = in.Cost(m)
		return m, st, nil
	case ilp.StatusInfeasible:
		return Multiplot{}, st, fmt.Errorf("core: ILP reported infeasible — the empty multiplot should always be feasible (model bug)")
	}
	m := v.decode(sol)
	m = tidy(m)
	st.Cost = in.Cost(m)
	return m, st, nil
}

// buildModel constructs the integer program.
func (s *ILPSolver) buildModel(in *Instance) (*ilpVars, error) {
	m := ilp.NewModel()
	groups := GroupByTemplate(in.Candidates)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	rows := in.Screen.Rows
	screenW := in.Screen.WidthUnits()
	nq := len(in.Candidates)

	v := &ilpVars{
		model:   m,
		plotVar: make(map[string][]ilp.VarID, len(keys)),
		barVar:  make(map[string][][]ilp.VarID, len(keys)),
		hlVar:   make(map[string][][]ilp.VarID, len(keys)),
		sVar:    make(map[string][]ilp.VarID, len(keys)),
		zVars:   make(map[int][4]zAux, nq),
		groups:  groups,
		keys:    keys,
		disp:    make([]ilp.VarID, nq),
		hl:      make([]ilp.VarID, nq),
		dnh:     make([]ilp.VarID, nq),
	}

	// Upper bounds for the big-M linearization. Tight bounds matter: they
	// directly control how weak the LP relaxation of the product terms is,
	// and hence how deep branch-and-bound must search. Bars are bounded by
	// both the screen capacity and the candidate count (each query shows
	// at most once); plots by displayable templates, by bars (a plot shows
	// at least one bar), and by row capacity.
	maxBars := screenW * rows
	if maxBars > nq {
		maxBars = nq
	}
	maxPlots := 0
	for _, key := range keys {
		base := in.Screen.TitleUnits(len(groups[key].Template.Title))
		if base+1 <= screenW {
			maxPlots++
		}
	}
	if cap := rows * (screenW / 2); maxPlots > cap && cap > 0 {
		maxPlots = cap
	}
	if maxPlots > maxBars {
		maxPlots = maxBars
	}
	if maxPlots == 0 {
		// Nothing fits: the optimum is the empty multiplot.
		maxPlots = 1
	}

	// Decision variables p, q, h, s per (template, row) and (query,
	// template, row); q/h exist only for compatible pairs (paper: "we
	// introduce those variables only for pairs of queries and plots that
	// are compatible").
	var barTotal, redTotal, plotTotal, redPlotTotal []ilp.Term
	perRowWidth := make([][]ilp.Term, rows)
	perQueryBars := make([][]ilp.Term, nq) // q_{i,t,r} terms per query
	perQueryHL := make([][]ilp.Term, nq)

	for _, key := range keys {
		grp := groups[key]
		base := in.Screen.TitleUnits(len(grp.Template.Title))
		if base+1 > screenW {
			continue // plot cannot hold even one bar
		}
		nBars := len(grp.Queries)
		if s.MaxBarsPerPlot > 0 && nBars > s.MaxBarsPerPlot {
			nBars = s.MaxBarsPerPlot
		}
		if max := screenW - base; nBars > max {
			nBars = max
		}
		pv := make([]ilp.VarID, rows)
		sv := make([]ilp.VarID, rows)
		bv := make([][]ilp.VarID, rows)
		hv := make([][]ilp.VarID, rows)
		for r := 0; r < rows; r++ {
			pv[r] = m.AddBinary(fmt.Sprintf("p[%s,%d]", grp.Template.Title, r))
			m.SetBranchPriority(pv[r], 3)
			sv[r] = m.AddBinary(fmt.Sprintf("s[%s,%d]", grp.Template.Title, r))
			// s <= p.
			m.AddConstraint([]ilp.Term{{Var: sv[r], Coeff: 1}, {Var: pv[r], Coeff: -1}}, ilp.LE, 0)
			bv[r] = make([]ilp.VarID, nBars)
			hv[r] = make([]ilp.VarID, nBars)
			widthTerms := []ilp.Term{{Var: pv[r], Coeff: float64(base)}}
			for j := 0; j < nBars; j++ {
				qi := grp.Queries[j]
				bv[r][j] = m.AddBinary(fmt.Sprintf("q[%d,%s,%d]", qi, grp.Template.Title, r))
				m.SetBranchPriority(bv[r][j], 2)
				hv[r][j] = m.AddBinary(fmt.Sprintf("h[%d,%s,%d]", qi, grp.Template.Title, r))
				m.SetBranchPriority(hv[r][j], 1)
				// q <= p, h <= q.
				m.AddConstraint([]ilp.Term{{Var: bv[r][j], Coeff: 1}, {Var: pv[r], Coeff: -1}}, ilp.LE, 0)
				m.AddConstraint([]ilp.Term{{Var: hv[r][j], Coeff: 1}, {Var: bv[r][j], Coeff: -1}}, ilp.LE, 0)
				// s >= h (a plot with any highlighted bar is red).
				m.AddConstraint([]ilp.Term{{Var: sv[r], Coeff: 1}, {Var: hv[r][j], Coeff: -1}}, ilp.GE, 0)
				widthTerms = append(widthTerms, ilp.Term{Var: bv[r][j], Coeff: 1})
				perQueryBars[qi] = append(perQueryBars[qi], ilp.Term{Var: bv[r][j], Coeff: 1})
				perQueryHL[qi] = append(perQueryHL[qi], ilp.Term{Var: hv[r][j], Coeff: 1})
				barTotal = append(barTotal, ilp.Term{Var: bv[r][j], Coeff: 1})
				redTotal = append(redTotal, ilp.Term{Var: hv[r][j], Coeff: 1})
			}
			// A displayed plot must show at least one bar — empty plots
			// waste width and reading time.
			atLeast := []ilp.Term{{Var: pv[r], Coeff: 1}}
			for j := 0; j < nBars; j++ {
				atLeast = append(atLeast, ilp.Term{Var: bv[r][j], Coeff: -1})
			}
			m.AddConstraint(atLeast, ilp.LE, 0)
			perRowWidth[r] = append(perRowWidth[r], widthTerms...)
			plotTotal = append(plotTotal, ilp.Term{Var: pv[r], Coeff: 1})
			redPlotTotal = append(redPlotTotal, ilp.Term{Var: sv[r], Coeff: 1})
		}
		// Each template appears in at most one row.
		once := make([]ilp.Term, rows)
		for r := 0; r < rows; r++ {
			once[r] = ilp.Term{Var: pv[r], Coeff: 1}
		}
		m.AddConstraint(once, ilp.LE, 1)
		v.plotVar[key] = pv
		v.sVar[key] = sv
		v.barVar[key] = bv
		v.hlVar[key] = hv
	}

	// Row width knapsacks: sum_t p_t^r*W_t + sum bars <= W.
	for r := 0; r < rows; r++ {
		if len(perRowWidth[r]) > 0 {
			m.AddConstraint(perRowWidth[r], ilp.LE, float64(screenW))
		}
	}
	// Symmetry breaking: rows have identical capacity and the cost model
	// ignores positions, so any feasible multiplot can be re-packed with
	// non-increasing used width per row. Ordering rows this way prunes the
	// factorial row-permutation symmetry from the branch-and-bound tree.
	for r := 0; r+1 < rows; r++ {
		if len(perRowWidth[r]) == 0 || len(perRowWidth[r+1]) == 0 {
			continue
		}
		terms := append([]ilp.Term(nil), perRowWidth[r]...)
		terms = append(terms, negate(perRowWidth[r+1])...)
		m.AddConstraint(terms, ilp.GE, 0)
	}

	// Per-query aggregate variables and "show once" constraints.
	for qi := 0; qi < nq; qi++ {
		v.disp[qi] = m.AddBinary(fmt.Sprintf("qd[%d]", qi))
		v.hl[qi] = m.AddBinary(fmt.Sprintf("hq[%d]", qi))
		v.dnh[qi] = m.AddBinary(fmt.Sprintf("d[%d]", qi))
		if len(perQueryBars[qi]) == 0 {
			// Query compatible with no displayable plot: permanently
			// missing.
			m.AddConstraint([]ilp.Term{{Var: v.disp[qi], Coeff: 1}}, ilp.LE, 0)
			m.AddConstraint([]ilp.Term{{Var: v.hl[qi], Coeff: 1}}, ilp.LE, 0)
			m.AddConstraint([]ilp.Term{{Var: v.dnh[qi], Coeff: 1}}, ilp.LE, 0)
			continue
		}
		// sum q_{i,t,r} <= 1 (no duplicate results).
		m.AddConstraint(perQueryBars[qi], ilp.LE, 1)
		// qd_i = sum q_{i,t,r}: a bar displays its query. With only
		// qd_i <= sum, a bar could show while qd_i = 0, slipping past
		// the processing-cost gate qd_i <= sum g_j below.
		terms := append([]ilp.Term{{Var: v.disp[qi], Coeff: 1}}, negate(perQueryBars[qi])...)
		m.AddConstraint(terms, ilp.EQ, 0)
		// h_i = sum h_{i,t,r}.
		terms = append([]ilp.Term{{Var: v.hl[qi], Coeff: 1}}, negate(perQueryHL[qi])...)
		m.AddConstraint(terms, ilp.EQ, 0)
		// h_i <= qd_i: a highlighted query is displayed. (Implied via
		// h <= q <= ... but qd is an independent variable, so tie it.)
		m.AddConstraint([]ilp.Term{{Var: v.hl[qi], Coeff: 1}, {Var: v.disp[qi], Coeff: -1}}, ilp.LE, 0)
		// d_i >= qd_i - h_i; d_i <= qd_i; d_i <= 1 - h_i.
		m.AddConstraint([]ilp.Term{{Var: v.dnh[qi], Coeff: 1}, {Var: v.disp[qi], Coeff: -1}, {Var: v.hl[qi], Coeff: 1}}, ilp.GE, 0)
		m.AddConstraint([]ilp.Term{{Var: v.dnh[qi], Coeff: 1}, {Var: v.disp[qi], Coeff: -1}}, ilp.LE, 0)
		m.AddConstraint([]ilp.Term{{Var: v.dnh[qi], Coeff: 1}, {Var: v.hl[qi], Coeff: 1}}, ilp.LE, 1)
	}

	// Objective: sum_i r_i * E_i per Section 5.3 with aggregate-total
	// linearization:
	//   E_i = D_M*(1-qd_i)
	//       + [h_i] * (c_B/2*B_R + c_P/2*P_R)                 (case red)
	//       + [d_i] * (c_B/2*(B+B_R) + c_P/2*(P+P_R))          (case visible)
	// For each product [x]*T we add continuous z >= T - U*(1-x), z >= 0.
	var obj []ilp.Term
	objConst := 0.0
	cb2 := in.Model.CB / 2
	cp2 := in.Model.CP / 2
	for qi := 0; qi < nq; qi++ {
		r := in.Candidates[qi].Prob
		// D_M*(1 - qd_i).
		objConst += r * in.Model.DM
		obj = append(obj, ilp.Term{Var: v.disp[qi], Coeff: -r * in.Model.DM})
		if len(perQueryBars[qi]) == 0 || r == 0 {
			continue
		}
		// Highlighted case: z_hB >= B_R - U(1-h_i), z_hP >= P_R - U(1-h_i).
		zhB := s.productVar(m, "zhB", qi, redTotal, v.hl[qi], float64(maxBars))
		zhP := s.productVar(m, "zhP", qi, redPlotTotal, v.hl[qi], float64(maxPlots))
		obj = append(obj, ilp.Term{Var: zhB, Coeff: r * cb2}, ilp.Term{Var: zhP, Coeff: r * cp2})
		// Visible case: totals B + B_R and P + P_R.
		bothBars := append(append([]ilp.Term(nil), barTotal...), redTotal...)
		bothPlots := append(append([]ilp.Term(nil), plotTotal...), redPlotTotal...)
		zdB := s.productVar(m, "zdB", qi, bothBars, v.dnh[qi], 2*float64(maxBars))
		zdP := s.productVar(m, "zdP", qi, bothPlots, v.dnh[qi], 2*float64(maxPlots))
		obj = append(obj, ilp.Term{Var: zdB, Coeff: r * cb2}, ilp.Term{Var: zdP, Coeff: r * cp2})
		v.zVars[qi] = [4]zAux{
			{id: zhB, u: float64(maxBars)},
			{id: zhP, u: float64(maxPlots)},
			{id: zdB, u: 2 * float64(maxBars)},
			{id: zdP, u: 2 * float64(maxPlots)},
		}
	}

	// Processing-cost extension (Section 8.1): group variables gate query
	// display and bound/penalize total processing cost.
	if len(in.Groups) > 0 {
		gVars := make([]ilp.VarID, len(in.Groups))
		v.groupVars = gVars
		var costTerms []ilp.Term
		coveredBy := make(map[int][]ilp.VarID)
		for gi, g := range in.Groups {
			gVars[gi] = m.AddBinary(fmt.Sprintf("g[%d]", gi))
			costTerms = append(costTerms, ilp.Term{Var: gVars[gi], Coeff: g.Cost})
			for _, qi := range g.Queries {
				coveredBy[qi] = append(coveredBy[qi], gVars[gi])
			}
		}
		for qi := 0; qi < nq; qi++ {
			// qd_i <= sum_{j in G(i)} g_j.
			terms := []ilp.Term{{Var: v.disp[qi], Coeff: 1}}
			for _, gv := range coveredBy[qi] {
				terms = append(terms, ilp.Term{Var: gv, Coeff: -1})
			}
			m.AddConstraint(terms, ilp.LE, 0)
		}
		if in.ProcCostBound > 0 {
			m.AddConstraint(costTerms, ilp.LE, in.ProcCostBound)
		}
		if in.ProcCostWeight > 0 {
			for _, t := range costTerms {
				obj = append(obj, ilp.Term{Var: t.Var, Coeff: in.ProcCostWeight * t.Coeff})
			}
		}
	}

	m.SetObjective(obj, objConst)
	return v, nil
}

// productVar adds the continuous auxiliary z approximating gate*sum(total):
// z >= total - U*(1-gate), z >= 0, z <= U. Minimization with a positive
// objective coefficient drives z to exactly gate*total.
func (s *ILPSolver) productVar(m *ilp.Model, tag string, qi int, total []ilp.Term, gate ilp.VarID, u float64) ilp.VarID {
	z := m.AddContinuous(fmt.Sprintf("%s[%d]", tag, qi), 0, u)
	terms := []ilp.Term{{Var: z, Coeff: 1}, {Var: gate, Coeff: -u}}
	terms = append(terms, negate(total)...)
	// z - U*gate - total >= -U  <=>  z >= total - U*(1-gate).
	m.AddConstraint(terms, ilp.GE, -u)
	return z
}

// negate returns the terms with flipped coefficients.
func negate(ts []ilp.Term) []ilp.Term {
	out := make([]ilp.Term, len(ts))
	for i, t := range ts {
		out[i] = ilp.Term{Var: t.Var, Coeff: -t.Coeff}
	}
	return out
}

// decode converts an ILP solution back into a multiplot.
func (v *ilpVars) decode(sol *ilp.Solution) Multiplot {
	var rows int
	for _, pv := range v.plotVar {
		if len(pv) > rows {
			rows = len(pv)
		}
	}
	m := Multiplot{Rows: make([][]Plot, rows)}
	for _, key := range v.keys {
		pv, ok := v.plotVar[key]
		if !ok {
			continue
		}
		grp := v.groups[key]
		for r := range pv {
			if !sol.IsSet(pv[r]) {
				continue
			}
			var entries []Entry
			for j, bvar := range v.barVar[key][r] {
				if !sol.IsSet(bvar) {
					continue
				}
				entries = append(entries, Entry{
					Query:       grp.Queries[j],
					Label:       grp.Labels[j],
					Highlighted: sol.IsSet(v.hlVar[key][r][j]),
				})
			}
			if len(entries) == 0 {
				continue
			}
			m.Rows[r] = append(m.Rows[r], Plot{
				Template: grp.Template,
				Entries:  nanEntries(entries),
			})
		}
	}
	return m
}

// zAux records a continuous product auxiliary and its big-M bound.
type zAux struct {
	id ilp.VarID
	u  float64
}

// warmSeedTol is the feasibility tolerance for vetting warm-start
// assignments, matching the branch-and-bound's own check.
const warmSeedTol = 1e-6

// warmSeed derives the branch-and-bound's initial incumbent from the
// solver's two warm-start surfaces: a concrete prior-multiplot Hint,
// and the greedy seed enabled by WarmStart. When both yield a feasible
// assignment the cheaper incumbent wins — the search prunes against the
// incumbent bound, so a tighter start pays directly in nodes. The
// returned WarmStartResult classifies the Hint's fate alone ("" when no
// hint was given); the greedy seed is a floor, not a hint.
func (s *ILPSolver) warmSeed(in *Instance, v *ilpVars) (WarmStartResult, []float64) {
	var res WarmStartResult
	var seed []float64
	var seedCost float64
	if s.Hint != nil {
		res = WarmNone
		if hm, mapped := remapHint(in, v, *s.Hint); mapped != WarmNone {
			res = mapped
			if x, ok := embedMultiplot(in, v, hm); ok && v.model.Feasible(x, warmSeedTol) {
				seed, seedCost = x, in.Cost(hm)
			} else {
				res = WarmInfeasible
			}
		}
	}
	if s.WarmStart {
		g := &GreedySolver{MaxBarsPerPlot: s.MaxBarsPerPlot}
		if gm, _, err := g.Solve(in); err == nil {
			// Greedy fills rows in any order; the model wants the widest
			// row first.
			gm = widestRowsFirst(in.Screen, gm)
			if x, ok := embedMultiplot(in, v, gm); ok && v.model.Feasible(x, warmSeedTol) {
				if gc := in.Cost(gm); seed == nil || gc < seedCost {
					seed, seedCost = x, gc
				}
			}
		}
	}
	return res, seed
}

// remapHint projects a prior multiplot onto the current instance's
// variable space. Candidate indices are meaningless across instances —
// consecutive utterances, and even re-solves after candidate pruning,
// produce different candidate sets — so plots are matched by template
// key and bars by label within the template's current group. Anything
// that no longer exists (vanished template, vanished label, bar slot
// past the model's per-plot cap) is dropped, degrading the hint to a
// partial or empty seed instead of mis-seeding. Surviving plots are
// re-packed first-fit by decreasing width with rows ordered by
// decreasing used width, so the seed satisfies the model's
// symmetry-breaking row-order constraints.
func remapHint(in *Instance, v *ilpVars, hint Multiplot) (Multiplot, WarmStartResult) {
	total := 0
	for _, row := range hint.Rows {
		for _, pl := range row {
			total += len(pl.Entries)
		}
	}
	if total == 0 {
		return Multiplot{}, WarmNone
	}
	usedQuery := make(map[int]bool)
	usedTmpl := make(map[string]bool)
	var plots []Plot
	for _, row := range hint.Rows {
		for _, pl := range row {
			key := pl.Template.Key
			grp, ok := v.groups[key]
			if !ok || usedTmpl[key] {
				continue
			}
			bv := v.barVar[key]
			if len(bv) == 0 || len(bv[0]) == 0 {
				continue // template exists but cannot display a single bar
			}
			nBars := len(bv[0])
			usedSlot := make(map[int]bool, len(pl.Entries))
			var entries []Entry
			for _, e := range pl.Entries {
				if len(entries) == nBars {
					break
				}
				for j := 0; j < nBars && j < len(grp.Labels); j++ {
					if usedSlot[j] || grp.Labels[j] != e.Label || usedQuery[grp.Queries[j]] {
						continue
					}
					usedSlot[j] = true
					usedQuery[grp.Queries[j]] = true
					entries = append(entries, Entry{
						Query:       grp.Queries[j],
						Label:       e.Label,
						Highlighted: e.Highlighted,
					})
					break
				}
			}
			if len(entries) == 0 {
				continue
			}
			usedTmpl[key] = true
			plots = append(plots, Plot{Template: grp.Template, Entries: entries})
		}
	}
	if len(plots) == 0 {
		return Multiplot{}, WarmNone
	}
	packed := packPlots(in.Screen, plots)
	placed := 0
	for _, row := range packed.Rows {
		for _, pl := range row {
			placed += len(pl.Entries)
		}
	}
	switch {
	case placed == 0:
		return Multiplot{}, WarmNone
	case placed == total:
		return packed, WarmHit
	default:
		return packed, WarmPartial
	}
}

// packPlots lays plots into at most screen.Rows rows, first-fit by
// decreasing width, and orders rows by decreasing used width — the row
// order the model's symmetry-breaking constraints require. Plots that
// fit no row are dropped.
func packPlots(s Screen, plots []Plot) Multiplot {
	sorted := append([]Plot(nil), plots...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Width(s) > sorted[j].Width(s)
	})
	screenW := s.WidthUnits()
	bins := make([][]Plot, s.Rows)
	widths := make([]int, s.Rows)
	for _, pl := range sorted {
		w := pl.Width(s)
		for r := range bins {
			if widths[r]+w <= screenW {
				bins[r] = append(bins[r], pl)
				widths[r] += w
				break
			}
		}
	}
	return widestRowsFirst(s, Multiplot{Rows: bins})
}

// widestRowsFirst orders m's rows by non-increasing used width, the
// row order the model's symmetry-breaking constraints require. Each row
// keeps its plots, so a multiplot that fits the screen still fits.
func widestRowsFirst(s Screen, m Multiplot) Multiplot {
	width := func(row []Plot) int {
		w := 0
		for _, pl := range row {
			w += pl.Width(s)
		}
		return w
	}
	rows := append([][]Plot(nil), m.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return width(rows[i]) > width(rows[j]) })
	return Multiplot{Rows: rows}
}

// embedMultiplot maps a multiplot of the *current* instance onto the
// ILP variable space as a full assignment, so branch-and-bound can
// start with it as a feasible incumbent. Returns false when the
// multiplot does not embed into the model (e.g. a bar the ILP pruned
// via MaxBarsPerPlot, or a row index past the screen's rows).
func embedMultiplot(in *Instance, v *ilpVars, m Multiplot) ([]float64, bool) {
	x := make([]float64, v.model.NumVars())
	stateHL := make([]bool, len(in.Candidates))
	stateDisp := make([]bool, len(in.Candidates))
	for ri, row := range m.Rows {
		for _, pl := range row {
			pv, ok := v.plotVar[pl.Template.Key]
			if !ok || ri >= len(pv) {
				return nil, false
			}
			x[pv[ri]] = 1
			grp := v.groups[pl.Template.Key]
			idxOf := make(map[int]int, len(grp.Queries))
			for j, qi := range grp.Queries {
				idxOf[qi] = j
			}
			anyHL := false
			for _, e := range pl.Entries {
				j, ok := idxOf[e.Query]
				if !ok || j >= len(v.barVar[pl.Template.Key][ri]) {
					return nil, false
				}
				x[v.barVar[pl.Template.Key][ri][j]] = 1
				stateDisp[e.Query] = true
				if e.Highlighted {
					x[v.hlVar[pl.Template.Key][ri][j]] = 1
					stateHL[e.Query] = true
					anyHL = true
				}
			}
			if anyHL {
				x[v.sVar[pl.Template.Key][ri]] = 1
			}
		}
	}
	for qi := range in.Candidates {
		if stateDisp[qi] {
			x[v.disp[qi]] = 1
			if stateHL[qi] {
				x[v.hl[qi]] = 1
			} else {
				x[v.dnh[qi]] = 1
			}
		}
	}
	// Processing-group variables: cover the displayed queries with the
	// same greedy set cover the cost evaluation uses. If the cover busts
	// the instance's processing-cost bound, the caller's feasibility check
	// rejects the warm start, which is the correct outcome.
	if len(v.groupVars) > 0 {
		states := m.QueryStates(len(in.Candidates))
		_, chosen := in.groupCover(states)
		for _, gi := range chosen {
			x[v.groupVars[gi]] = 1
		}
	}
	// Continuous product auxiliaries take their implied minimal values
	// z = gate * total (the big-M constraints are then tight or slack).
	b, bR, p, pR := m.Counts()
	for qi := range in.Candidates {
		zs, ok := v.zVars[qi]
		if !ok {
			continue
		}
		if stateHL[qi] {
			x[zs[0].id] = float64(bR)
			x[zs[1].id] = float64(pR)
		}
		if stateDisp[qi] && !stateHL[qi] {
			x[zs[2].id] = float64(b + bR)
			x[zs[3].id] = float64(p + pR)
		}
	}
	return x, true
}

// tidy drops empty rows/plots and re-packs rows.
func tidy(m Multiplot) Multiplot {
	out := Multiplot{}
	for _, row := range m.Rows {
		var nr []Plot
		for _, pl := range row {
			if len(pl.Entries) > 0 {
				nr = append(nr, pl)
			}
		}
		if len(nr) > 0 {
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}
