package speak

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"muve/internal/core"
	"muve/internal/ilp"
)

// DefaultWordBudget caps a spoken answer's length. Roughly fifteen
// seconds of synthesized speech — past that, voice answers stop feeling
// like answers.
const DefaultWordBudget = 40

// warmSeedTol matches core's feasibility tolerance for vetting
// warm-start assignments.
const warmSeedTol = 1e-6

// Planner is the exact fact-set planner: it translates fact selection
// into 0/1 integer programming over internal/ilp and solves it with the
// bundled branch-and-bound solver, exactly as core.ILPSolver does for
// multiplot selection. Products of the per-candidate coverage indicators
// with the aggregate word/fact totals are linearized with one continuous
// auxiliary per (candidate, coverage) pair using the same big-M pattern
// as the multiplot ILP.
type Planner struct {
	// Cost is the listening-cost model; the zero value means
	// DefaultCost().
	Cost CostModel
	// WordBudget bounds total spoken words (<= 0 means
	// DefaultWordBudget).
	WordBudget int
	// MaxFacts caps the number of selected facts (0 = unbounded).
	MaxFacts int
	// Timeout bounds optimization time; on expiry the best incumbent is
	// returned. Zero means no limit.
	Timeout time.Duration
	// WarmStart, when true, seeds the search with the greedy solution so
	// a timeout can never return an answer worse than greedy.
	WarmStart bool
	// Hint, when non-nil, seeds the search with a prior utterance's fact
	// set, remapped onto the current instance by fact Key — the voice
	// analogue of core.ILPSolver.Hint. A stale or disjoint hint degrades
	// to a cold start, never an infeasible model; Stats.WarmStart
	// reports how it fared.
	Hint *FactSet
	// Ctx, when non-nil, bounds the solve like core.ILPSolver.Ctx: an
	// earlier context deadline wins, and a pre-cancelled context aborts.
	Ctx context.Context
}

// Name identifies the planner in stats and spans.
func (p *Planner) Name() string { return "SpeakILP" }

// speakVars records one model build's variable layout for decoding and
// warm-start embedding.
type speakVars struct {
	model *ilp.Model
	facts []Fact
	x     []ilp.VarID // x_f: fact f selected
	// cand holds the per-candidate blocks for candidates with positive
	// probability; index aligns with candIdx.
	candIdx []int
	direct  []ilp.VarID // d_i: answered directly
	scoped  []ilp.VarID // s_i: covered by a range fact only
	zd, zs  []ilp.VarID // big-M product auxiliaries
	ud, us  float64     // their upper bounds
	byKey   map[string]int
	budget  int
}

// Solve builds and solves the fact-set ILP.
func (p *Planner) Solve(in *core.Instance) (FactSet, core.Stats, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return FactSet{}, core.Stats{}, err
	}
	if p.Ctx != nil {
		if err := p.Ctx.Err(); err != nil {
			return FactSet{}, core.Stats{}, err
		}
	}
	cost := p.Cost
	if cost == (CostModel{}) {
		cost = DefaultCost()
	}
	v := p.buildModel(in, cost)

	opt := ilp.Options{Ctx: p.Ctx}
	if p.Timeout > 0 {
		opt.Deadline = start.Add(p.Timeout)
	}
	if p.Ctx != nil {
		if d, ok := p.Ctx.Deadline(); ok && (opt.Deadline.IsZero() || d.Before(opt.Deadline)) {
			opt.Deadline = d
		}
	}
	warmRes, seed := p.warmSeed(in, cost, v)
	if seed != nil {
		opt.WarmStart = seed
	}
	sol, err := v.model.Solve(opt)
	if err != nil {
		return FactSet{}, core.Stats{}, err
	}
	st := core.Stats{
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
		// No incumbent at all: fall back to silence, always feasible.
		st.TimedOut = true
		st.Cost = cost.EmptyCost()
		return FactSet{}, st, nil
	case ilp.StatusInfeasible:
		return FactSet{}, st, fmt.Errorf("speak: ILP reported infeasible — the empty fact set should always be feasible (model bug)")
	}
	fs := v.decode(in, sol)
	st.Cost = cost.Cost(in, fs)
	return fs, st, nil
}

// budgetOf resolves the effective word budget.
func (p *Planner) budgetOf() int {
	if p.WordBudget > 0 {
		return p.WordBudget
	}
	return DefaultWordBudget
}

// buildModel constructs the integer program:
//
//	min  Σ_i p_i [ z_d(i) + z_s(i) + DM·(1 − d_i − s_i) ]
//	s.t. Σ_f w_f·x_f ≤ W                      (word budget)
//	     d_i ≤ Σ_{value f covering i} x_f     (direct needs a value fact)
//	     s_i ≤ Σ_{range f covering i} x_f     (scoped needs a range fact)
//	     d_i + s_i ≤ 1
//	     z_d(i) ≥ T_D − U_D·(1 − d_i)         (big-M products)
//	     z_s(i) ≥ T_S − U_S·(1 − s_i)
//
// where T_D = Σ_{value f} (c_W·w_f + c_F)/2 · x_f is the linearized
// DDirect of the selected set and T_S its DScoped counterpart.
func (p *Planner) buildModel(in *core.Instance, cost CostModel) *speakVars {
	m := ilp.NewModel()
	facts := Extract(in)
	budget := p.budgetOf()

	v := &speakVars{
		model:  m,
		facts:  facts,
		x:      make([]ilp.VarID, len(facts)),
		byKey:  make(map[string]int, len(facts)),
		budget: budget,
	}
	var budgetTerms []ilp.Term
	var countTerms []ilp.Term
	// td/ts accumulate the T_D and T_S coefficient rows shared by every
	// candidate's product constraints.
	var td, ts []ilp.Term
	coveredByValue := make(map[int][]ilp.VarID)
	coveredByRange := make(map[int][]ilp.VarID)
	for fi, f := range facts {
		x := m.AddBinary("x")
		// Structural decisions branch first: fixing a fact collapses
		// every candidate indicator it covers.
		m.SetBranchPriority(x, 3)
		v.x[fi] = x
		v.byKey[f.Key] = fi
		budgetTerms = append(budgetTerms, ilp.Term{Var: x, Coeff: float64(f.Words)})
		countTerms = append(countTerms, ilp.Term{Var: x, Coeff: 1})
		perFact := (cost.CW*float64(f.Words) + cost.CF) / 2
		ts = append(ts, ilp.Term{Var: x, Coeff: perFact})
		if f.Kind == FactValue {
			td = append(td, ilp.Term{Var: x, Coeff: perFact})
			// Direct material is heard twice over in DScoped (once in
			// full, once toward the half of everything).
			ts = append(ts, ilp.Term{Var: x, Coeff: perFact})
			for _, qi := range f.Covers {
				coveredByValue[qi] = append(coveredByValue[qi], x)
			}
		} else {
			for _, qi := range f.Covers {
				coveredByRange[qi] = append(coveredByRange[qi], x)
			}
		}
	}
	m.AddConstraint(budgetTerms, ilp.LE, float64(budget))
	maxFacts := len(facts)
	if p.MaxFacts > 0 && p.MaxFacts < maxFacts {
		maxFacts = p.MaxFacts
		m.AddConstraint(countTerms, ilp.LE, float64(maxFacts))
	}
	if maxFacts > budget {
		// Every fact speaks at least one word.
		maxFacts = budget
	}

	// Upper bounds for the big-M products. T_D ≤ (c_W·W + c_F·N)/2 under
	// the word budget and fact cap; T_S ≤ 2·T_D's bound.
	v.ud = (cost.CW*float64(budget) + cost.CF*float64(maxFacts)) / 2
	v.us = 2 * v.ud

	var obj []ilp.Term
	objConst := 0.0
	for qi, cand := range in.Candidates {
		if cand.Prob <= 0 {
			continue
		}
		d := m.AddBinary("d")
		s := m.AddBinary("s")
		m.SetBranchPriority(d, 1)
		m.SetBranchPriority(s, 1)
		zd := m.AddContinuous("zd", 0, v.ud)
		zs := m.AddContinuous("zs", 0, v.us)
		v.candIdx = append(v.candIdx, qi)
		v.direct = append(v.direct, d)
		v.scoped = append(v.scoped, s)
		v.zd = append(v.zd, zd)
		v.zs = append(v.zs, zs)

		cover := func(ind ilp.VarID, by []ilp.VarID) {
			terms := []ilp.Term{{Var: ind, Coeff: 1}}
			for _, x := range by {
				terms = append(terms, ilp.Term{Var: x, Coeff: -1})
			}
			m.AddConstraint(terms, ilp.LE, 0)
		}
		cover(d, coveredByValue[qi])
		cover(s, coveredByRange[qi])
		m.AddConstraint([]ilp.Term{{Var: d, Coeff: 1}, {Var: s, Coeff: 1}}, ilp.LE, 1)

		// z_d ≥ T_D − U_D(1−d):  z_d − T_D − U_D·d ≥ −U_D.
		prod := func(z ilp.VarID, total []ilp.Term, gate ilp.VarID, u float64) {
			terms := []ilp.Term{{Var: z, Coeff: 1}}
			for _, t := range total {
				terms = append(terms, ilp.Term{Var: t.Var, Coeff: -t.Coeff})
			}
			terms = append(terms, ilp.Term{Var: gate, Coeff: -u})
			m.AddConstraint(terms, ilp.GE, -u)
		}
		prod(zd, td, d, v.ud)
		prod(zs, ts, s, v.us)

		obj = append(obj,
			ilp.Term{Var: zd, Coeff: cand.Prob},
			ilp.Term{Var: zs, Coeff: cand.Prob},
			ilp.Term{Var: d, Coeff: -cand.Prob * cost.DM},
			ilp.Term{Var: s, Coeff: -cand.Prob * cost.DM},
		)
		objConst += cand.Prob * cost.DM
	}
	m.SetObjective(obj, objConst)
	return v
}

// decode reads the selected facts out of a solution, in canonical
// speaking order.
func (v *speakVars) decode(in *core.Instance, sol *ilp.Solution) FactSet {
	var facts []Fact
	for fi, x := range v.x {
		if sol.IsSet(x) {
			facts = append(facts, v.facts[fi])
		}
	}
	return orderFacts(in, facts)
}

// orderFacts sorts a selection into speaking order: value facts first
// (decreasing covered probability, then key), then range facts likewise.
func orderFacts(in *core.Instance, facts []Fact) FactSet {
	prob := func(f Fact) float64 {
		p := 0.0
		for _, qi := range f.Covers {
			if qi >= 0 && qi < len(in.Candidates) {
				p += in.Candidates[qi].Prob
			}
		}
		return p
	}
	sort.SliceStable(facts, func(a, b int) bool {
		fa, fb := facts[a], facts[b]
		if fa.Kind != fb.Kind {
			return fa.Kind == FactValue
		}
		pa, pb := prob(fa), prob(fb)
		if pa != pb {
			return pa > pb
		}
		return fa.Key < fb.Key
	})
	return FactSet{Facts: facts}
}

// warmSeed derives the initial incumbent from the planner's two
// warm-start surfaces — a prior-utterance Hint and the greedy seed —
// with the cheaper feasible assignment winning, mirroring
// core.ILPSolver.warmSeed.
func (p *Planner) warmSeed(in *core.Instance, cost CostModel, v *speakVars) (core.WarmStartResult, []float64) {
	var res core.WarmStartResult
	var seed []float64
	var seedCost float64
	if p.Hint != nil {
		res = core.WarmNone
		if hf, mapped := p.remapHint(in, v); mapped != core.WarmNone {
			res = mapped
			if x, ok := v.embed(in, cost, hf); ok && v.model.Feasible(x, warmSeedTol) {
				seed, seedCost = x, cost.Cost(in, hf)
			} else {
				res = core.WarmInfeasible
			}
		}
	}
	if p.WarmStart {
		g := &Greedy{Cost: cost, WordBudget: v.budget, MaxFacts: p.MaxFacts, Ctx: p.Ctx}
		if gf, _, err := g.Solve(in); err == nil {
			if x, ok := v.embed(in, cost, gf); ok && v.model.Feasible(x, warmSeedTol) {
				if c := cost.Cost(in, gf); seed == nil || c < seedCost {
					seed, seedCost = x, c
				}
			}
		}
	}
	return res, seed
}

// remapHint filters the prior fact set down to facts that still exist in
// the current extraction (matched by Key) and fit the budget, and
// classifies the remap like core.remapHint: every hint fact surviving
// unchanged is a hit, a downgraded or partial subset is partial, nothing
// is none. A range fact whose scope outgrew the current template group
// is downgraded to the largest scope still available — the analogue of
// dropping over-cap bars from a prior multiplot.
func (p *Planner) remapHint(in *core.Instance, v *speakVars) (FactSet, core.WarmStartResult) {
	var kept []Fact
	words := 0
	dropped := false
	for _, f := range p.Hint.Facts {
		fi, ok := v.byKey[f.Key]
		if !ok && f.Kind == FactRange {
			for n := len(f.Covers) - 1; n >= 2 && !ok; n-- {
				fi, ok = v.byKey["r|"+f.Template.Key+"|"+strconv.Itoa(n)]
			}
			if ok {
				dropped = true
			}
		}
		if !ok {
			dropped = true
			continue
		}
		cur := v.facts[fi]
		if words+cur.Words > v.budget || (p.MaxFacts > 0 && len(kept) >= p.MaxFacts) {
			dropped = true
			continue
		}
		kept = append(kept, cur)
		words += cur.Words
	}
	if len(kept) == 0 {
		return FactSet{}, core.WarmNone
	}
	if dropped {
		return orderFacts(in, kept), core.WarmPartial
	}
	return orderFacts(in, kept), core.WarmHit
}

// embed derives the full variable assignment implied by a concrete fact
// set: selections, coverage indicators, and the tight auxiliary values
// branch-and-bound would settle on. Facts not present in the current
// extraction make the embedding fail.
func (v *speakVars) embed(in *core.Instance, cost CostModel, fs FactSet) ([]float64, bool) {
	x := make([]float64, v.model.NumVars())
	selected := make(map[int]bool, len(fs.Facts))
	for _, f := range fs.Facts {
		fi, ok := v.byKey[f.Key]
		if !ok {
			return nil, false
		}
		selected[fi] = true
		x[v.x[fi]] = 1
	}
	w, wD, n, nD := 0, 0, 0, 0
	for fi := range selected {
		f := v.facts[fi]
		w += f.Words
		n++
		if f.Kind == FactValue {
			wD += f.Words
			nD++
		}
	}
	td := cost.DDirect(wD, nD)
	ts := cost.DScoped(w, wD, n, nD)
	states := fs.States(len(in.Candidates))
	for ci, qi := range v.candIdx {
		switch states[qi] {
		case CoverDirect:
			x[v.direct[ci]] = 1
			x[v.zd[ci]] = td
		case CoverScoped:
			x[v.scoped[ci]] = 1
			x[v.zs[ci]] = ts
		}
	}
	return x, true
}

// Greedy is the fallback fact-set planner: density-ordered selection by
// marginal cost reduction per spoken word, the audio analogue of the
// multiplot greedy solver's gain-per-width rule. It is deterministic,
// allocation-light, and never exceeds the word budget; the serving
// ladder drops to it when the exact planner is skipped or fails.
type Greedy struct {
	// Cost is the listening-cost model; the zero value means
	// DefaultCost().
	Cost CostModel
	// WordBudget bounds total spoken words (<= 0 means
	// DefaultWordBudget).
	WordBudget int
	// MaxFacts caps the number of selected facts (0 = unbounded).
	MaxFacts int
	// Ctx, when non-nil, aborts selection between rounds.
	Ctx context.Context
}

// Name identifies the planner in stats and spans.
func (g *Greedy) Name() string { return "SpeakGreedy" }

// Solve selects facts greedily.
func (g *Greedy) Solve(in *core.Instance) (FactSet, core.Stats, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return FactSet{}, core.Stats{}, err
	}
	cost := g.Cost
	if cost == (CostModel{}) {
		cost = DefaultCost()
	}
	budget := g.WordBudget
	if budget <= 0 {
		budget = DefaultWordBudget
	}
	facts := Extract(in)
	used := make([]bool, len(facts))
	var sel []Fact
	words := 0
	cur := cost.Cost(in, FactSet{})
	rounds := 0
	for {
		if g.Ctx != nil {
			if err := g.Ctx.Err(); err != nil {
				return FactSet{}, core.Stats{}, err
			}
		}
		if g.MaxFacts > 0 && len(sel) >= g.MaxFacts {
			break
		}
		best, bestDensity, bestCost := -1, 0.0, 0.0
		for fi, f := range facts {
			if used[fi] || words+f.Words > budget {
				continue
			}
			trial := FactSet{Facts: append(sel, f)}
			c := cost.Cost(in, trial)
			gain := cur - c
			if gain <= 0 {
				continue
			}
			density := gain / float64(f.Words)
			if best < 0 || density > bestDensity ||
				(density == bestDensity && facts[fi].Key < facts[best].Key) {
				best, bestDensity, bestCost = fi, density, c
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		sel = append(sel, facts[best])
		words += facts[best].Words
		cur = bestCost
		rounds++
	}
	fs := orderFacts(in, sel)
	return fs, core.Stats{Duration: time.Since(start), Cost: cost.Cost(in, fs), Rounds: rounds}, nil
}
