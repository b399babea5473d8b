package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"muve/internal/usermodel"
)

// TestKnapsackReduction exercises the NP-hardness reduction of Theorem 5:
// with c_B = c_P ~ 0 and no highlighting benefit, multiplot selection
// degenerates to a knapsack — maximize covered probability under the
// width constraint. The exhaustive solver must find exactly the knapsack
// optimum.
func TestKnapsackReduction(t *testing.T) {
	// Items: weights (plot widths) and utilities (probabilities). Each
	// query is compatible with exactly one plot (distinct tables).
	type item struct {
		weight int // extra title units beyond the single bar
		util   float64
	}
	items := []item{{3, 0.30}, {4, 0.25}, {2, 0.20}, {3, 0.15}, {1, 0.08}}
	// Screen of 8 bar units; each plot occupies titleUnits + 1 bar.
	px := 48 * 8
	cands := make([]Candidate, len(items))
	for i, it := range items {
		// Title length chosen so TitleUnits(len) == it.weight for the
		// default PxPerChar/PxPerBar: len*7/48 rounded up.
		titleLen := (it.weight-1)*48/7 + 1
		// Build a query whose derived template title has that length by
		// varying the table name length. The exact mapping is checked
		// below rather than assumed.
		table := fmt.Sprintf("t%0*d", titleLen, i)
		cands[i] = Candidate{
			Query: q(fmt.Sprintf("SELECT count(*) FROM %s WHERE a = 'x'", table)),
			Prob:  it.util,
		}
	}
	in := &Instance{
		Candidates: cands,
		Screen:     Screen{WidthPx: px, Rows: 1, PxPerBar: 48, PxPerChar: 7},
		Model:      usermodel.TimeModel{CB: 1e-9, CP: 2e-9, DM: 1000},
	}
	// Ground-truth knapsack over the *actual* widths the model derives.
	groups := in.TemplateGroups()
	widthOf := make(map[int]int, len(cands))
	for _, g := range groups {
		if len(g.Queries) == 1 && g.Template.Slot == SlotPredVal {
			widthOf[g.Queries[0]] = in.Screen.TitleUnits(len(g.Template.Title)) + 1
		}
	}
	if len(widthOf) != len(items) {
		t.Fatalf("expected one single-query value template per item, got %d", len(widthOf))
	}
	best := 0.0
	W := in.Screen.WidthUnits()
	for mask := 0; mask < 1<<len(items); mask++ {
		w, u := 0, 0.0
		for i := range items {
			if mask&(1<<i) != 0 {
				w += widthOf[i]
				u += items[i].util
			}
		}
		if w <= W && u > best {
			best = u
		}
	}
	ex := &ExhaustiveSolver{}
	m, _, err := ex.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	rR, rV := in.ProbCovered(m)
	covered := rR + rV
	if math.Abs(covered-best) > 1e-9 {
		t.Errorf("exhaustive covered %v, knapsack optimum %v", covered, best)
	}
	if !m.FitsScreen(in.Screen) {
		t.Error("solution exceeds screen")
	}
}

// TestILPMatchesExhaustiveTwoRows extends the differential test to
// multi-row screens, where row assignment matters for feasibility. The
// paper observes that ILP scalability "is particularly limited in the
// number of rows" (near-100% timeouts at 3 rows); accordingly the
// instances here are tiny, and when the solver still cannot prove
// optimality in time, the test falls back to checking incumbent quality:
// the timed-out solution must never be worse than the optimum by more
// than a whisker above the greedy fallback.
func TestILPMatchesExhaustiveTwoRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	proved := 0
	for trial := 0; trial < 4; trial++ {
		in := randomInstance(rng, 3, Screen{WidthPx: 300, Rows: 2, PxPerBar: 48, PxPerChar: 7})
		ex := &ExhaustiveSolver{}
		_, stEx, err := ex.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		s := &ILPSolver{Timeout: 20 * time.Second, WarmStart: true}
		mIlp, stIlp, err := s.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !mIlp.FitsScreen(in.Screen) {
			t.Errorf("trial %d: solution overflows screen", trial)
		}
		if stIlp.Optimal {
			proved++
			if math.Abs(stIlp.Cost-stEx.Cost) > 1e-6 {
				t.Errorf("trial %d: ILP %v vs exhaustive %v\nILP: %s", trial, stIlp.Cost, stEx.Cost, mIlp)
			}
			continue
		}
		// Timed out: incumbent must be close to optimal (greedy-seeded).
		if stIlp.Cost > stEx.Cost*1.1+1e-6 {
			t.Errorf("trial %d: timed-out incumbent %v too far above optimum %v", trial, stIlp.Cost, stEx.Cost)
		}
	}
	if proved == 0 {
		t.Error("ILP failed to prove optimality on every tiny two-row instance")
	}
}

// TestCalibratedModelFlowsIntoPlanner reproduces the paper's workflow:
// run the Section 4 user study, calibrate c_B and c_P from it, and plan
// with the fitted model. The planner must accept the fitted model and the
// resulting multiplot must still be near-optimal under the true model.
func TestCalibratedModelFlowsIntoPlanner(t *testing.T) {
	truth := usermodel.DefaultModel()
	study := usermodel.DefaultStudy()
	study.WorkersPerTask = 60
	study.ResponseRate = 1
	sweeps := study.Run(rand.New(rand.NewSource(404)))
	fitted, err := usermodel.Calibrate(sweeps, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !fitted.Valid() {
		t.Fatalf("fitted model invalid: %+v", fitted)
	}
	in := valueVariantInstance([]float64{0.35, 0.25, 0.2, 0.1, 0.1}, DefaultScreen())
	in.Model = fitted
	g := &GreedySolver{}
	m, _, err := g.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Score the fitted-model plan under the true model: it should be
	// within 20% of the plan optimized directly for the truth.
	inTrue := valueVariantInstance([]float64{0.35, 0.25, 0.2, 0.1, 0.1}, DefaultScreen())
	mTrue, stTrue, err := g.Solve(inTrue)
	if err != nil {
		t.Fatal(err)
	}
	_ = mTrue
	gotCost := inTrue.Cost(m)
	if gotCost > stTrue.Cost*1.2+1e-9 {
		t.Errorf("fitted-model plan costs %v vs %v for the true-model plan", gotCost, stTrue.Cost)
	}
}

// TestGreedyAlwaysFitsScreenProperty fuzzes instances and checks the
// invariants every planner output must satisfy.
func TestGreedyAlwaysFitsScreenProperty(t *testing.T) {
	f := func(seed int64, widthSel, rowSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		widths := []int{260, 375, 768, 1440}
		screen := Screen{
			WidthPx:   widths[int(widthSel)%len(widths)],
			Rows:      1 + int(rowSel)%3,
			PxPerBar:  48,
			PxPerChar: 7,
		}
		in := randomInstance(rng, 2+rng.Intn(18), screen)
		g := &GreedySolver{}
		m, st, err := g.Solve(in)
		if err != nil {
			return false
		}
		if !m.FitsScreen(screen) {
			return false
		}
		if st.Cost < 0 || st.Cost > in.Model.EmptyCost()+1e-9 {
			return false
		}
		// Every displayed entry references a valid candidate and has a
		// label.
		for _, pl := range m.Plots() {
			if len(pl.Entries) == 0 {
				return false
			}
			for _, e := range pl.Entries {
				if e.Query < 0 || e.Query >= len(in.Candidates) || e.Label == "" {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestProcCostWeightBreaksTies checks the objective-level processing-cost
// integration: among equal-disambiguation plans, the weighted objective
// prefers the cheaper processing group.
func TestProcCostWeightBreaksTies(t *testing.T) {
	// Two single-query "plots" with equal probability but very different
	// processing cost; screen fits only one.
	cands := []Candidate{
		{Query: q("SELECT count(*) FROM ta WHERE a = 'x'"), Prob: 0.3},
		{Query: q("SELECT count(*) FROM tb WHERE b = 'y'"), Prob: 0.3},
	}
	// Width of 4 bar units: each plot needs 3 (2 title units + 1 bar), so
	// exactly one of the two plots fits.
	screen := Screen{WidthPx: 48 * 4, Rows: 1, PxPerBar: 48, PxPerChar: 7}
	in := &Instance{
		Candidates: cands,
		Screen:     screen,
		Model:      usermodel.DefaultModel(),
		Groups: []ProcessingGroup{
			{Queries: []int{0}, Cost: 1000},
			{Queries: []int{1}, Cost: 10},
		},
		ProcCostWeight: 1,
	}
	s := &ILPSolver{Timeout: 20 * time.Second}
	m, st, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Optimal {
		t.Fatal("not optimal")
	}
	states := m.QueryStates(2)
	if states[1] == StateMissing || states[0] != StateMissing {
		t.Errorf("weighted objective should prefer the cheap query: states = %v (multiplot %s)", states, m)
	}
}

// TestIncrementalStopsAtOptimal ensures the incremental scheme terminates
// early once the inner solver proves optimality, rather than burning the
// whole budget.
func TestIncrementalStopsAtOptimal(t *testing.T) {
	in := valueVariantInstance([]float64{0.6, 0.4}, smallScreen())
	inc := DefaultIncremental(10 * time.Second)
	start := time.Now()
	_, st, err := inc.Solve(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Optimal {
		t.Error("tiny instance should be solved to optimality")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("incremental did not stop early on optimality")
	}
}
