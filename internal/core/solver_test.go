package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"muve/internal/usermodel"
)

// valueVariantInstance builds the canonical ambiguous-voice-query instance:
// candidates differ in one predicate constant (all share one SlotPredVal
// template) with the given probabilities.
func valueVariantInstance(probs []float64, screen Screen) *Instance {
	cands := make([]Candidate, len(probs))
	for i, p := range probs {
		cands[i] = Candidate{
			Query: q(fmt.Sprintf("SELECT count(*) FROM r WHERE borough = 'B%02d'", i)),
			Prob:  p,
		}
	}
	return &Instance{Candidates: cands, Screen: screen, Model: usermodel.DefaultModel()}
}

// randomInstance draws a realistic random instance: several "base" queries
// with variants along predicate values and aggregate functions.
func randomInstance(rng *rand.Rand, nCands int, screen Screen) *Instance {
	aggs := []string{"count(*)", "sum(x)", "avg(x)", "max(x)"}
	cols := []string{"boro", "agency", "status"}
	var cands []Candidate
	total := 0.0
	for len(cands) < nCands {
		agg := aggs[rng.Intn(len(aggs))]
		col := cols[rng.Intn(len(cols))]
		val := fmt.Sprintf("v%d", rng.Intn(8))
		sql := fmt.Sprintf("SELECT %s FROM r WHERE %s = '%s'", agg, col, val)
		p := rng.Float64()
		cands = append(cands, Candidate{Query: q(sql), Prob: p})
		total += p
	}
	for i := range cands {
		cands[i].Prob /= total * 1.02 // sums just under 1
	}
	return &Instance{Candidates: cands, Screen: screen, Model: usermodel.DefaultModel()}
}

func smallScreen() Screen {
	return Screen{WidthPx: 480, Rows: 1, PxPerBar: 48, PxPerChar: 7}
}

func TestInstanceValidate(t *testing.T) {
	good := valueVariantInstance([]float64{0.5, 0.3}, DefaultScreen())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Instance{Screen: DefaultScreen(), Model: usermodel.DefaultModel()}
	if err := bad.Validate(); err == nil {
		t.Error("empty candidates accepted")
	}
	neg := valueVariantInstance([]float64{-0.1}, DefaultScreen())
	if err := neg.Validate(); err == nil {
		t.Error("negative probability accepted")
	}
	over := valueVariantInstance([]float64{0.8, 0.8}, DefaultScreen())
	if err := over.Validate(); err == nil {
		t.Error("probabilities over 1 accepted")
	}
	multi := valueVariantInstance([]float64{0.5}, DefaultScreen())
	multi.Candidates[0].Query = q("SELECT count(*), sum(x) FROM r")
	if err := multi.Validate(); err == nil {
		t.Error("multi-aggregate candidate accepted")
	}
	badScreen := valueVariantInstance([]float64{0.5}, Screen{WidthPx: 10, Rows: 1, PxPerBar: 48, PxPerChar: 7})
	if err := badScreen.Validate(); err == nil {
		t.Error("unusable screen accepted")
	}
	badGroup := valueVariantInstance([]float64{0.5}, DefaultScreen())
	badGroup.Groups = []ProcessingGroup{{Queries: []int{5}, Cost: 1}}
	if err := badGroup.Validate(); err == nil {
		t.Error("out-of-range group accepted")
	}
}

func TestGreedyCoversLikelyQueries(t *testing.T) {
	in := valueVariantInstance([]float64{0.4, 0.25, 0.15, 0.1, 0.05, 0.05}, DefaultScreen())
	g := &GreedySolver{}
	m, st, err := g.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !m.FitsScreen(in.Screen) {
		t.Error("greedy multiplot exceeds screen")
	}
	states := m.QueryStates(len(in.Candidates))
	if states[0] == StateMissing {
		t.Error("most likely candidate missing from multiplot")
	}
	if st.Cost >= in.Model.EmptyCost() {
		t.Errorf("cost %v no better than empty %v", st.Cost, in.Model.EmptyCost())
	}
	if st.Cost != in.Cost(m) {
		t.Error("reported cost disagrees with evaluation")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(5)), 15, DefaultScreen())
	g := &GreedySolver{}
	a, _, err := g.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := g.Solve(in)
	if a.String() != b.String() {
		t.Errorf("greedy not deterministic:\n%s\n%s", a, b)
	}
}

// TestGreedyTrialCostMatchesCost pins greedy's allocation-free trial
// costs to Instance.Cost: through every selection round, each trial's
// gain must equal currentCost - in.Cost(trial) bit for bit, where trial
// is the current multiplot with the candidate plot materialized into a
// row.
func TestGreedyTrialCostMatchesCost(t *testing.T) {
	configs := []struct {
		name   string
		groups bool
		weight float64
	}{{"plain", false, 0}, {"groups", true, 0}, {"groups+weight", true, 0.5}}
	for _, rows := range []int{1, 3} {
		for _, cfg := range configs {
			for seed := int64(1); seed <= 4; seed++ {
				in := randomInstance(rand.New(rand.NewSource(seed)), 16, Screen{WidthPx: 1024, Rows: rows, PxPerBar: 48, PxPerChar: 7})
				if cfg.groups {
					// Consecutive pairs; the last candidate is in no group,
					// which takes processingCost's standalone branch.
					for i := 0; i+2 < len(in.Candidates); i += 2 {
						in.Groups = append(in.Groups, ProcessingGroup{Queries: []int{i, i + 1}, Cost: float64(1 + i%5)})
					}
				}
				in.ProcCostWeight = cfg.weight
				g := &GreedySolver{}
				colored := g.coloredCandidates(in)
				usedTemplate := make([]bool, len(in.TemplateGroups()))
				rowUsed := make([]int, rows)
				current := Multiplot{Rows: make([][]Plot, rows)}
				trials := newTrialCosts(in)
				currentCost := in.Cost(current)
				checked := 0
				for {
					bestIdx, bestRow := -1, -1
					var bestScore, bestGain float64
					for ci, c := range colored {
						if usedTemplate[c.id] {
							continue
						}
						trial := Multiplot{Rows: append([][]Plot(nil), current.Rows...)}
						trial.Rows[0] = append(append([]Plot(nil), current.Rows[0]...), c.materialize())
						want := currentCost - in.Cost(trial)
						if got := currentCost - trials.cost(c); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%d rows, %s, seed %d, candidate %d: trial gain %v, want %v", rows, cfg.name, seed, ci, got, want)
						}
						checked++
						row, score, gain := g.scanCandidate(in, c, usedTemplate, rowUsed, trials, currentCost)
						if row >= 0 && math.Float64bits(gain) != math.Float64bits(want) {
							t.Fatalf("%d rows, %s, seed %d, candidate %d: scanCandidate gain %v, want %v", rows, cfg.name, seed, ci, gain, want)
						}
						if row >= 0 && (score > bestScore+1e-12 || (bestIdx == -1 && score > 0)) {
							bestIdx, bestRow, bestScore, bestGain = ci, row, score, gain
						}
					}
					if bestIdx == -1 {
						break
					}
					c := colored[bestIdx]
					current.Rows[bestRow] = append(current.Rows[bestRow], c.materialize())
					trials.place(c)
					rowUsed[bestRow] += c.width
					usedTemplate[c.id] = true
					currentCost -= bestGain
				}
				if checked == 0 {
					t.Fatalf("%d rows, %s, seed %d: no trials checked", rows, cfg.name, seed)
				}
				// The rounds above are pickPlots' rounds, so they must end
				// where the solver does.
				m, _ := g.pickPlots(in, colored)
				if got, want := tidy(current).String(), m.String(); got != want {
					t.Errorf("%d rows, %s, seed %d: replayed rounds ended at %s, pickPlots at %s", rows, cfg.name, seed, got, want)
				}
			}
		}
	}
}

func TestGreedyHighlightsPrefixByProbability(t *testing.T) {
	// Theorem 2: within each plot, the highlighted set is the k most
	// likely queries shown in it.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 12, DefaultScreen())
		g := &GreedySolver{}
		m, _, err := g.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		assertPrefixHighlighting(t, in, m)
	}
}

func assertPrefixHighlighting(t *testing.T, in *Instance, m Multiplot) {
	t.Helper()
	for _, pl := range m.Plots() {
		minHL := math.Inf(1)
		for _, e := range pl.Entries {
			if e.Highlighted {
				if p := in.Candidates[e.Query].Prob; p < minHL {
					minHL = p
				}
			}
		}
		for _, e := range pl.Entries {
			if !e.Highlighted && in.Candidates[e.Query].Prob > minHL+1e-12 {
				t.Errorf("plot %q highlights prob %v but not the likelier %v",
					pl.Template.Title, minHL, in.Candidates[e.Query].Prob)
			}
		}
	}
}

func TestGreedyNoDuplicateResultsAfterPolish(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		in := randomInstance(rng, 14, Screen{WidthPx: 1440, Rows: 2, PxPerBar: 48, PxPerChar: 7})
		g := &GreedySolver{}
		m, _, err := g.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]int{}
		for _, pl := range m.Plots() {
			for _, e := range pl.Entries {
				seen[e.Query]++
			}
		}
		for qi, n := range seen {
			if n > 1 {
				t.Errorf("trial %d: query %d shown %d times after polish", trial, qi, n)
			}
		}
	}
}

func TestPolishNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 12, Screen{WidthPx: 1024, Rows: 2, PxPerBar: 48, PxPerChar: 7})
		raw := &GreedySolver{SkipPolish: true}
		mRaw, _, err := raw.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		polished := polish(in, mRaw)
		if in.Cost(polished) > in.Cost(mRaw)+1e-9 {
			t.Errorf("trial %d: polish worsened cost %v -> %v", trial, in.Cost(mRaw), in.Cost(polished))
		}
		if !polished.FitsScreen(in.Screen) {
			t.Errorf("trial %d: polished multiplot does not fit", trial)
		}
	}
}

func TestSavingsMonotoneInPlots(t *testing.T) {
	// Lemma 1: cost savings are non-decreasing in the set of plots. The
	// lemma's proof assumes added plots contribute non-redundant results
	// (its Theorem 2 context) and leans on Assumption 1 (reading costs
	// small against the miss penalty D_M). We verify both regimes.

	// Regime 1: negligible reading costs — monotone for ANY additions,
	// including fully redundant ones (this is the knapsack-reduction
	// setting of Theorem 5 where c_B = c_P ~ 0).
	in := valueVariantInstance([]float64{0.3, 0.25, 0.2, 0.15, 0.05}, DefaultScreen())
	in.Model = usermodel.TimeModel{CB: 1e-6, CP: 2e-6, DM: 30000}
	g := &GreedySolver{}
	colored := g.coloredCandidates(in)
	if len(colored) == 0 {
		t.Fatal("no candidates")
	}
	var m Multiplot
	m.Rows = [][]Plot{nil}
	prev := in.Savings(m)
	usedTemplates := map[string]bool{}
	for _, c := range colored {
		if usedTemplates[c.group.Template.Key] {
			continue
		}
		usedTemplates[c.group.Template.Key] = true
		m.Rows[0] = append(m.Rows[0], c.materialize())
		cur := in.Savings(m)
		// Tolerance absorbs the vanishing-but-nonzero reading costs: in
		// the exact c_B = c_P = 0 limit the decrease is identically zero.
		if cur < prev-1e-3 {
			t.Errorf("savings decreased: %v -> %v", prev, cur)
		}
		prev = cur
	}

	// Regime 2: realistic reading costs with non-redundant additions of
	// comparable probability mass — each plot covers one new candidate.
	cands := make([]Candidate, 5)
	for i := range cands {
		cands[i] = Candidate{
			Query: q(fmt.Sprintf("SELECT count(*) FROM t%d WHERE a = 'x'", i)),
			Prob:  0.19,
		}
	}
	in2 := &Instance{Candidates: cands, Screen: DefaultScreen(), Model: usermodel.DefaultModel()}
	groups := in2.TemplateGroups()
	var m2 Multiplot
	m2.Rows = [][]Plot{nil}
	prev = in2.Savings(m2)
	added := map[int]bool{}
	for _, grp := range groups {
		if len(grp.Queries) != 1 || added[grp.Queries[0]] {
			continue
		}
		added[grp.Queries[0]] = true
		m2.Rows[0] = append(m2.Rows[0], Plot{
			Template: grp.Template,
			Entries:  []Entry{{Query: grp.Queries[0], Label: grp.Labels[0]}},
		})
		cur := in2.Savings(m2)
		if cur < prev-1e-9 {
			t.Errorf("non-redundant savings decreased: %v -> %v", prev, cur)
		}
		prev = cur
	}
}

func TestSavingsSubmodular(t *testing.T) {
	// Theorem 3: adding the same plot to a superset of plots gains no more
	// than adding it to the subset.
	rng := rand.New(rand.NewSource(47))
	in := randomInstance(rng, 10, Screen{WidthPx: 3000, Rows: 1, PxPerBar: 48, PxPerChar: 7})
	g := &GreedySolver{}
	colored := g.coloredCandidates(in)
	// Deduplicate templates so sets contain distinct plots.
	var plots []Plot
	seen := map[string]bool{}
	for _, c := range colored {
		if !seen[c.group.Template.Key] && c.n >= 1 {
			seen[c.group.Template.Key] = true
			plots = append(plots, c.materialize())
		}
		if len(plots) >= 6 {
			break
		}
	}
	if len(plots) < 3 {
		t.Skip("instance too small for submodularity check")
	}
	mk := func(ps []Plot) Multiplot {
		if len(ps) == 0 {
			return Multiplot{}
		}
		return Multiplot{Rows: [][]Plot{append([]Plot(nil), ps...)}}
	}
	for trial := 0; trial < 50; trial++ {
		// Random S1 subset of S2 subset of plots \ {p}.
		pi := rng.Intn(len(plots))
		var s2 []Plot
		for i, pl := range plots {
			if i != pi && rng.Intn(2) == 0 {
				s2 = append(s2, pl)
			}
		}
		var s1 []Plot
		for _, pl := range s2 {
			if rng.Intn(2) == 0 {
				s1 = append(s1, pl)
			}
		}
		gain1 := in.Savings(mk(append(append([]Plot(nil), s1...), plots[pi]))) - in.Savings(mk(s1))
		gain2 := in.Savings(mk(append(append([]Plot(nil), s2...), plots[pi]))) - in.Savings(mk(s2))
		if gain1 < gain2-1e-9 {
			t.Errorf("submodularity violated: gain(S1)=%v < gain(S2)=%v", gain1, gain2)
		}
	}
}

func TestILPMatchesExhaustiveOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 8; trial++ {
		in := randomInstance(rng, 4, smallScreen())
		ex := &ExhaustiveSolver{}
		mEx, stEx, err := ex.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		ilpS := &ILPSolver{Timeout: 20 * time.Second}
		mIlp, stIlp, err := ilpS.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !stIlp.Optimal {
			t.Errorf("trial %d: ILP did not prove optimality", trial)
			continue
		}
		if !mIlp.FitsScreen(in.Screen) {
			t.Errorf("trial %d: ILP multiplot overflows screen", trial)
		}
		if diff := stIlp.Cost - stEx.Cost; math.Abs(diff) > 1e-6 {
			t.Errorf("trial %d: ILP cost %v != exhaustive %v\nILP: %s\nEx:  %s",
				trial, stIlp.Cost, stEx.Cost, mIlp, mEx)
		}
	}
}

func TestGreedyWithinBoundOfOptimum(t *testing.T) {
	// The greedy guarantee (Theorem 4) is a constant-factor approximation
	// on savings; empirically it is near-optimal. Assert savings are at
	// least half the optimum on small instances.
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 5, smallScreen())
		ex := &ExhaustiveSolver{}
		_, stEx, err := ex.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		g := &GreedySolver{}
		_, stG, err := g.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		optSave := in.Model.EmptyCost() - stEx.Cost
		greedySave := in.Model.EmptyCost() - stG.Cost
		if greedySave < 0.5*optSave-1e-9 {
			t.Errorf("trial %d: greedy savings %v below half of optimal %v", trial, greedySave, optSave)
		}
	}
}

func TestILPTimeoutReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	in := randomInstance(rng, 25, Screen{WidthPx: 1440, Rows: 3, PxPerBar: 48, PxPerChar: 7})
	s := &ILPSolver{Timeout: 50 * time.Millisecond, WarmStart: true}
	m, st, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if st.Optimal && st.Duration > 2*time.Second {
		t.Error("claimed optimal long after deadline")
	}
	if !m.FitsScreen(in.Screen) {
		t.Error("timeout solution overflows screen")
	}
	// With a warm start the result can never be worse than greedy.
	g := &GreedySolver{}
	_, stG, _ := g.Solve(in)
	if st.Cost > stG.Cost+1e-6 {
		t.Errorf("warm-started ILP cost %v worse than greedy %v", st.Cost, stG.Cost)
	}
}

func TestILPHintFromSameInstanceHits(t *testing.T) {
	in := valueVariantInstance([]float64{0.4, 0.25, 0.15, 0.1, 0.05}, DefaultScreen())
	m1, st1, err := (&ILPSolver{Timeout: 20 * time.Second}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if st1.WarmStart != "" {
		t.Errorf("no hint given but WarmStart = %q", st1.WarmStart)
	}
	// Re-solving the same instance with its own answer as the hint must
	// remap every entry and start from that incumbent.
	m2, st2, err := (&ILPSolver{Timeout: 20 * time.Second, Hint: &m1}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if st2.WarmStart != WarmHit {
		t.Errorf("WarmStart = %q, want %q", st2.WarmStart, WarmHit)
	}
	if math.Abs(st2.Cost-st1.Cost) > 1e-6 {
		t.Errorf("hinted solve cost %v != cold optimal %v", st2.Cost, st1.Cost)
	}
	if !m2.FitsScreen(in.Screen) {
		t.Error("hinted solution overflows screen")
	}
}

func TestILPHintFromDisjointInstanceStartsCold(t *testing.T) {
	// A hint whose templates and labels share nothing with the current
	// instance (a brand-new utterance) must degrade to a clean cold
	// start: no crash, no mis-seeding, result identical to no hint.
	prior := valueVariantInstance([]float64{0.4, 0.3, 0.2}, DefaultScreen())
	hint, _, err := (&ILPSolver{Timeout: 20 * time.Second}).Solve(prior)
	if err != nil {
		t.Fatal(err)
	}
	if hint.NumPlots() == 0 {
		t.Fatal("prior solve produced no plots to hint with")
	}
	in := randomInstance(rand.New(rand.NewSource(11)), 5, smallScreen())
	mCold, stCold, err := (&ILPSolver{Timeout: 20 * time.Second}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	mHint, stHint, err := (&ILPSolver{Timeout: 20 * time.Second, Hint: &hint}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if stHint.WarmStart != WarmNone {
		t.Errorf("WarmStart = %q, want %q", stHint.WarmStart, WarmNone)
	}
	if math.Abs(stHint.Cost-stCold.Cost) > 1e-6 {
		t.Errorf("disjoint hint changed the optimum: %v vs %v\nhinted: %s\ncold:   %s",
			stHint.Cost, stCold.Cost, mHint, mCold)
	}
}

func TestILPHintPartialWhenCandidatesVanish(t *testing.T) {
	// Solve a 6-way ambiguity, then re-plan after half the candidates
	// disappeared (the follow-up utterance narrowed the query): the
	// surviving hint entries seed the solve, the vanished ones drop.
	wide := valueVariantInstance([]float64{0.25, 0.2, 0.18, 0.15, 0.12, 0.08}, DefaultScreen())
	hint, _, err := (&ILPSolver{Timeout: 20 * time.Second}).Solve(wide)
	if err != nil {
		t.Fatal(err)
	}
	shown := 0
	for _, pl := range hint.Plots() {
		shown += len(pl.Entries)
	}
	if shown < 4 {
		t.Fatalf("wide solve displayed only %d bars; instance no longer exercises the partial path", shown)
	}
	narrow := valueVariantInstance([]float64{0.4, 0.3, 0.2}, DefaultScreen())
	m, st, err := (&ILPSolver{Timeout: 20 * time.Second, Hint: &hint}).Solve(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmStart != WarmPartial {
		t.Errorf("WarmStart = %q, want %q", st.WarmStart, WarmPartial)
	}
	if !st.Optimal {
		t.Error("narrow instance should still solve to optimality")
	}
	if !m.FitsScreen(narrow.Screen) {
		t.Error("solution overflows screen")
	}
}

func TestIncrementalWarmSessionNeverWorseThanGreedyOrPrior(t *testing.T) {
	// Replaying a session against the same instance with each answer
	// hinting the next, costs must be non-increasing utterance over
	// utterance and never worse than greedy — the warm-start contract.
	rng := rand.New(rand.NewSource(131))
	in := randomInstance(rng, 10, smallScreen())
	_, stG, err := (&GreedySolver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	var hint *Multiplot
	prevCost := math.Inf(1)
	for utt := 0; utt < 3; utt++ {
		inc := &IncrementalILP{TotalBudget: 300 * time.Millisecond, Hint: hint}
		m, st, err := inc.Solve(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hint != nil {
			if st.Cost > prevCost+1e-6 {
				t.Errorf("utterance %d cost %v worse than prior %v", utt, st.Cost, prevCost)
			}
			if st.Cost > stG.Cost+1e-6 {
				t.Errorf("utterance %d cost %v worse than greedy %v", utt, st.Cost, stG.Cost)
			}
			if st.WarmStart == "" {
				t.Errorf("utterance %d: hint given but WarmStart empty", utt)
			}
		}
		prevCost = st.Cost
		prev := m
		hint = &prev
	}
}

func TestIncrementalScheduleSurvivesBudgetClamp(t *testing.T) {
	// A sequence clamped to the remaining budget must not feed the
	// clamped duration back into the k·bⁱ schedule: on a hard instance a
	// 1s budget holds at most ceil(log2(1s/62.5ms)) + 1 = 5 sequences.
	// The pre-fix behavior restarted the geometric growth from the
	// clamped sliver, burning model builds on near-zero sequences.
	rng := rand.New(rand.NewSource(83))
	in := randomInstance(rng, 25, Screen{WidthPx: 1440, Rows: 3, PxPerBar: 48, PxPerChar: 7})
	inc := DefaultIncremental(time.Second)
	_, st, err := inc.Solve(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sequences == 0 {
		t.Fatal("no sequences ran")
	}
	if st.Sequences > 5 {
		t.Errorf("sequences = %d, want <= 5 for a 1s budget at k=62.5ms b=2", st.Sequences)
	}
}

func TestIncrementalEmitsImprovingUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	in := randomInstance(rng, 10, smallScreen())
	inc := DefaultIncremental(800 * time.Millisecond)
	var updates []Update
	m, st, err := inc.Solve(in, func(u Update) { updates = append(updates, u) })
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) == 0 {
		t.Fatal("no updates emitted")
	}
	last := updates[len(updates)-1]
	if !last.Final {
		t.Error("last update not marked final")
	}
	if last.Cost != st.Cost || in.Cost(m) != st.Cost {
		t.Error("final update disagrees with returned multiplot")
	}
	for i := 1; i < len(updates)-1; i++ {
		if updates[i].Cost > updates[i-1].Cost+1e-9 {
			t.Errorf("update %d worsened cost: %v -> %v", i, updates[i-1].Cost, updates[i].Cost)
		}
		if updates[i].Elapsed < updates[i-1].Elapsed {
			t.Errorf("update %d went back in time", i)
		}
	}
}

func TestProcessingCostBoundRestricts(t *testing.T) {
	in := valueVariantInstance([]float64{0.3, 0.25, 0.2, 0.15}, DefaultScreen())
	// Two groups: the first covers queries 0-1 cheaply, the second covers
	// 2-3 expensively.
	in.Groups = []ProcessingGroup{
		{Queries: []int{0, 1}, Cost: 10},
		{Queries: []int{2, 3}, Cost: 100},
	}
	in.ProcCostBound = 50 // only the cheap group is affordable
	s := &ILPSolver{Timeout: 20 * time.Second}
	m, st, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Optimal {
		t.Fatal("expected optimal solve")
	}
	states := m.QueryStates(len(in.Candidates))
	for qi := 2; qi < 4; qi++ {
		if states[qi] != StateMissing {
			t.Errorf("query %d displayed despite unaffordable group", qi)
		}
	}
	// Without the bound, more probability is covered.
	in2 := valueVariantInstance([]float64{0.3, 0.25, 0.2, 0.15}, DefaultScreen())
	m2, _, err := (&ILPSolver{Timeout: 20 * time.Second}).Solve(in2)
	if err != nil {
		t.Fatal(err)
	}
	rR1, rV1 := in.ProbCovered(m)
	rR2, rV2 := in2.ProbCovered(m2)
	if rR1+rV1 >= rR2+rV2 {
		t.Errorf("bound did not reduce coverage: %v vs %v", rR1+rV1, rR2+rV2)
	}
}

// TestILPBarDisplaysItsQuery pins the display link qd_i = sum q_{i,t,r}
// on TestProcessingCostBoundRestricts' instance: an assignment showing a
// bar of the unaffordable group with its query's qd_i = 0 must be
// infeasible. Otherwise the bar bypasses the processing-cost gate
// qd_i <= sum g_j at an unchanged objective, and an equal-cost optimum
// that breaks ProcCostBound competes with the right one.
func TestILPBarDisplaysItsQuery(t *testing.T) {
	in := valueVariantInstance([]float64{0.3, 0.25, 0.2, 0.15}, DefaultScreen())
	in.Groups = []ProcessingGroup{
		{Queries: []int{0, 1}, Cost: 10},
		{Queries: []int{2, 3}, Cost: 100},
	}
	in.ProcCostBound = 50
	v, err := (&ILPSolver{}).buildModel(in)
	if err != nil {
		t.Fatal(err)
	}
	// The template that varies the borough constant groups all four
	// queries into one plot.
	var grp TemplateGroup
	for _, g := range v.idx.groups {
		if len(g.Queries) == len(in.Candidates) {
			grp = g
		}
	}
	if grp.Queries == nil {
		t.Fatal("no template groups every candidate")
	}
	plot := func(queries ...int) Multiplot {
		var entries []Entry
		for _, qi := range queries {
			for j, gq := range grp.Queries {
				if gq == qi {
					entries = append(entries, Entry{Query: qi, Label: grp.Labels[j]})
				}
			}
		}
		return Multiplot{Rows: [][]Plot{{{Template: grp.Template, Entries: entries}}}}
	}

	affordable, ok := embedMultiplot(in, v, plot(0))
	if !ok || !v.model.Feasible(affordable, warmSeedTol) {
		t.Fatal("showing only query 0 (cheap group) should be feasible")
	}
	x, ok := embedMultiplot(in, v, plot(0, 2))
	if !ok {
		t.Fatal("plot of queries 0 and 2 does not embed")
	}
	// Hide query 2 from the objective and drop its expensive group:
	// the bar stays on screen, so qd_2 = 0 must contradict it.
	x[v.disp[2]], x[v.dnh[2]], x[v.groupVars[1]] = 0, 0, 0
	if v.model.Feasible(x, warmSeedTol) {
		t.Error("a bar of query 2 with qd_2 = 0 passed the model: the processing-cost gate is bypassed")
	}
}

func TestMultiplotAccessors(t *testing.T) {
	m := Multiplot{Rows: [][]Plot{
		{{Entries: []Entry{{Query: 0, Highlighted: true}, {Query: 1}}}},
		{{Entries: []Entry{{Query: 2}}}},
	}}
	b, bR, p, pR := m.Counts()
	if b != 3 || bR != 1 || p != 2 || pR != 1 {
		t.Errorf("counts = %d %d %d %d", b, bR, p, pR)
	}
	if m.NumPlots() != 2 || len(m.Plots()) != 2 {
		t.Error("plot accessors wrong")
	}
	st := m.QueryStates(4)
	if st[0] != StateHighlighted || st[1] != StateVisible || st[2] != StateVisible || st[3] != StateMissing {
		t.Errorf("states = %v", st)
	}
	l := m.Layout(2)
	if present, hl := l.Target(); !present || hl {
		t.Errorf("layout target = %v %v", present, hl)
	}
	if (Multiplot{}).String() != "[empty]" {
		t.Error("empty string form")
	}
}

func TestScreenGeometry(t *testing.T) {
	s := DefaultScreen()
	if s.WidthUnits() <= 0 {
		t.Error("no width units")
	}
	if s.TitleUnits(0) != 1 {
		t.Error("minimum title width should be 1 unit")
	}
	if s.TitleUnits(100) <= s.TitleUnits(10) {
		t.Error("longer titles need more units")
	}
	if err := (Screen{Rows: 0, WidthPx: 400, PxPerBar: 40, PxPerChar: 7}).Validate(); err == nil {
		t.Error("zero rows accepted")
	}
	if err := (Screen{Rows: 1, WidthPx: 400, PxPerBar: 0, PxPerChar: 7}).Validate(); err == nil {
		t.Error("zero PxPerBar accepted")
	}
}

func TestCostAgainstManualComputation(t *testing.T) {
	in := valueVariantInstance([]float64{0.5, 0.3}, DefaultScreen())
	// One plot, both bars, first highlighted.
	var grp TemplateGroup
	for _, g := range in.TemplateGroups() {
		if len(g.Queries) == 2 {
			grp = g
		}
	}
	m := Multiplot{Rows: [][]Plot{{{
		Template: grp.Template,
		Entries: []Entry{
			{Query: grp.Queries[0], Highlighted: true},
			{Query: grp.Queries[1]},
		},
	}}}}
	model := in.Model
	want := 0.5*model.DR(1, 1) + 0.3*model.DV(2, 1, 1, 1) + 0.2*model.DM
	if got := in.Cost(m); math.Abs(got-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", got, want)
	}
	if got := in.Savings(m); math.Abs(got-(model.DM-want)) > 1e-9 {
		t.Errorf("savings = %v", got)
	}
}

func TestIncrementalUnhintedNeverWorseThanGreedy(t *testing.T) {
	// Without a prior the first sequence still starts from the greedy
	// seed: a starved budget may leave the search no time to find an
	// incumbent of its own, and the answer must then be greedy's, not
	// the empty multiplot. On several rows greedy may fill a narrower
	// row above a wider one, which the model's row order forbids; the
	// seed must survive that too.
	for _, screen := range []Screen{
		{WidthPx: 1024, Rows: 1, PxPerBar: 48, PxPerChar: 7},
		{WidthPx: 1024, Rows: 2, PxPerBar: 48, PxPerChar: 7},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			in := randomInstance(rand.New(rand.NewSource(seed)), 20, screen)
			_, stG, err := (&GreedySolver{}).Solve(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond} {
				_, st, err := DefaultIncremental(budget).Solve(in, nil)
				if err != nil {
					t.Fatal(err)
				}
				if st.Cost > stG.Cost+1e-6 {
					t.Errorf("%d rows, seed %d, budget %v: ILP-Inc cost %v worse than greedy %v",
						screen.Rows, seed, budget, st.Cost, stG.Cost)
				}
				if st.WarmStart != "" {
					t.Errorf("%d rows, seed %d, budget %v: no hint given but WarmStart %q",
						screen.Rows, seed, budget, st.WarmStart)
				}
			}
		}
	}
}
