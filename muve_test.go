package muve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"muve/internal/core"
	"muve/internal/obs"
	"muve/internal/progressive"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
	"muve/internal/workload"
)

func demoDB(t *testing.T) *sqldb.DB {
	t.Helper()
	tbl, err := workload.Build(workload.NYC311, 5000, 77)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	return db
}

func TestNewErrors(t *testing.T) {
	db := demoDB(t)
	if _, err := New(db, "nope"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := New(db, "requests", WithWidth(10)); err == nil {
		t.Error("unusable screen accepted")
	}
	if _, err := New(db, "requests", WithTimeModel(usermodel.TimeModel{CB: 1, CP: 100, DM: 10})); err == nil {
		t.Error("invalid time model accepted")
	}
}

func TestParseSolverKind(t *testing.T) {
	for _, k := range []SolverKind{SolverGreedy, SolverILP, SolverILPIncremental} {
		got, err := ParseSolverKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseSolverKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"", "GREEDY", "ilp_inc", "simplex", "SolverKind(3)"} {
		if _, err := ParseSolverKind(name); err == nil {
			t.Errorf("ParseSolverKind(%q) accepted an unknown name", name)
		}
	}
}

func TestAskEndToEnd(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Candidates) < 2 {
		t.Fatalf("candidates = %d", len(ans.Candidates))
	}
	if ans.Multiplot.NumPlots() == 0 {
		t.Fatal("no plots planned")
	}
	if !ans.Multiplot.FitsScreen(sys.cfg.Screen) {
		t.Error("multiplot overflows screen")
	}
	// Every bar has an executed value (or explicit NULL -> NaN).
	bars := 0
	withValue := 0
	for _, pl := range ans.Multiplot.Plots() {
		for _, e := range pl.Entries {
			bars++
			if !math.IsNaN(e.Value) {
				withValue++
			}
		}
	}
	if bars == 0 || withValue == 0 {
		t.Errorf("bars = %d, with value = %d", bars, withValue)
	}
	// Rendering works and carries the headline.
	if !strings.Contains(ans.ANSI(), "requests") {
		t.Error("ANSI output missing headline")
	}
	if !strings.HasPrefix(ans.SVG(), "<svg") {
		t.Error("SVG output malformed")
	}
	if !strings.Contains(ans.ANSIPlain(), "│") {
		t.Error("plain ANSI missing box glyphs")
	}
}

func TestAskWithILPSolver(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests",
		WithSolver(SolverILP),
		WithILPTimeout(300*time.Millisecond),
		WithMaxCandidates(8),
		WithWidth(600))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("average response hours in Queens")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Multiplot.NumPlots() == 0 {
		t.Error("ILP produced empty multiplot")
	}
	if ans.TopQuery.Aggs[0].Func != sqldb.AggAvg {
		t.Errorf("top query = %s", ans.TopQuery.SQL())
	}
}

// TestILPAnswerReportsSolverStats pins that an ILP plot answer carries
// the solver's own report — optimality and the search counters — next
// to the cost and timing fields the answer path fills in.
func TestILPAnswerReportsSolverStats(t *testing.T) {
	db := demoDB(t)
	for _, kind := range []SolverKind{SolverILP, SolverILPIncremental} {
		sys, err := New(db, "requests",
			WithSolver(kind),
			WithILPTimeout(5*time.Second),
			WithMaxCandidates(8),
			WithWidth(600))
		if err != nil {
			t.Fatal(err)
		}
		ans, err := sys.Ask("average response hours in Queens")
		if err != nil {
			t.Fatal(err)
		}
		st := ans.Stats
		if !st.Optimal || st.TimedOut {
			t.Errorf("%v: Optimal = %v, TimedOut = %v; want a proven optimum within 5s", kind, st.Optimal, st.TimedOut)
		}
		if st.Nodes <= 0 || st.LPSolves <= 0 || st.SimplexIters <= 0 || st.Workers <= 0 {
			t.Errorf("%v: search counters missing: Nodes=%d LPSolves=%d SimplexIters=%d Workers=%d",
				kind, st.Nodes, st.LPSolves, st.SimplexIters, st.Workers)
		}
		if st.Cost <= 0 || st.Duration <= 0 {
			t.Errorf("%v: Cost = %v, Duration = %v; want both set", kind, st.Cost, st.Duration)
		}
	}
}

func TestAskWithSpeechNoise(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithSpeechNoise(0.3, 5), WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("how many heating complaints in Manhattan")
	if err != nil {
		t.Fatal(err)
	}
	// Even with noise, the pipeline must return a plotted answer.
	if ans.Multiplot.NumPlots() == 0 {
		t.Error("noisy ask produced no plots")
	}
	if ans.Transcript == "" {
		t.Error("transcript missing")
	}
}

func TestAskWithProgressivePresentation(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests",
		WithPresentation(progressive.NewApprox(0.05)),
		WithWidth(900))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("count of rodent complaints")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trace == nil || len(ans.Trace.Events) != 2 {
		t.Fatalf("trace = %+v", ans.Trace)
	}
	if !ans.Trace.Events[0].Approximate {
		t.Error("first event should be approximate")
	}
}

func TestHeadlineSharedElements(t *testing.T) {
	cands := []core.Candidate{
		{Query: sqldb.MustParse("SELECT count(*) FROM requests WHERE borough = 'Brooklyn'"), Prob: 0.6},
		{Query: sqldb.MustParse("SELECT count(*) FROM requests WHERE borough = 'Bronx'"), Prob: 0.4},
	}
	h := headline(cands)
	if !strings.Contains(h, "requests") || !strings.Contains(h, "count(*)") {
		t.Errorf("headline = %q", h)
	}
	// The differing borough values must not appear as shared.
	if strings.Contains(h, "Brooklyn") || strings.Contains(h, "Bronx") {
		t.Errorf("headline leaks differing elements: %q", h)
	}
	if headline(nil) != "" {
		t.Error("empty candidates headline")
	}
}

func TestSolverKindStrings(t *testing.T) {
	if SolverGreedy.String() != "greedy" || SolverILP.String() != "ilp" || SolverILPIncremental.String() != "ilp-inc" {
		t.Error("solver names")
	}
}

func TestAskDeterministic(t *testing.T) {
	db := demoDB(t)
	sys, _ := New(db, "requests", WithWidth(800))
	a, err := sys.Ask("how many complaints in Queens")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sys.Ask("how many complaints in Queens")
	if a.Multiplot.String() != b.Multiplot.String() {
		t.Error("answers differ across identical asks")
	}
}

func TestAskQueryBypassesTranslation(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	q := sqldb.MustParse("SELECT count(*) FROM requests WHERE borough = 'Queens'")
	ans, err := sys.AskQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.TopQuery.SQL() != q.SQL() {
		t.Errorf("top query = %s", ans.TopQuery.SQL())
	}
	if len(ans.Candidates) < 2 || ans.Multiplot.NumPlots() == 0 {
		t.Errorf("candidates = %d, plots = %d", len(ans.Candidates), ans.Multiplot.NumPlots())
	}
	// The given query must be the most likely candidate.
	if ans.Candidates[0].Query.SQL() != q.SQL() {
		t.Errorf("most likely candidate = %s", ans.Candidates[0].Query.SQL())
	}
	if sys.Catalog() == nil || len(sys.Catalog().Columns()) == 0 {
		t.Error("catalog accessor broken")
	}
}

func TestAskContextCancellation(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.AskContext(ctx, "how many complaints in Queens"); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ask err = %v, want context.Canceled", err)
	}
	// An un-cancelled context answers normally.
	ans, err := sys.AskContext(context.Background(), "how many complaints in Queens")
	if err != nil || ans.Multiplot.NumPlots() == 0 {
		t.Errorf("AskContext = %v, %v", ans, err)
	}
}

func TestAskContextCancellationILP(t *testing.T) {
	db := demoDB(t)
	for _, solver := range []SolverKind{SolverILP, SolverILPIncremental} {
		sys, err := New(db, "requests", WithWidth(700), WithSolver(solver))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := sys.AskContext(ctx, "how many complaints"); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: cancelled ask err = %v", solver, err)
		}
	}
}

func TestAskContextWarmStartsFromPrior(t *testing.T) {
	db := demoDB(t)
	// The prior comes from the greedy solver: deterministic, no
	// wall-clock budget, and the same (db, config) pair yields the same
	// planning instance as the ILP system below, so the hint maps fully.
	greedySys, err := New(db, "requests",
		WithMaxCandidates(8),
		WithWidth(600))
	if err != nil {
		t.Fatal(err)
	}
	ans1, err := greedySys.AskContext(context.Background(), "average response hours in Queens")
	if err != nil {
		t.Fatal(err)
	}
	if ans1.Stats.WarmStart != "" {
		t.Errorf("first utterance WarmStart = %q, want empty (no prior)", ans1.Stats.WarmStart)
	}
	if ans1.Multiplot.NumPlots() == 0 {
		t.Fatal("first utterance produced no plots to warm-start from")
	}
	sys, err := New(db, "requests",
		WithSolver(SolverILPIncremental),
		WithILPTimeout(500*time.Millisecond),
		WithMaxCandidates(8),
		WithWidth(600),
		WithWarmStart(true))
	if err != nil {
		t.Fatal(err)
	}
	// Asking with the previous answer as the prior maps every hint
	// entry onto the identical instance: a full warm-start hit. The
	// hint becomes the incumbent, so even a starved solve can do no
	// worse than the greedy prior.
	ans2, err := sys.AskContext(context.Background(), "average response hours in Queens", &ans1.Multiplot)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Stats.WarmStart != core.WarmHit {
		t.Errorf("warm re-ask WarmStart = %q, want %q", ans2.Stats.WarmStart, core.WarmHit)
	}
	if ans2.Stats.Cost > ans1.Stats.Cost+1e-6 {
		t.Errorf("warm re-ask cost %v worse than prior %v", ans2.Stats.Cost, ans1.Stats.Cost)
	}

	// With the knob off the prior is ignored entirely.
	coldSys, err := New(db, "requests",
		WithSolver(SolverILPIncremental),
		WithILPTimeout(300*time.Millisecond),
		WithMaxCandidates(8),
		WithWidth(600))
	if err != nil {
		t.Fatal(err)
	}
	ans3, err := coldSys.AskContext(context.Background(), "average response hours in Queens", &ans1.Multiplot)
	if err != nil {
		t.Fatal(err)
	}
	if ans3.Stats.WarmStart != "" {
		t.Errorf("WarmStart disabled but prior used: %q", ans3.Stats.WarmStart)
	}
}

// TestConcurrentAsk exercises the documented guarantee that one System
// serves concurrent Ask calls (run with -race), including the
// mutex-guarded speech channel.
func TestConcurrentAsk(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithWidth(900), WithSpeechNoise(0.3, 7))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"how many complaints in Queens",
		"how many noise complaints in brucklyn",
		"average response hours in the bronx",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := sys.Ask(queries[(g+i)%len(queries)]); err != nil {
					t.Errorf("concurrent ask: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAskContextForwardsSolverWorkers checks that AskContext forwards
// the branch-and-bound pool's worker count to the solver span of both
// ILP planners: exactly one worker when GOMAXPROCS is 1, and never more
// than GOMAXPROCS otherwise.
func TestAskContextForwardsSolverWorkers(t *testing.T) {
	db := demoDB(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, kind := range []SolverKind{SolverILP, SolverILPIncremental} {
			sys, err := New(db, "requests",
				WithSolver(kind),
				WithILPTimeout(2*time.Second),
				WithMaxCandidates(8),
				WithWidth(600))
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace("ask")
			ctx := obs.WithTrace(context.Background(), tr)
			if _, err := sys.AskContext(ctx, "how many noise complaints in brooklin"); err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			checkSpanWorkers(t, tr, "solver", procs)
		}
	}
}

// checkSpanWorkers checks the workers attribute of the trace's span of
// the given stage against GOMAXPROCS procs.
func checkSpanWorkers(t *testing.T, tr *obs.Trace, stage string, procs int) {
	t.Helper()
	got, _ := spanAttr(tr, stage, "workers").(int64)
	if got < 1 || got > int64(procs) || (procs == 1 && got != 1) {
		t.Errorf("GOMAXPROCS %d: %s span workers = %v, want 1..%d", procs, stage, got, procs)
	}
}

// TestILPBudget pins BudgetFraction: the exact planners' budget is
// ILPTimeout, capped at the fraction of the time left before the
// context's deadline.
func TestILPBudget(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fraction float64
		left     time.Duration // 0 = no deadline
		min, max time.Duration
	}{
		{"no deadline", 0.5, 0, time.Second, time.Second},
		{"far deadline", 0.5, time.Hour, time.Second, time.Second},
		{"near deadline", 0.5, 400 * time.Millisecond, 150 * time.Millisecond, 200 * time.Millisecond},
		{"fraction 0", 0, 400 * time.Millisecond, time.Second, time.Second},
	} {
		s := &System{cfg: Config{ILPTimeout: time.Second, BudgetFraction: tc.fraction}}
		ctx := context.Background()
		if tc.left > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, tc.left)
			defer cancel()
		}
		if got := s.ilpBudget(ctx); got < tc.min || got > tc.max {
			t.Errorf("%s: budget = %v, want in [%v, %v]", tc.name, got, tc.min, tc.max)
		}
	}
}

// spanAttr returns attribute key of the trace's first span of the given
// stage, or nil when there is none.
func spanAttr(tr *obs.Trace, stage, key string) any {
	for _, sp := range tr.Spans() {
		if sp.Stage != stage {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value()
			}
		}
		return nil
	}
	return nil
}
