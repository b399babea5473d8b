package progressive

import (
	"context"
	"math"
	"testing"
	"time"

	"muve/internal/core"
	"muve/internal/nlq"
	"muve/internal/obs"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
	"muve/internal/workload"
)

// session builds a realistic session over a 311 table with candidates
// from the NLQ pipeline. The correct candidate is the most likely one.
func session(t *testing.T, rows int) *Session {
	t.Helper()
	tbl, err := workload.Build(workload.NYC311, rows, 33)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	cat := nlq.BuildCatalog(tbl, 0)
	gen := nlq.NewGenerator(cat)
	cands, err := gen.Candidates(sqldb.MustParse(
		"SELECT avg(response_hours) FROM requests WHERE borough = 'Brooklyn'"))
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		Candidates: cands,
		Screen:     core.Screen{WidthPx: 1024, Rows: 1, PxPerBar: 48, PxPerChar: 7},
		Model:      usermodel.DefaultModel(),
	}
	return &Session{DB: db, Instance: in, Correct: 0, SampleSeed: 7}
}

func TestGreedyDefaultPresent(t *testing.T) {
	s := session(t, 4000)
	tr, err := NewGreedyDefault().Present(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("events = %d, want 1", len(tr.Events))
	}
	if tr.Updates != 0 {
		t.Errorf("updates = %d", tr.Updates)
	}
	if tr.FTime == 0 || tr.FTime != tr.TTime {
		t.Errorf("default method: FTime %v should equal TTime %v", tr.FTime, tr.TTime)
	}
	if tr.InitialRelError != 0 {
		t.Errorf("exact method has rel error %v", tr.InitialRelError)
	}
	// All displayed bars carry values.
	for _, pl := range tr.Events[0].Multiplot.Plots() {
		for _, e := range pl.Entries {
			if e.Approximate {
				t.Error("exact method produced approximate bars")
			}
		}
	}
}

func TestIncPlotShowsCorrectEarly(t *testing.T) {
	s := session(t, 4000)
	tr, err := (IncPlot{}).Present(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 1 {
		t.Fatal("no events")
	}
	// Plots appear one at a time: event k has k plots (cumulative).
	for i, ev := range tr.Events {
		if got := ev.Multiplot.NumPlots(); got != i+1 {
			t.Errorf("event %d shows %d plots", i, got)
		}
	}
	// The most likely candidate (correct) is covered by the highest-mass
	// plot, so it must be visible in the very first event.
	if !visibleIn(tr.Events[0].Multiplot, s.Correct) {
		t.Error("correct result not in first incremental plot")
	}
	if tr.FTime > tr.TTime {
		t.Error("FTime after TTime")
	}
}

func TestApproxTwoPhases(t *testing.T) {
	s := session(t, 20000)
	tr, err := NewApprox(0.05).Present(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("events = %d, want 2 (approximate then exact)", len(tr.Events))
	}
	if !tr.Events[0].Approximate || tr.Events[1].Approximate {
		t.Error("phase marking wrong")
	}
	// All bars in the first event are flagged approximate.
	for _, pl := range tr.Events[0].Multiplot.Plots() {
		for _, e := range pl.Entries {
			if !math.IsNaN(e.Value) && !e.Approximate {
				t.Error("approximate phase produced exact bars")
			}
		}
	}
	// Error of initial viz is small but measured.
	if tr.InitialRelError < 0 || tr.InitialRelError > 0.5 {
		t.Errorf("initial rel error = %v", tr.InitialRelError)
	}
	if tr.Updates != 1 {
		t.Errorf("updates = %d, want 1", tr.Updates)
	}
}

func TestApproxDynamicPicksRate(t *testing.T) {
	s := session(t, 30000)
	a := NewApproxDynamic(200) // tiny budget -> small rate
	g := &core.GreedySolver{}
	m, _, err := g.Solve(s.Instance)
	if err != nil {
		t.Fatal(err)
	}
	rate := a.dynamicRate(s, m)
	if rate <= 0 || rate >= 1 {
		t.Errorf("dynamic rate = %v, want in (0,1)", rate)
	}
	// A huge budget keeps the run exact.
	big := NewApproxDynamic(1e12)
	if r := big.dynamicRate(s, m); r != 1 {
		t.Errorf("huge budget rate = %v, want 1", r)
	}
	tr, err := a.Present(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Errorf("App-D events = %d", len(tr.Events))
	}
}

func TestILPIncEmitsRefinements(t *testing.T) {
	s := session(t, 2000)
	tr, err := (ILPInc{Budget: 700 * time.Millisecond}).Present(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].At < tr.Events[i-1].At {
			t.Error("events out of order")
		}
	}
	if tr.TTime <= 0 {
		t.Error("TTime not measured")
	}
}

func TestStandardMethodsRoster(t *testing.T) {
	ms := StandardMethods()
	want := []string{"Greedy", "ILP", "ILP-Inc", "Inc-Plot", "App-1%", "App-5%", "App-D"}
	if len(ms) != len(want) {
		t.Fatalf("methods = %d", len(ms))
	}
	for i, m := range ms {
		if m.Name() != want[i] {
			t.Errorf("method %d = %q, want %q", i, m.Name(), want[i])
		}
	}
}

func TestTraceWithUnknownCorrect(t *testing.T) {
	s := session(t, 2000)
	s.Correct = -1
	tr, err := NewGreedyDefault().Present(s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.FTime != 0 {
		t.Errorf("FTime should stay 0 with unknown correct, got %v", tr.FTime)
	}
}

func TestRelError(t *testing.T) {
	mk := func(vals ...float64) core.Multiplot {
		var entries []core.Entry
		for i, v := range vals {
			entries = append(entries, core.Entry{Query: i, Value: v})
		}
		return core.Multiplot{Rows: [][]core.Plot{{{Entries: entries}}}}
	}
	// Exact match -> 0.
	if got := relError(mk(10, 20), mk(10, 20)); got != 0 {
		t.Errorf("relErr exact = %v", got)
	}
	// 10% and 20% off -> mean 15%.
	if got := relError(mk(11, 24), mk(10, 20)); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("relErr = %v, want 0.15", got)
	}
	// Bars absent from final are ignored; NaN ignored.
	if got := relError(mk(11, math.NaN()), mk(10, 20)); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("relErr with NaN = %v", got)
	}
	if got := relError(core.Multiplot{}, mk(10)); got != 0 {
		t.Errorf("empty first viz = %v", got)
	}
}

func TestApproxFasterFirstPaintOnLargeData(t *testing.T) {
	// The headline claim of Figure 9: on large data, approximation shows
	// something useful much sooner than exact processing finishes. Compare
	// the approximate first-paint to the exact method's total time on the
	// same data. One wall-time sample per side is at the mercy of
	// scheduler noise, so each side runs several times, alternating, with
	// a fresh sample seed per approximate run, and the minima compare.
	s := session(t, 400_000)
	const reps = 15
	var bestExact, bestFirstPaint time.Duration
	for i := 0; i < reps; i++ {
		run := &Session{DB: s.DB, Instance: s.Instance, Correct: s.Correct, SampleSeed: s.SampleSeed + uint64(i)}
		exact, err := NewGreedyDefault().Present(run)
		if err != nil {
			t.Fatal(err)
		}
		app, err := NewApprox(0.01).Present(run)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || exact.TTime < bestExact {
			bestExact = exact.TTime
		}
		if fp := app.Events[0].At; i == 0 || fp < bestFirstPaint {
			bestFirstPaint = fp
		}
	}
	if bestFirstPaint >= bestExact {
		t.Errorf("App-1%% best first paint %v not faster than best exact total %v over %d runs",
			bestFirstPaint, bestExact, reps)
	}
}

func TestSessionDeterminism(t *testing.T) {
	// Same seed -> same approximate values.
	s1 := session(t, 10000)
	s2 := session(t, 10000)
	tr1, err := NewApprox(0.05).Present(s1)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := NewApprox(0.05).Present(s2)
	if err != nil {
		t.Fatal(err)
	}
	p1 := tr1.Events[0].Multiplot.Plots()
	p2 := tr2.Events[0].Multiplot.Plots()
	if len(p1) != len(p2) {
		t.Fatal("plot count differs")
	}
	for i := range p1 {
		for j := range p1[i].Entries {
			a, b := p1[i].Entries[j].Value, p2[i].Entries[j].Value
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("approximate values differ: %v vs %v", a, b)
			}
		}
	}
}

func TestPresentErrorPropagation(t *testing.T) {
	// A session whose candidates reference a column the table lacks must
	// surface execution errors from every method, not panic or hang.
	tbl, err := workload.Build(workload.NYC311, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	in := &core.Instance{
		Candidates: []core.Candidate{
			{Query: sqldb.MustParse("SELECT sum(nope) FROM requests WHERE borough = 'Queens'"), Prob: 1},
		},
		Screen: core.Screen{WidthPx: 900, Rows: 1, PxPerBar: 48, PxPerChar: 7},
		Model:  usermodel.DefaultModel(),
	}
	sess := &Session{DB: db, Instance: in, Correct: 0}
	for _, m := range []Method{
		NewGreedyDefault(),
		IncPlot{},
		NewApprox(0.05),
		ILPInc{Budget: 100 * time.Millisecond},
	} {
		if _, err := m.Present(sess); err == nil {
			t.Errorf("%s: expected execution error", m.Name())
		}
	}
}

func TestILPDefaultMethod(t *testing.T) {
	s := session(t, 2000)
	tr, err := NewILPDefault(200 * time.Millisecond).Present(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Errorf("ILP default events = %d", len(tr.Events))
	}
	if tr.TTime <= 0 {
		t.Error("TTime missing")
	}
}

// countUpdateSpans partitions a trace's progressive.update spans into
// real updates and noop-final ones, checking required attrs on each.
func countUpdateSpans(t *testing.T, tr *obs.Trace) (real, noop int) {
	t.Helper()
	for _, sp := range tr.Spans() {
		if sp.Stage != "progressive.update" {
			continue
		}
		var hasUpdate, hasRate, isNoop bool
		for _, a := range sp.Attrs {
			switch a.Key {
			case "update":
				hasUpdate = true
			case "sample_rate":
				hasRate = true
			case "noop":
				isNoop = a.Int != 0
			}
		}
		if !hasUpdate || !hasRate {
			t.Errorf("update span missing attrs: %+v", sp.Attrs)
		}
		if isNoop {
			noop++
		} else {
			real++
		}
	}
	return real, noop
}

func TestUpdateSpansExactlyOncePerEvent(t *testing.T) {
	cases := []struct {
		name   string
		method Method
	}{
		{"IncPlot", IncPlot{}},
		{"Approx", NewApprox(0.05)},
		{"ILPInc", ILPInc{Budget: 500 * time.Millisecond}},
		{"Default", NewGreedyDefault()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := session(t, 4000)
			otr := obs.NewTrace("test")
			s.Ctx = obs.WithTrace(context.Background(), otr)
			tr, err := tc.method.Present(s)
			if err != nil {
				t.Fatal(err)
			}
			otr.Finish()
			real, noop := countUpdateSpans(t, otr)
			// Every visualization update the user sees has exactly one
			// child span; suppressed no-op final refinements are the only
			// extras and are flagged.
			if real != len(tr.Events) {
				t.Errorf("%d non-noop update spans for %d events", real, len(tr.Events))
			}
			if tc.name != "ILPInc" && noop != 0 {
				t.Errorf("%d noop spans outside ILPInc", noop)
			}
		})
	}
}
