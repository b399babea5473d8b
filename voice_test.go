package muve

import (
	"context"
	"runtime"
	"testing"

	"muve/internal/core"
	"muve/internal/obs"
)

func TestAskVoiceEndToEnd(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithAnswerMode(ModeVoice), WithSolver(SolverILP))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.Ask("how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mode != ModeVoice {
		t.Errorf("mode %v, want voice", ans.Mode)
	}
	if ans.Voice == nil {
		t.Fatal("voice answer missing")
	}
	if ans.Voice.Transcript == "" || len(ans.Voice.Facts.Facts) == 0 {
		t.Fatalf("empty voice answer: %+v", ans.Voice)
	}
	if ans.Multiplot.NumPlots() != 0 {
		t.Error("voice answer carries a multiplot")
	}
	if ans.Headline == "" {
		t.Error("voice answer lost the headline")
	}
}

func TestAskVoiceWarmStartAcrossUtterances(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithSolver(SolverILP))
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.AskVoice("how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.WarmStart != "" {
		t.Errorf("first utterance warm start %q, want cold", first.Stats.WarmStart)
	}
	second, err := sys.AskVoiceContext(context.Background(),
		"how many noise complaints in brooklyn", &first.Voice.Facts)
	if err != nil {
		t.Fatal(err)
	}
	switch second.Stats.WarmStart {
	case core.WarmHit, core.WarmPartial, core.WarmNone:
	default:
		t.Errorf("second utterance warm start %q, want classified", second.Stats.WarmStart)
	}
}

func TestAskVoiceGreedySolver(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithSpeakWords(20))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.AskVoice("how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if w, _, _, _ := ans.Voice.Facts.Totals(); w > 20 {
		t.Errorf("voice answer estimates %d words over the 20-word budget", w)
	}
}

// TestAskVoiceReportsScan checks that a voice answer's values come from
// one shared table pass that is traced as a "scan" span and reported in
// Stats.Scan, like a plot answer's.
func TestAskVoiceReportsScan(t *testing.T) {
	db := demoDB(t)
	tbl, err := db.Table("requests")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(db, "requests")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("ask")
	ans, err := sys.AskVoiceContext(obs.WithTrace(context.Background(), tr),
		"how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	covered := map[int]bool{}
	for _, f := range ans.Voice.Facts.Facts {
		for _, qi := range f.Covers {
			covered[qi] = true
		}
	}
	if len(covered) == 0 {
		t.Fatal("voice answer covers no candidate")
	}
	st := ans.Stats.Scan
	if st.Scans != 1 || st.Rows != int64(tbl.NumRows()) || st.Candidates != int64(len(covered)) {
		t.Errorf("Stats.Scan = %+v, want 1 scan over %d rows answering %d candidates",
			st, tbl.NumRows(), len(covered))
	}
	if ans.Voice.Scan != st {
		t.Errorf("Voice.Scan %+v differs from Stats.Scan %+v", ans.Voice.Scan, st)
	}

	var scans []obs.Span
	for _, sp := range tr.Spans() {
		if sp.Stage == "scan" {
			scans = append(scans, sp)
		}
	}
	if len(scans) != 1 {
		t.Fatalf("voice answer recorded %d scan spans, want 1", len(scans))
	}
	attrs := map[string]any{}
	for _, a := range scans[0].Attrs {
		attrs[a.Key] = a.Value()
	}
	for key, want := range map[string]any{
		"scans":       int64(1),
		"rows":        int64(tbl.NumRows()),
		"candidates":  int64(len(covered)),
		"sample_rate": 1.0,
	} {
		if attrs[key] != want {
			t.Errorf("scan span attr %q = %v, want %v", key, attrs[key], want)
		}
	}
}

func TestParseAnswerMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AnswerMode
		err  bool
	}{
		{"", ModePlot, false},
		{"plot", ModePlot, false},
		{"voice", ModeVoice, false},
		{"hologram", ModePlot, true},
	} {
		got, err := ParseAnswerMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseAnswerMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestAskVoiceContextForwardsSolverWorkers checks that AskVoiceContext
// forwards the exact fact-set planner's branch-and-bound worker count to
// the speak span: exactly one worker when GOMAXPROCS is 1, and never more
// than GOMAXPROCS otherwise.
func TestAskVoiceContextForwardsSolverWorkers(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithSolver(SolverILP), WithMaxCandidates(8))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		tr := obs.NewTrace("ask")
		ctx := obs.WithTrace(context.Background(), tr)
		if _, err := sys.AskVoiceContext(ctx, "how many noise complaints in brooklin"); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		checkSpanWorkers(t, tr, "speak", procs)
	}
}
