package muve

import (
	"context"
	"runtime"
	"testing"
	"time"

	"muve/internal/obs"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// TestAskContextTraceStages drives one traced AskContext through the
// ILP-backed pipeline and asserts every stage recorded exactly one
// span, with the solver span carrying its internal search counters.
func TestAskContextTraceStages(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests",
		WithSolver(SolverILP),
		WithILPTimeout(2*time.Second),
		WithMaxCandidates(8),
		WithWidth(600))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("ask")
	tr.ID = "test-1"
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := sys.AskContext(ctx, "how many noise complaints in brooklin"); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	byStage := map[string]int{}
	var solver obs.Span
	for _, sp := range tr.Spans() {
		byStage[sp.Stage]++
		if sp.Stage == "solver" {
			solver = sp
		}
	}
	for _, stage := range []string{"speech", "phonetic", "nlq", "solver", "progressive", "viz"} {
		if byStage[stage] != 1 {
			t.Errorf("stage %q recorded %d spans, want exactly 1 (all: %v)", stage, byStage[stage], byStage)
		}
	}

	// The ILP solver span must expose its internal search effort.
	attrs := map[string]any{}
	for _, a := range solver.Attrs {
		attrs[a.Key] = a.Value()
	}
	for _, key := range []string{"bb_nodes", "lp_solves", "simplex_iters", "incumbents"} {
		v, ok := attrs[key].(int64)
		if !ok || v < 1 {
			t.Errorf("solver attr %q = %v, want >= 1", key, attrs[key])
		}
	}
	if attrs["solver"] != "ILP" {
		t.Errorf("solver attr = %v, want ILP", attrs["solver"])
	}
}

// TestAskContextUntraced exercises the nil fast path: no trace in the
// context must still answer correctly.
func TestAskContextUntraced(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := sys.AskContext(context.Background(), "how many noise complaints in brooklin")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Multiplot.Rows) == 0 {
		t.Fatal("empty multiplot")
	}
}

// TestAskTraceScanWorkers: the scan span says how many goroutines ran
// the shared scan: more than one for a table above the parallel cutoff
// when two CPUs are free, and one for a table below it.
func TestAskTraceScanWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range []struct {
		rows int
		wide bool
	}{{5000, false}, {70_000, true}} {
		tbl, err := workload.Build(workload.NYC311, tc.rows, 77)
		if err != nil {
			t.Fatal(err)
		}
		db := sqldb.NewDB()
		db.Register(tbl)
		sys, err := New(db, "requests", WithWidth(1024))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("ask")
		if _, err := sys.AskContext(obs.WithTrace(context.Background(), tr), "how many noise complaints in brooklin"); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		scans := 0
		for _, sp := range tr.Spans() {
			if sp.Stage != "scan" {
				continue
			}
			scans++
			var workers int64
			for _, a := range sp.Attrs {
				if a.Key == "workers" {
					workers, _ = a.Value().(int64)
				}
			}
			if tc.wide && workers < 2 || !tc.wide && workers != 1 {
				t.Errorf("%d rows: scan span workers = %d, want %s", tc.rows, workers, map[bool]string{true: "> 1", false: "1"}[tc.wide])
			}
		}
		if scans == 0 {
			t.Errorf("%d rows: no scan span", tc.rows)
		}
	}
}
