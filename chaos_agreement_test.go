package muve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"muve/internal/progressive"
	"muve/internal/resilience"
	"muve/internal/serve"
	"muve/internal/sqldb"
)

// plotFingerprint flattens an answer's multiplot into (label, exact
// float bits) pairs, so two answers can be compared bit-identically —
// Float64bits, not an epsilon — across execution strategies.
func plotFingerprint(ans *Answer) []string {
	var fp []string
	for _, pl := range ans.Multiplot.Plots() {
		for _, e := range pl.Entries {
			fp = append(fp, fmt.Sprintf("%s|%s|%016x", pl.Template.Title, e.Label, math.Float64bits(e.Value)))
		}
	}
	return fp
}

// seriesFingerprint flattens a trend answer's series the same way:
// (label, X bits, Y bits) triples, demanding bit-identical grouped
// aggregates AND identical group order across execution strategies.
func seriesFingerprint(ans *TrendAnswer) []string {
	var fp []string
	for _, p := range ans.Series.Points {
		fp = append(fp, fmt.Sprintf("%s|%016x|%016x", p.Label, math.Float64bits(p.X), math.Float64bits(p.Y)))
	}
	return fp
}

// TestSharedScanAgreesUnderChaos is the end-to-end agreement half of
// the shared-scan property suite: with fault injection hammering the
// solver stage (latency + errors), every Ask that *succeeds* must carry
// exactly the plot values of a chaos-free run — the shared-scan
// executor and the degradation ladder may change when and how an answer
// is computed, never what it contains.
func TestSharedScanAgreesUnderChaos(t *testing.T) {
	db := demoDB(t)
	sys, err := New(db, "requests", WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"how many noise complaints in brooklin",
		"how many complaints in queens",
		"how many noise complaints",
	}
	// Grouped candidates ride the same shared scans as the multiplot
	// queries; trends exercise them end to end. Keyed by the transcript
	// the chaos planner dispatches on.
	trends := map[string]sqldb.Query{
		"trend: response hours by borough": sqldb.MustParse(
			"SELECT avg(response_hours) FROM requests GROUP BY borough"),
		"trend: complaints by year": sqldb.MustParse(
			"SELECT count(*) FROM requests GROUP BY year"),
	}

	// Chaos-free baseline, one fingerprint per query.
	want := make(map[string][]string, len(queries)+len(trends))
	for _, q := range queries {
		ans, err := sys.Ask(q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		want[q] = plotFingerprint(ans)
		if len(want[q]) == 0 {
			t.Fatalf("baseline %q produced no bars", q)
		}
	}
	for name, tq := range trends {
		ans, err := sys.Trend(tq)
		if err != nil {
			t.Fatalf("baseline %q: %v", name, err)
		}
		want[name] = seriesFingerprint(ans)
		if len(want[name]) == 0 {
			t.Fatalf("baseline %q produced no points", name)
		}
		queries = append(queries, name)
	}

	chaos := resilience.NewChaos(7)
	chaos.Set("solver", resilience.Fault{Latency: 5 * time.Millisecond, LatencyP: 0.3, ErrorP: 0.3})
	e, err := serve.NewEngine(serve.Config{
		Planner: func(ctx context.Context, req serve.Request, sess *serve.Session) (any, error) {
			if err := resilience.Inject(ctx, "solver"); err != nil {
				return nil, err
			}
			if tq, ok := trends[req.Transcript]; ok {
				return sys.Trend(tq)
			}
			return sys.AskContext(ctx, req.Transcript)
		},
		Chaos:   chaos,
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	successes, failures := 0, 0
	for i := 0; i < 45; i++ {
		q := queries[i%len(queries)]
		r, err := e.Do(context.Background(), serve.Request{Transcript: q})
		if err != nil {
			failures++
			continue
		}
		successes++
		var got []string
		switch ans := r.Value.(type) {
		case *Answer:
			got = plotFingerprint(ans)
		case *TrendAnswer:
			got = seriesFingerprint(ans)
		default:
			t.Fatalf("answer type %T", r.Value)
		}
		if len(got) != len(want[q]) {
			t.Fatalf("chaos run %d (%q, source %s): %d bars, want %d", i, q, r.Source, len(got), len(want[q]))
		}
		for j := range got {
			if got[j] != want[q][j] {
				t.Fatalf("chaos run %d (%q, source %s): bar %d = %s, want %s", i, q, r.Source, j, got[j], want[q][j])
			}
		}
	}
	if successes == 0 {
		t.Fatal("no ask survived chaos — agreement was never exercised")
	}
	t.Logf("chaos agreement: %d successes (all bit-identical), %d injected failures", successes, failures)
}

// TestSolverChaosReachesEverySolver: a "solver" fault spec that always
// fails must fail every planner the same way — each solver kind and
// each progressive presentation — so the degradation ladder sees an
// injected solver fault whichever planner the server runs.
func TestSolverChaosReachesEverySolver(t *testing.T) {
	db := demoDB(t)
	ch, err := resilience.ParseChaos("solver:err=1", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := resilience.WithChaos(context.Background(), ch)
	systems := map[string]*System{}
	for _, k := range []SolverKind{SolverGreedy, SolverILP, SolverILPIncremental} {
		sys, err := New(db, "requests", WithSolver(k), WithILPTimeout(100*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		systems["solver "+k.String()] = sys
	}
	for _, m := range progressive.StandardMethods() {
		sys, err := New(db, "requests", WithPresentation(m))
		if err != nil {
			t.Fatal(err)
		}
		systems["presentation "+m.Name()] = sys
	}
	for name, sys := range systems {
		if _, err := sys.AskContext(ctx, "how many noise complaints in brooklin"); !errors.Is(err, resilience.ErrInjected) {
			t.Errorf("%s: err = %v, want resilience.ErrInjected", name, err)
		}
	}
}
