package muve

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"muve/internal/resilience"
	"muve/internal/serve"
)

// degradedEngine builds an ILP System's engine whose exact rung always
// misses its deadline: the chaos spec sleeps 50ms in the solver and
// speak stages, which every rung passes through, and the exact rung
// gets 20ms. The greedy rung answers when fallbackGrace outlasts the
// sleep; with a shorter grace it misses too and the minimal rung
// answers.
func degradedEngine(t *testing.T, fallbackGrace time.Duration) *serve.Engine {
	t.Helper()
	sys, err := New(demoDB(t), "requests", WithSolver(SolverILP), WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := resilience.ParseChaos("solver:lat=50ms;speak:lat=50ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine(serve.Config{
		Timeout:       20 * time.Millisecond,
		FallbackGrace: fallbackGrace,
		MinimalGrace:  5 * time.Second,
		Chaos:         ch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// scanPasses reads muve_scan_total{stat="passes"} off the engine's
// Prometheus exposition.
func scanPasses(t *testing.T, e *serve.Engine) uint64 {
	t.Helper()
	var b bytes.Buffer
	e.Metrics().WriteProm(&b)
	const series = `muve_scan_total{stat="passes"} `
	for _, ln := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(ln, series); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", ln, err)
			}
			return n
		}
	}
	return 0
}

// degradedRungs is each lower planning rung with the fallback grace
// that makes it the one to answer.
var degradedRungs = []struct {
	source serve.Source
	grace  time.Duration
}{
	{serve.SourceFallback, 5 * time.Second},
	{serve.SourceMinimal, 20 * time.Millisecond},
}

// TestNewEngineRecordsScanOfDegradedAnswers: a greedy or minimal
// answer's shared scans reach muve_scan_total like an exact answer's.
// The failed exact rung scans nothing (its solver stage never ran), so
// the counter grows only if the rung that answered recorded its scan.
func TestNewEngineRecordsScanOfDegradedAnswers(t *testing.T) {
	for _, rung := range degradedRungs {
		e := degradedEngine(t, rung.grace)
		for _, mode := range []string{"", serve.ModeVoice} {
			before := scanPasses(t, e)
			resp, err := e.Do(context.Background(), serve.Request{
				Transcript: "how many noise complaints in brooklyn",
				Mode:       mode,
				Refresh:    true,
			})
			if err != nil {
				t.Fatalf("%s rung, mode %q: %v", rung.source, mode, err)
			}
			if resp.Source != rung.source {
				t.Fatalf("mode %q answered from %s, want %s", mode, resp.Source, rung.source)
			}
			if after := scanPasses(t, e); after <= before {
				t.Errorf("%s answer, mode %q: muve_scan_total{stat=\"passes\"} %d -> %d, want growth",
					rung.source, mode, before, after)
			}
		}
	}
}

// TestNewEngineLowerRungsKeepModality: the greedy and minimal rungs
// answer a voice request with a spoken answer and a plot request with
// a multiplot, like the exact rung.
func TestNewEngineLowerRungsKeepModality(t *testing.T) {
	for _, rung := range degradedRungs {
		e := degradedEngine(t, rung.grace)
		for _, mode := range []string{"", serve.ModeVoice} {
			resp, err := e.Do(context.Background(), serve.Request{
				Transcript: "average response hours in queens",
				Mode:       mode,
			})
			if err != nil {
				t.Fatalf("%s rung, mode %q: %v", rung.source, mode, err)
			}
			if resp.Source != rung.source {
				t.Fatalf("mode %q answered from %s, want %s", mode, resp.Source, rung.source)
			}
			ans := resp.Value.(*Answer)
			if mode == serve.ModeVoice {
				if ans.Voice == nil || ans.Voice.Transcript == "" {
					t.Errorf("%s rung answered a voice request without a spoken answer", rung.source)
				}
				continue
			}
			if ans.Voice != nil || ans.Multiplot.NumPlots() == 0 {
				t.Errorf("%s rung answered a plot request with voice=%v and %d plots",
					rung.source, ans.Voice != nil, ans.Multiplot.NumPlots())
			}
		}
	}
}

// TestNewEngineFillsIdentityFromSystem: the cache-key identity comes
// from the System, whatever the caller put in the config.
func TestNewEngineFillsIdentityFromSystem(t *testing.T) {
	sys, err := New(demoDB(t), "requests", WithSolver(SolverILPIncremental), WithWidth(640))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.NewEngine(serve.Config{Dataset: "other", Solver: "greedy", WidthPx: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	key := e.KeyFor(serve.Request{Transcript: "q"})
	if !strings.HasSuffix(key, "\x00requests\x00ilp-inc\x00640") {
		t.Errorf("cache key %q not qualified by the System's table, solver and width", key)
	}
}
