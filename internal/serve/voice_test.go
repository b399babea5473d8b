package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"muve/internal/obs"
	"muve/internal/resilience"
)

// voiceEngine builds an engine whose planners mimic the voice answer
// path: the exact rung runs the fact-set ILP under the "speak" stage
// (and so sees chaos injected there), the greedy rung picks facts
// without the solver, and the minimal rung speaks a single headline
// fact. All rungs are mode-aware, as muveserver's planners are.
func voiceEngine(t *testing.T, chaos *resilience.Chaos, greedyFails bool) *Engine {
	t.Helper()
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if err := resilience.Inject(ctx, "speak"); err != nil {
				return nil, err
			}
			return "exact:" + req.Mode, nil
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if greedyFails {
				return nil, fmt.Errorf("greedy: %w", context.DeadlineExceeded)
			}
			return "greedy:" + req.Mode, nil
		},
		Minimal: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "headline:" + req.Mode, nil
		},
		Chaos:    chaos,
		CacheTTL: time.Minute,
		StaleFor: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestVoiceModeKeysCacheSeparately(t *testing.T) {
	e := voiceEngine(t, nil, false)
	plot, err := e.Do(context.Background(), Request{Transcript: "q"})
	if err != nil {
		t.Fatal(err)
	}
	voice, err := e.Do(context.Background(), Request{Transcript: "q", Mode: ModeVoice})
	if err != nil {
		t.Fatal(err)
	}
	if plot.Source != SourcePlanned || voice.Source != SourcePlanned {
		t.Fatalf("modes shared a cache entry: plot=%+v voice=%+v", plot, voice)
	}
	if plot.Key == voice.Key {
		t.Errorf("plot and voice normalized to the same key %q", plot.Key)
	}
	if voice.Value != "exact:voice" {
		t.Errorf("voice value = %v", voice.Value)
	}
	again, err := e.Do(context.Background(), Request{Transcript: "Q  ", Mode: ModeVoice})
	if err != nil || again.Source != SourceCache || again.Value != "exact:voice" {
		t.Fatalf("repeat voice request = %+v err=%v", again, err)
	}
	if got := e.Metrics().Speak[SpeakRequests].Value(); got != 2 {
		t.Errorf("speak requests = %d, want 2", got)
	}
}

// TestVoiceLadderRungsUnderChaos proves each of the four voice rungs
// is reachable, walking the same engine through progressively worse
// injected faults: healthy → exact; speak-stage fault → greedy facts;
// greedy also failing → stale cached answer; no stale entry → single
// headline fact.
func TestVoiceLadderRungsUnderChaos(t *testing.T) {
	chaos := resilience.NewChaos(1)

	t.Run("exact", func(t *testing.T) {
		e := voiceEngine(t, chaos, false)
		r, err := e.Do(context.Background(), Request{Transcript: "q", Mode: ModeVoice})
		if err != nil || r.Source != SourcePlanned || r.Value != "exact:voice" {
			t.Fatalf("response = %+v err=%v", r, err)
		}
	})

	chaos.Set("speak", resilience.Fault{ErrorP: 1})

	t.Run("greedy", func(t *testing.T) {
		e := voiceEngine(t, chaos, false)
		r, err := e.Do(context.Background(), Request{Transcript: "q", Mode: ModeVoice})
		if err != nil || r.Source != SourceFallback || r.Value != "greedy:voice" {
			t.Fatalf("response = %+v err=%v", r, err)
		}
	})

	t.Run("stale", func(t *testing.T) {
		e := voiceEngine(t, chaos, true)
		req := Request{Transcript: "q", Mode: ModeVoice}
		// Seed the mode-keyed cache as a healthy earlier request would
		// have, then expire the entry into the stale window.
		base := time.Now()
		e.cache.Put(e.KeyFor(req), "stale:voice")
		e.cache.now = func() time.Time { return base.Add(2 * time.Minute) }
		r, err := e.Do(context.Background(), req)
		if err != nil || r.Source != SourceStale || r.Value != "stale:voice" {
			t.Fatalf("response = %+v err=%v", r, err)
		}
	})

	t.Run("minimal", func(t *testing.T) {
		e := voiceEngine(t, chaos, true)
		r, err := e.Do(context.Background(), Request{Transcript: "q", Mode: ModeVoice})
		if err != nil || r.Source != SourceMinimal || r.Value != "headline:voice" {
			t.Fatalf("response = %+v err=%v", r, err)
		}
	})
}

func TestVoiceRungMetricsExposed(t *testing.T) {
	chaos := resilience.NewChaos(1)
	chaos.Set("speak", resilience.Fault{ErrorP: 1})
	e := voiceEngine(t, chaos, false)
	if _, err := e.Do(context.Background(), Request{Transcript: "q", Mode: ModeVoice}); err != nil {
		t.Fatal(err)
	}
	// A plot-mode request must not count in the speak families.
	if _, err := e.Do(context.Background(), Request{Transcript: "p"}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	e.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		`muve_speak_total{stat="requests"} 1`,
		`muve_ladder_rung_total{mode="voice",rung="greedy"} 1`,
		`muve_ladder_rung_total{mode="plot",rung="greedy"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// TestSharedStageTripKeepsGreedyRung is the one breaker's contract:
// a streak blamed on a stage every planning rung shares (here "nlq")
// trips the breaker, which skips only the exact rung — greedy still
// serves, and the fallbacks stay labeled with the blamed stage.
func TestSharedStageTripKeepsGreedyRung(t *testing.T) {
	exactCalled := 0
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			exactCalled++
			// Fail inside the shared nlq stage so the failure is blamed on it.
			sp := obs.StartSpan(ctx, "nlq")
			err := fmt.Errorf("nlq: %w", context.DeadlineExceeded)
			sp.SetErr(err)
			sp.End()
			return nil, err
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "greedy", nil
		},
		Minimal: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "minimal", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ask := func(q string) *Response {
		t.Helper()
		r, err := e.Do(obs.WithTrace(context.Background(), obs.NewTrace("t")), Request{Transcript: q})
		if err != nil || r.Source != SourceFallback {
			t.Fatalf("%s = %+v err=%v, want a greedy answer", q, r, err)
		}
		return r
	}
	// Three nlq-blamed failures trip the breaker (default threshold 3).
	for i := 0; i < 3; i++ {
		ask(fmt.Sprintf("q%d", i))
	}
	if got := resilience.BreakerState(e.Metrics().BreakerState.Value()); got != resilience.Open {
		t.Fatalf("breaker = %v after 3 nlq-blamed failures, want open", got)
	}
	calledBefore := exactCalled
	ask("q-after-trip")
	if exactCalled != calledBefore {
		t.Errorf("exact rung ran %d extra time(s) with the breaker open", exactCalled-calledBefore)
	}
	if got := e.Metrics().Fallbacks.With("nlq").Value(); got != 3 {
		t.Errorf(`muve_fallbacks_total{stage="nlq"} = %d, want 3`, got)
	}
}
