package serve

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"muve/internal/obs"
)

func TestWithTracingRecordsTrace(t *testing.T) {
	ring := obs.NewRing(4)
	m := &Metrics{}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := obs.StartSpan(r.Context(), "solver")
		sp.SetInt("bb_nodes", 3)
		sp.End()
		fmt.Fprint(w, "ok")
	})
	// Logging outside tracing, as muveserver wires it: the request ID
	// must flow into the trace ID.
	h := WithLogging(log.New(io.Discard, "", 0), WithTracing(ring, m, inner))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ask?q=x", nil))

	if ring.Len() != 1 {
		t.Fatalf("ring len = %d, want 1", ring.Len())
	}
	tr := ring.Snapshot()[0]
	if tr.Name != "/ask" {
		t.Errorf("trace name = %q", tr.Name)
	}
	if tr.ID == "" || tr.ID != rec.Header().Get("X-Request-Id") {
		t.Errorf("trace ID = %q, want request ID %q", tr.ID, rec.Header().Get("X-Request-Id"))
	}
	if tr.Len() != 1 || tr.Spans()[0].Stage != "solver" {
		t.Errorf("spans = %+v", tr.Spans())
	}
	// The span duration must have landed in the per-stage histogram.
	if got := m.Stages.With("solver").Count(); got != 1 {
		t.Errorf("solver stage observations = %d, want 1", got)
	}
}

func TestWithTracingNilRingDisabled(t *testing.T) {
	var sawTrace bool
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawTrace = obs.FromContext(r.Context()) != nil
	})
	h := WithTracing(nil, nil, inner)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if sawTrace {
		t.Error("nil ring must not attach a trace")
	}
}

func TestEngineFallbackBlamesStage(t *testing.T) {
	m := &Metrics{}
	eng, err := NewEngine(Config{
		Metrics: m,
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			// Simulate an ILP solve that ran out of time mid-stage.
			sp := obs.StartSpan(ctx, "solver")
			sp.End()
			return nil, fmt.Errorf("solve: %w", context.DeadlineExceeded)
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "greedy-answer", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace("/ask")
	ctx := obs.WithTrace(context.Background(), tr)
	resp, err := eng.Do(ctx, Request{Transcript: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceFallback || resp.Value != "greedy-answer" {
		t.Fatalf("resp = %+v", resp)
	}
	if n := m.Fallbacks.With("solver").Value(); n != 1 {
		t.Errorf("fallbacks = %d", n)
	}

	// The trace carries the fallback marker with the blamed stage.
	var mark *obs.Span
	for _, sp := range tr.Spans() {
		if sp.Stage == "fallback" {
			sp := sp
			mark = &sp
		}
	}
	if mark == nil {
		t.Fatal("no fallback span recorded on the trace")
	}
	if len(mark.Attrs) != 1 || mark.Attrs[0].String() != "blamed_stage=solver" {
		t.Errorf("fallback attrs = %v", mark.Attrs)
	}

	// /metrics exposes the labeled counter and per-stage histograms —
	// but the zero-duration fallback marker must not become a bogus
	// latency series.
	tr.Finish()
	m.ObserveTrace(tr)
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `muve_fallbacks_total{stage="solver"} 1`) {
		t.Errorf("missing labeled fallback counter in:\n%s", body)
	}
	if strings.Contains(body, `muve_stage_seconds_count{stage="fallback"}`) {
		t.Errorf("fallback marker leaked into stage histograms:\n%s", body)
	}
}

func TestEngineFallbackWithoutTraceBlamesUnknown(t *testing.T) {
	m := &Metrics{}
	eng, err := NewEngine(Config{
		Metrics: m,
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return nil, context.DeadlineExceeded
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "v", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Do(context.Background(), Request{Transcript: "q"}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `muve_fallbacks_total{stage="unknown"} 1`) {
		t.Errorf("missing unknown-stage fallback counter in:\n%s", rec.Body.String())
	}
}

func TestMetricsStageHistogramExposition(t *testing.T) {
	m := &Metrics{}
	m.Stages.With("nlq").Observe(150 * time.Microsecond)
	m.Stages.With("solver").Observe(5 * time.Millisecond)
	m.Stages.With("solver").Observe(7 * time.Millisecond)

	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE muve_stage_seconds histogram",
		`muve_stage_seconds_bucket{stage="nlq",le="0.0002"} 1`,
		`muve_stage_seconds_bucket{stage="solver",le="+Inf"} 2`,
		`muve_stage_seconds_count{stage="nlq"} 1`,
		`muve_stage_seconds_count{stage="solver"} 2`,
		`muve_stage_seconds_sum{stage="solver"} 0.012`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
	// Stage series must come out in sorted label order for stable scrapes.
	if strings.Index(body, `stage="nlq"`) > strings.Index(body, `stage="solver"`) {
		t.Error("stage series not sorted")
	}
}

func TestStageHistogramExemplars(t *testing.T) {
	m := &Metrics{}
	tr := obs.NewTrace("/ask")
	tr.ID = "deadbeef-0001"
	tr.RecordSpan("solver", 0, 5*time.Millisecond)
	tr.Finish()
	m.ObserveTrace(tr)

	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	// The bucket the 5ms observation landed in carries the trace ID as
	// an OpenMetrics exemplar; cumulative buckets above it do not.
	want := `muve_stage_seconds_bucket{stage="solver",le="0.0064"} 1 # {trace_id="deadbeef-0001"} 0.005`
	if !strings.Contains(body, want) {
		t.Errorf("missing exemplar %q in:\n%s", want, body)
	}
	if strings.Contains(body, `le="+Inf"} 1 # {`) {
		t.Errorf("exemplar leaked into the +Inf bucket:\n%s", body)
	}
	// Traces without an ID must not produce empty exemplars.
	m2 := &Metrics{}
	anon := obs.NewTrace("/ask")
	anon.RecordSpan("solver", 0, 5*time.Millisecond)
	anon.Finish()
	m2.ObserveTrace(anon)
	rec2 := httptest.NewRecorder()
	m2.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec2.Body.String(), "# {trace_id=") {
		t.Errorf("ID-less trace produced an exemplar:\n%s", rec2.Body.String())
	}
}

func TestWithSampledTracingGatesOnlyRing(t *testing.T) {
	ring := obs.NewRing(8)
	m := &Metrics{}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := obs.StartSpan(r.Context(), "solver")
		sp.End()
	})
	h := WithSampledTracing(ring, obs.NewSampler(0.5, 0), m, inner)
	for i := 0; i < 4; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ask", nil))
	}
	// Half the traces land in the debug ring...
	if ring.Len() != 2 {
		t.Errorf("ring holds %d traces at rate 0.5 over 4 requests, want 2", ring.Len())
	}
	// ...but the latency histograms see every request: sampling gates
	// retention, not measurement.
	if got := m.Stages.With("solver").Count(); got != 4 {
		t.Errorf("solver stage observations = %d, want 4", got)
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	var h Histogram
	// 90 observations of 150µs land in the (100µs, 200µs] bucket; the
	// p50 must interpolate inside the bucket, not clamp to 200µs.
	for i := 0; i < 90; i++ {
		h.Observe(150 * time.Microsecond)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 100*time.Microsecond || p50 >= 200*time.Microsecond {
		t.Errorf("p50 = %v, want interior of (100µs, 200µs)", p50)
	}
	// A single observation in the first bucket interpolates from 0.
	var h2 Histogram
	h2.Observe(50 * time.Microsecond)
	if q := h2.Quantile(0.5); q <= 0 || q >= 100*time.Microsecond {
		t.Errorf("first-bucket p50 = %v, want interior of (0, 100µs)", q)
	}
	// An overflow observation interpolates into the assumed extra
	// doubling rather than returning a fixed cap.
	var h3 Histogram
	h3.Observe(time.Hour)
	last := histBuckets[len(histBuckets)-1]
	if q := h3.Quantile(0.5); q <= last || q > 2*last {
		t.Errorf("overflow p50 = %v, want within (%v, %v]", q, last, 2*last)
	}
}

func TestWithSampledTracingObserversSeeEveryTrace(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := obs.StartSpan(r.Context(), "solver")
		sp.End()
	})
	var seen int
	// Sampler keeps nothing, yet the SLO-style observer is fed every
	// finished trace: sampling gates ring retention, not evaluation.
	ring := obs.NewRing(8)
	h := WithSampledTracing(ring, obs.NewSampler(0, 0), nil, inner, func(tr *obs.Trace) {
		if tr.Len() != 1 {
			t.Errorf("observer trace has %d spans, want 1", tr.Len())
		}
		seen++
	})
	for i := 0; i < 5; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ask", nil))
	}
	if seen != 5 {
		t.Errorf("observer saw %d traces, want 5", seen)
	}
	if ring.Len() != 0 {
		t.Errorf("ring holds %d traces at rate 0, want 0", ring.Len())
	}

	// With no ring at all, observers alone still force the middleware on.
	seen = 0
	h = WithSampledTracing(nil, nil, nil, inner, func(*obs.Trace) { seen++ })
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ask", nil))
	if seen != 1 {
		t.Errorf("ring-less observer saw %d traces, want 1", seen)
	}
}

// TestHedgeDelayTracksServiceTime: the hedge fires at the windowed p90
// of planning time — a quarter of the exact budget while the window
// holds fewer than 8 observations — clamped to [5ms, Timeout/2].
func TestHedgeDelayTracksServiceTime(t *testing.T) {
	var calls atomic.Int64
	e, err := NewEngine(Config{Planner: countingPlanner(&calls, 0), Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 7; i++ {
		e.svcTime.Observe(30 * time.Second)
	}
	if d := e.hedgeDelay(); d != time.Second/4 {
		t.Errorf("thin-window delay = %v, want Timeout/4 = 250ms", d)
	}
	e.svcTime.Observe(30 * time.Second)
	if d := e.hedgeDelay(); d != time.Second/2 {
		t.Errorf("slow-planner delay = %v, want clamped to Timeout/2 = 500ms", d)
	}
	for i := 0; i < 1000; i++ {
		e.svcTime.Observe(time.Microsecond)
	}
	if d := e.hedgeDelay(); d != 5*time.Millisecond {
		t.Errorf("fast-planner delay = %v, want clamped to 5ms", d)
	}
}
