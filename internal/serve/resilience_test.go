package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muve/internal/resilience"
)

// TestEngineQueuedRequestExpiresWith504: a lane has no depth bound, so
// a request queued behind a busy slot waits until its own planning
// budget runs out and then answers 504. It leaves the queue and records
// no sojourn of its own: only the slot holder's grant is observed.
func TestEngineQueuedRequestExpiresWith504(t *testing.T) {
	started, hold := make(chan struct{}), make(chan struct{})
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if req.Transcript == "holder" {
				close(started)
				<-hold // keeps the only slot past any budget
			}
			return "ok", nil
		},
		MaxInFlight: 1,
		Timeout:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	held := make(chan struct{})
	go func() {
		defer close(held)
		e.Do(context.Background(), Request{Transcript: "holder"})
	}()
	<-started

	_, err = e.Do(context.Background(), Request{Transcript: "queued"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := StatusOf(err); got != http.StatusGatewayTimeout {
		t.Errorf("StatusOf = %d, want 504", got)
	}
	m := e.Metrics()
	if got := m.Timeouts.Value(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	if got := m.QueueDepth[resilience.Interactive].Value(); got != 0 {
		t.Errorf("queue gauge after expiry = %d, want 0", got)
	}
	if got := m.Sojourn[resilience.Interactive].Count(); got != 1 {
		t.Errorf("sojourns observed = %d, want 1 (the holder's grant)", got)
	}
	close(hold)
	<-held
}

func TestEngineQueueGaugeLiveWithoutWatermark(t *testing.T) {
	// Lanes have no depth bound: the depth gauge reports the backlog.
	gate := make(chan struct{})
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			<-gate
			return "ok", nil
		},
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Do(context.Background(), Request{Transcript: fmt.Sprintf("g%d", i)}); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().QueueDepth[resilience.Interactive].Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue gauge stuck at %d, want 2", e.Metrics().QueueDepth[resilience.Interactive].Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if e.Metrics().QueueDepth[resilience.Interactive].Value() != 0 {
		t.Errorf("gauge after drain = %d", e.Metrics().QueueDepth[resilience.Interactive].Value())
	}
}

// TestEngineSetupReportsDerivedValues: the startup summary shows what
// the engine resolved, not the raw options — the ladder lists only the
// rungs its planners and stale window enable, in descent order, and
// the hedge's token count is derived from MaxInFlight.
func TestEngineSetupReportsDerivedValues(t *testing.T) {
	noop := func(ctx context.Context, req Request, sess *Session) (any, error) { return "ok", nil }
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{
			Config{Planner: noop, Fallback: noop, Minimal: noop, Hedge: true, MaxInFlight: 8, StaleFor: time.Minute},
			"ladder exact > greedy > stale > minimal; hedge on, 2 tokens; stale window 1m0s",
		},
		{
			// No Fallback: the hedge has nothing to race, so it is off.
			Config{Planner: noop, Hedge: true, Minimal: noop},
			"ladder exact > minimal; hedge off; stale window off",
		},
	} {
		e, err := NewEngine(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Setup(); got != tc.want {
			t.Errorf("Setup() = %q\nwant       %q", got, tc.want)
		}
		e.Close()
	}
}

func TestEngineLadderDescendsToMinimal(t *testing.T) {
	boom := errors.New("exact blew up")
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return nil, boom
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return nil, errors.New("greedy also failed")
		},
		Minimal: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "single plot", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Do(context.Background(), Request{Transcript: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != SourceMinimal || r.Value != "single plot" {
		t.Fatalf("response = %+v", r)
	}
	// The minimal answer is cached like any other.
	r2, err := e.Do(context.Background(), Request{Transcript: "q"})
	if err != nil || r2.Source != SourceCache {
		t.Fatalf("second = %+v err=%v", r2, err)
	}
	rec := httptest.NewRecorder()
	e.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `muve_ladder_rung_total{mode="plot",rung="minimal"} 1`) {
		t.Errorf("missing rung counter in:\n%s", rec.Body.String())
	}
}

func TestEngineLadderExhaustion(t *testing.T) {
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return nil, context.DeadlineExceeded
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return nil, errors.New("greedy failed too")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Do(context.Background(), Request{Transcript: "q"})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if StatusOf(err) != http.StatusServiceUnavailable {
		t.Errorf("StatusOf(exhausted) = %d, want 503", StatusOf(err))
	}
	if e.Metrics().Exhausted.Value() != 1 {
		t.Errorf("exhausted counter = %d", e.Metrics().Exhausted.Value())
	}
}

func TestEngineStaleRungServesExpiredAnswer(t *testing.T) {
	healthy := atomic.Bool{}
	healthy.Store(true)
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if healthy.Load() {
				return "fresh answer", nil
			}
			return nil, context.DeadlineExceeded
		},
		CacheTTL: time.Minute,
		StaleFor: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), Request{Transcript: "q"}); err != nil {
		t.Fatal(err)
	}
	// The entry expires but stays inside the stale window; the planner
	// now fails, so the ladder serves the expired answer.
	base := time.Now()
	e.cache.now = func() time.Time { return base.Add(2 * time.Minute) }
	healthy.Store(false)
	r, err := e.Do(context.Background(), Request{Transcript: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != SourceStale || r.Value != "fresh answer" {
		t.Fatalf("response = %+v", r)
	}
	// Serving stale must not refresh the entry: the next request misses
	// the primary cache again (and serves stale again).
	r2, err := e.Do(context.Background(), Request{Transcript: "q"})
	if err != nil || r2.Source != SourceStale {
		t.Fatalf("second = %+v err=%v", r2, err)
	}
	// A Refresh request skips the stale rung and fails instead of
	// serving expired data.
	if _, err := e.Do(context.Background(), Request{Transcript: "q", Refresh: true}); err == nil {
		t.Fatal("refresh served stale data")
	}
	if got := e.cache.Stats().StaleHits; got != 2 {
		t.Errorf("stale hits = %d, want 2", got)
	}
}

// breakerState reads the exact rung's breaker state from its
// muve_breaker_state gauge, as an operator would.
func breakerState(e *Engine) resilience.BreakerState {
	return resilience.BreakerState(e.Metrics().BreakerState.Value())
}

func TestEngineBreakerSkipsExactWhileOpen(t *testing.T) {
	var primary atomic.Int64
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			primary.Add(1)
			return nil, fmt.Errorf("solve: %w", context.DeadlineExceeded)
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "greedy", nil
		},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two deadline misses trip the breaker.
	for i := 0; i < 2; i++ {
		r, err := e.Do(context.Background(), Request{Transcript: fmt.Sprintf("miss%d", i)})
		if err != nil || r.Source != SourceFallback {
			t.Fatalf("request %d = %+v err=%v", i, r, err)
		}
	}
	if got := breakerState(e); got != resilience.Open {
		t.Fatalf("breaker state = %v, want open", got)
	}
	// While open, the exact rung is skipped outright: the primary
	// planner is not called again, the answer still arrives.
	before := primary.Load()
	r, err := e.Do(context.Background(), Request{Transcript: "while-open"})
	if err != nil || r.Source != SourceFallback {
		t.Fatalf("open-breaker request = %+v err=%v", r, err)
	}
	if primary.Load() != before {
		t.Errorf("primary planner called %d times while breaker open", primary.Load()-before)
	}
	rec := httptest.NewRecorder()
	e.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "muve_breaker_trips_total 1\n") {
		t.Errorf("missing trip counter in:\n%s", body)
	}
	if !strings.Contains(body, "muve_breaker_state 1\n") {
		t.Errorf("missing state gauge in:\n%s", body)
	}
}

func TestEngineBreakerHalfOpenRecovery(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if fail.Load() {
				return nil, context.DeadlineExceeded
			}
			return "exact again", nil
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "greedy", nil
		},
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), Request{Transcript: "trip"}); err != nil {
		t.Fatal(err)
	}
	if got := breakerState(e); got != resilience.Open {
		t.Fatalf("state = %v, want open", got)
	}
	// After the cooldown the breaker half-opens; a healthy probe closes
	// it and exact service resumes.
	fail.Store(false)
	time.Sleep(50 * time.Millisecond)
	r, err := e.Do(context.Background(), Request{Transcript: "probe"})
	if err != nil || r.Source != SourcePlanned || r.Value != "exact again" {
		t.Fatalf("probe = %+v err=%v", r, err)
	}
	if got := breakerState(e); got != resilience.Closed {
		t.Errorf("state after good probe = %v, want closed", got)
	}
}

func TestEnginePlannerPanicContained(t *testing.T) {
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			panic("solver corrupted its state")
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "greedy", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Do(context.Background(), Request{Transcript: "q"})
	if err != nil || r.Source != SourceFallback {
		t.Fatalf("response = %+v err=%v", r, err)
	}
	if e.Metrics().Panics.Value() != 1 {
		t.Errorf("panics counter = %d", e.Metrics().Panics.Value())
	}
}

func TestEngineChaosReachesPlanner(t *testing.T) {
	// The engine attaches its Chaos to the detached planning context, so
	// an instrumented planner stage sees injected faults and the ladder
	// absorbs them.
	chaos := resilience.NewChaos(7)
	chaos.Set("solver", resilience.Fault{ErrorP: 1})
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if err := resilience.Inject(ctx, "solver"); err != nil {
				return nil, err
			}
			return "exact", nil
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "greedy", nil
		},
		Chaos: chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Do(context.Background(), Request{Transcript: "q"})
	if err != nil || r.Source != SourceFallback {
		t.Fatalf("response = %+v err=%v", r, err)
	}
	if chaos.Injected()["solver"].Errors != 1 {
		t.Errorf("injected = %+v", chaos.Injected())
	}
	// Injected faults count as breaker failures.
	if breakerState(e) == resilience.Closed {
		// threshold 3 default: one failure is not enough to trip, but
		// the streak must be recorded; two more injected failures trip.
		for i := 0; i < 2; i++ {
			if _, err := e.Do(context.Background(), Request{Transcript: fmt.Sprintf("q%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := breakerState(e); got != resilience.Open {
			t.Errorf("breaker after 3 injected failures = %v, want open", got)
		}
	}
}

func TestWithRecoveryContainsHandlerPanic(t *testing.T) {
	m := &Metrics{}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	var buf strings.Builder
	h := WithLogging(log.New(io.Discard, "", 0), WithRecovery(log.New(&buf, "", 0), m, inner))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ask", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if m.Panics.Value() != 1 {
		t.Errorf("panics counter = %d", m.Panics.Value())
	}
	logged := buf.String()
	if !strings.Contains(logged, "handler exploded") || !strings.Contains(logged, "req=") {
		t.Errorf("panic log lacks message or request ID:\n%s", logged)
	}
}

func TestStatusOfClassification(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{&ExhaustedError{}, http.StatusServiceUnavailable},
		{fmt.Errorf("plan: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{errors.New("untranslatable"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got := StatusOf(c.err); got != c.want {
			t.Errorf("StatusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
	// An exhausted ladder whose last real failure was a deadline miss
	// still classifies as 503, not 504: the ladder IS the timeout story.
	ex := &ExhaustedError{Steps: []string{"exact: " + context.DeadlineExceeded.Error()}, Err: context.DeadlineExceeded}
	if got := StatusOf(fmt.Errorf("plan: %w", ex)); got != http.StatusServiceUnavailable {
		t.Errorf("wrapped exhausted = %d, want 503", got)
	}
}

// TestEngineRungGetsItsWholeShare: the planning budget is the sum of
// the rungs' shares and each attempt is capped at its own, so the
// greedy rung gets its whole share whether the exact rung above it
// failed at once (leaving the rest of its share unused) or ran its
// share out.
func TestEngineRungGetsItsWholeShare(t *testing.T) {
	const timeout, grace = 300 * time.Millisecond, 200 * time.Millisecond
	for _, tc := range []struct {
		name  string
		exact func(ctx context.Context) error
	}{
		{"exact fails fast", func(ctx context.Context) error { return errors.New("malformed") }},
		{"exact runs out its share", func(ctx context.Context) error { <-ctx.Done(); return ctx.Err() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var exactLeft, greedyLeft time.Duration
			e, err := NewEngine(Config{
				Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
					dl, _ := ctx.Deadline()
					exactLeft = time.Until(dl)
					return nil, tc.exact(ctx)
				},
				Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
					dl, _ := ctx.Deadline()
					greedyLeft = time.Until(dl)
					return "greedy", nil
				},
				Timeout:       timeout,
				FallbackGrace: grace,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			r, err := e.Do(context.Background(), Request{Transcript: "q"})
			if err != nil || r.Source != SourceFallback {
				t.Fatalf("response = %+v err=%v", r, err)
			}
			const slack = 50 * time.Millisecond
			if exactLeft > timeout || exactLeft < timeout-slack {
				t.Errorf("exact attempt budget = %v, want its %v share", exactLeft, timeout)
			}
			if greedyLeft > grace || greedyLeft < grace-slack {
				t.Errorf("greedy attempt budget = %v, want its %v share", greedyLeft, grace)
			}
		})
	}
}

// TestEngineCloseStopsDescent: Close during a descent cancels the
// running rung and returns the context's error; no lower rung is
// tried, and the request is not counted as an exhausted ladder.
func TestEngineCloseStopsDescent(t *testing.T) {
	started := make(chan struct{})
	var greedyCalls atomic.Int64
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			greedyCalls.Add(1)
			return "greedy", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-started
		e.Close()
	}()
	_, err = e.Do(context.Background(), Request{Transcript: "q"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var ex *ExhaustedError
	if errors.As(err, &ex) {
		t.Errorf("err = %v, want the bare context error", err)
	}
	if n := greedyCalls.Load(); n != 0 {
		t.Errorf("greedy rung tried %d times after Close", n)
	}
	if n := e.Metrics().Exhausted.Value(); n != 0 {
		t.Errorf("exhausted counter = %d, want 0", n)
	}
}

// TestExhaustedErrorListsEveryRung: the exhausted error names what
// happened at each rung in descent order, skip reasons included, and
// unwraps to the last attempted rung's error even when a lower rung
// was only skipped.
func TestExhaustedErrorListsEveryRung(t *testing.T) {
	boom := errors.New("greedy blew up")
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return nil, context.DeadlineExceeded
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return nil, boom
		},
		StaleFor:         time.Minute,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The first request trips the breaker; the second finds it open.
	_, err = e.Do(context.Background(), Request{Transcript: "trip"})
	if want := "resilience: ladder exhausted [exact: context deadline exceeded; greedy: greedy blew up; stale: skipped (no-stale-entry)]"; err == nil || err.Error() != want {
		t.Errorf("first err = %v\nwant       %s", err, want)
	}
	_, err = e.Do(context.Background(), Request{Transcript: "q", Refresh: true})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if want := "resilience: ladder exhausted [exact: skipped (breaker-open); greedy: greedy blew up; stale: skipped (refresh)]"; err.Error() != want {
		t.Errorf("err = %v\nwant  %s", err, want)
	}
	if !errors.Is(err, boom) || ex.Err != boom {
		t.Errorf("exhausted error unwraps to %v, want the greedy rung's error", ex.Err)
	}
	if n := e.Metrics().Exhausted.Value(); n != 2 {
		t.Errorf("exhausted counter = %d, want 2", n)
	}
}
