package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingPlanner returns a planner that sleeps delay, then answers
// "ans:<transcript>", counting executions.
func countingPlanner(calls *atomic.Int64, delay time.Duration) Planner {
	return func(ctx context.Context, req Request, sess *Session) (any, error) {
		calls.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return "ans:" + req.Transcript, nil
	}
}

func TestEngineRequiresPlanner(t *testing.T) {
	if _, err := NewEngine(Config{}); !errors.Is(err, ErrNoPlanner) {
		t.Fatalf("err = %v, want ErrNoPlanner", err)
	}
}

func TestEngineCacheFlow(t *testing.T) {
	var calls atomic.Int64
	e, err := NewEngine(Config{Planner: countingPlanner(&calls, 0)})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Do(context.Background(), Request{Transcript: "How  Many Complaints"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != SourcePlanned || r1.Value != "ans:How  Many Complaints" {
		t.Fatalf("first = %+v", r1)
	}
	// Case- and whitespace-insensitive repeat hits the cache.
	r2, err := e.Do(context.Background(), Request{Transcript: "how many complaints"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != SourceCache {
		t.Fatalf("second source = %q, want cache", r2.Source)
	}
	if r2.Value != r1.Value {
		t.Fatalf("cache returned different answer: %v", r2.Value)
	}
	// Refresh forces a replan and re-publishes.
	r3, err := e.Do(context.Background(), Request{Transcript: "how many complaints", Refresh: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Source != SourcePlanned {
		t.Fatalf("refresh source = %q", r3.Source)
	}
	if calls.Load() != 2 {
		t.Errorf("planner calls = %d, want 2", calls.Load())
	}
	m := e.Metrics()
	if m.Requests.Value() != 3 || m.Lookups[LookupCache].Value() != 1 || m.Lookups[LookupMiss].Value() != 1 {
		t.Errorf("metrics: req=%d hit=%d miss=%d", m.Requests.Value(), m.Lookups[LookupCache].Value(), m.Lookups[LookupMiss].Value())
	}
	if m.EndToEnd.Count() != 3 || m.Planning.Count() != 2 {
		t.Errorf("histograms: e2e=%d planning=%d", m.EndToEnd.Count(), m.Planning.Count())
	}
}

func TestEngineCoalescesIdenticalQueries(t *testing.T) {
	var calls atomic.Int64
	e, err := NewEngine(Config{Planner: countingPlanner(&calls, 100*time.Millisecond), MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.Do(context.Background(), Request{Transcript: "same query"})
			if err != nil {
				t.Error(err)
				return
			}
			if r.Source == SourceCoalesced {
				coalesced.Add(1)
			}
			if r.Value != "ans:same query" {
				t.Errorf("value = %v", r.Value)
			}
		}()
	}
	wg.Wait()
	// Some stragglers may arrive after planning finished and hit the
	// cache instead; what matters is exactly one planning call.
	if calls.Load() != 1 {
		t.Fatalf("planner executed %d times for %d concurrent identical queries, want 1", calls.Load(), n)
	}
	if coalesced.Load() == 0 {
		t.Error("no request reported coalescing")
	}
}

func TestEngineParallelLoad(t *testing.T) {
	// ≥100 concurrent requests over a mixed key space through a small
	// worker pool; -race validates the whole stack.
	var calls atomic.Int64
	e, err := NewEngine(Config{
		Planner:      countingPlanner(&calls, time.Millisecond),
		MaxInFlight:  4,
		CacheEntries: 64,
		Timeout:      5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 120
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := fmt.Sprintf("query %d", (w+i)%17)
				r, err := e.Do(context.Background(), Request{
					Transcript: q,
					SessionID:  fmt.Sprintf("s%d", w%29),
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if r.Value != "ans:"+q {
					t.Errorf("worker %d: wrong answer %v for %q", w, r.Value, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := e.Metrics()
	if got := m.Requests.Value(); got != workers*perWorker {
		t.Errorf("requests = %d, want %d", got, workers*perWorker)
	}
	if m.InFlight.Value() != 0 {
		t.Errorf("inflight after drain = %d", m.InFlight.Value())
	}
	// 17 distinct keys: planning happened at least once per key but far
	// less than once per request.
	if c := calls.Load(); c < 17 || c > workers*perWorker/2 {
		t.Errorf("planner calls = %d for 17 keys over %d requests", c, workers*perWorker)
	}
	if e.Sessions().Len() != 29 {
		t.Errorf("sessions = %d, want 29", e.Sessions().Len())
	}
}

func TestEngineTimeoutAndFallback(t *testing.T) {
	var primary, fallback atomic.Int64
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			primary.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			fallback.Add(1)
			return "greedy answer", nil
		},
		Timeout:       30 * time.Millisecond,
		FallbackGrace: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Do(context.Background(), Request{Transcript: "slow query"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != SourceFallback || r.Value != "greedy answer" {
		t.Fatalf("response = %+v", r)
	}
	if primary.Load() != 1 || fallback.Load() != 1 {
		t.Errorf("primary=%d fallback=%d", primary.Load(), fallback.Load())
	}
	if n := e.Metrics().Fallbacks.With("unknown").Value(); n != 1 {
		t.Errorf("fallback metric = %d", n)
	}
	// The degraded answer is cached like any other.
	r2, err := e.Do(context.Background(), Request{Transcript: "slow query"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != SourceCache {
		t.Errorf("second source = %q", r2.Source)
	}
}

func TestEngineTimeoutWithoutFallback(t *testing.T) {
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
		Timeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Do(context.Background(), Request{Transcript: "slow"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	m := e.Metrics()
	if m.Errors.Value() != 1 || m.Timeouts.Value() != 1 {
		t.Errorf("errors=%d timeouts=%d", m.Errors.Value(), m.Timeouts.Value())
	}
}

func TestEnginePlannerErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("untranslatable")
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			calls.Add(1)
			return nil, boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Do(context.Background(), Request{Transcript: "bad"}); !errors.Is(err, boom) {
			t.Fatalf("attempt %d err = %v", i, err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("errors were cached: %d planner calls", calls.Load())
	}
}

func TestEngineSessionReuse(t *testing.T) {
	var calls atomic.Int64
	e, err := NewEngine(Config{
		Planner:      countingPlanner(&calls, 0),
		CacheEntries: -1, // session reuse must work with caching disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e.Do(context.Background(), Request{Transcript: "repeat me", SessionID: "u1"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Source != SourcePlanned {
		t.Fatalf("first source = %q", r1.Source)
	}
	r2, err := e.Do(context.Background(), Request{Transcript: "Repeat Me", SessionID: "u1"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != SourceSession {
		t.Fatalf("second source = %q, want session", r2.Source)
	}
	// A different session has no such state and must replan.
	r3, err := e.Do(context.Background(), Request{Transcript: "repeat me", SessionID: "u2"})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Source != SourcePlanned {
		t.Fatalf("other-session source = %q", r3.Source)
	}
	if calls.Load() != 2 {
		t.Errorf("planner calls = %d, want 2", calls.Load())
	}
	if n := e.Metrics().Lookups[LookupSession].Value(); n != 1 {
		t.Errorf("session hits = %d", n)
	}
}

func TestEngineKeyQualifiers(t *testing.T) {
	// Two engines over different configurations must not share keys.
	a, _ := NewEngine(Config{Planner: countingPlanner(new(atomic.Int64), 0), Dataset: "nyc311", Solver: "greedy", WidthPx: 1024})
	b, _ := NewEngine(Config{Planner: countingPlanner(new(atomic.Int64), 0), Dataset: "nyc311", Solver: "ilp", WidthPx: 1024})
	if a.Key("same q") == b.Key("same q") {
		t.Error("keys collide across solver configurations")
	}
	if a.Key("Same   Q") != a.Key("same q") {
		t.Error("normalization failed within one configuration")
	}
}
