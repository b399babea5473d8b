package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEngineHedgeWinsOverSlowExact: with hedging on and a thin service
// window, the hedge fires at timeout/4; a fast fallback must beat a
// slow exact solve, win the race, and surface as SourceHedged with the
// winner counted.
func TestEngineHedgeWinsOverSlowExact(t *testing.T) {
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			select {
			case <-time.After(2 * time.Second):
				return "exact", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "greedy", nil
		},
		Hedge:   true,
		Timeout: 400 * time.Millisecond, // hedge trigger = timeout/4 = 100ms
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	r, err := e.Do(context.Background(), Request{Transcript: "tail query"})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if r.Source != SourceHedged || r.Value != "greedy" {
		t.Fatalf("response = %q from %q, want greedy answer via hedge", r.Value, r.Source)
	}
	m := e.Metrics()
	if n := hedgeStarted(m); n != 1 {
		t.Errorf("hedges started = %d, want 1", n)
	}
	if n := m.Hedge[HedgeWon].Value(); n != 1 {
		t.Errorf("hedge wins = %d, want 1", n)
	}
}

// hedgeStarted is the number of hedges that started: every hedge point
// reached with a token ends as exactly one of exact, hedge or failed.
func hedgeStarted(m *Metrics) uint64 {
	return m.Hedge[HedgeExact].Value() + m.Hedge[HedgeWon].Value() + m.Hedge[HedgeFailed].Value()
}

// TestEngineHedgeBothFailCounted: a hedge whose exact attempt and
// greedy hedge both fail still counts one outcome, "failed", so the
// hedges actually launched equal exact + hedge + failed.
func TestEngineHedgeBothFailCounted(t *testing.T) {
	var exactRunning atomic.Int32
	var launched atomic.Uint64 // fallback calls made while an exact solve runs
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			exactRunning.Add(1)
			defer exactRunning.Add(-1)
			if req.Transcript == "fail" {
				time.Sleep(200 * time.Millisecond)
				return nil, errors.New("exact solve failed")
			}
			select {
			case <-time.After(2 * time.Second):
				return "exact", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if exactRunning.Load() > 0 {
				launched.Add(1)
			}
			if req.Transcript == "fail" {
				return nil, errors.New("greedy failed")
			}
			return "greedy", nil
		},
		Hedge:   true,
		Timeout: 400 * time.Millisecond, // hedge trigger = timeout/4 = 100ms
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.Do(context.Background(), Request{Transcript: "fail"}); err == nil {
		t.Fatal("both rungs failed, but the request answered")
	}
	if r, err := e.Do(context.Background(), Request{Transcript: "slow"}); err != nil || r.Source != SourceHedged {
		t.Fatalf("slow request = %+v, %v; want a hedge win", r, err)
	}
	m := e.Metrics()
	if f, w := m.Hedge[HedgeFailed].Value(), m.Hedge[HedgeWon].Value(); f != 1 || w != 1 {
		t.Errorf("hedge outcomes failed=%d hedge=%d, want 1 and 1", f, w)
	}
	if n := hedgeStarted(m); n != launched.Load() || n != 2 {
		t.Errorf("exact + hedge + failed = %d, hedges launched = %d, want both 2", n, launched.Load())
	}
}

// TestEngineHedgeExactStillWins: a fast exact solve finishes before
// the trigger, so no hedge starts at all.
func TestEngineHedgeExactStillWins(t *testing.T) {
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "exact", nil
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			return "greedy", nil
		},
		Hedge:   true,
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	r, err := e.Do(context.Background(), Request{Transcript: "fast query"})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if r.Source != SourcePlanned || r.Value != "exact" {
		t.Fatalf("response = %q from %q, want exact answer unhedged", r.Value, r.Source)
	}
	if n := hedgeStarted(e.Metrics()); n != 0 {
		t.Errorf("hedges started = %d for a fast exact solve, want 0", n)
	}
}

// TestEngineDrainAndClose is the crash-only shutdown regression test:
// Drain refuses new planning with ErrDraining (503) while cached
// answers keep serving, and Close cancels the in-flight solve so a
// planner blocked on ctx observes cancellation instead of running
// headless past http.Server.Shutdown.
func TestEngineDrainAndClose(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	var sawCancel atomic.Bool
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if req.Transcript == "warm" {
				return "warm answer", nil
			}
			once.Do(func() { close(started) })
			<-ctx.Done()
			sawCancel.Store(true)
			return nil, ctx.Err()
		},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := e.Do(context.Background(), Request{Transcript: "warm"}); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	blocked := make(chan error, 1)
	go func() {
		_, err := e.Do(context.Background(), Request{Transcript: "stuck solve"})
		blocked <- err
	}()
	<-started

	e.Drain()
	if !e.Draining() {
		t.Fatalf("Draining() false after Drain")
	}
	// New planning is refused with the 503-mapped sentinel...
	if _, err := e.Do(context.Background(), Request{Transcript: "new work"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("plan during drain: %v, want ErrDraining", err)
	} else if StatusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("StatusOf(ErrDraining) = %d, want 503", StatusOf(err))
	}
	// ...while the cheap paths keep serving.
	r, err := e.Do(context.Background(), Request{Transcript: "warm"})
	if err != nil || r.Source != SourceCache {
		t.Fatalf("cached answer during drain = (%+v, %v), want cache hit", r, err)
	}

	// Close cancels the stuck solve and reports it.
	if n := e.Close(); n != 1 {
		t.Fatalf("Close() = %d in-flight plans, want 1", n)
	}
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatalf("stuck solve returned a clean answer after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("stuck solve never observed cancellation after Close")
	}
	if !sawCancel.Load() {
		t.Fatalf("planner ctx never fired")
	}
	if n := e.Metrics().DrainCancelled.Value(); n != 1 {
		t.Errorf("DrainCancelled = %d, want 1", n)
	}
}

// TestCacheGetStaleRacesEvictionAndExpiry hammers GetStale against
// concurrent Puts (tiny capacity, so evictions are constant) and a
// moving clock that sweeps entries across the TTL and stale windows.
// The assertions are structural — any value served stale must be the
// value put for that key — and the race detector validates the rest.
func TestCacheGetStaleRacesEvictionAndExpiry(t *testing.T) {
	c := NewCache(16, 50*time.Millisecond) // perShard 1: every Put can evict
	c.SetStaleWindow(50 * time.Millisecond)
	var clock atomic.Int64
	base := time.Unix(0, 0)
	c.now = func() time.Time { return base.Add(time.Duration(clock.Load())) }

	// 32 keys across 16 shards: the pigeonhole principle guarantees
	// shard collisions, so single-entry shards evict constantly.
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = "k" + string(rune('a'+i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i+w)%len(keys)]
				c.Put(k, "v:"+k)
				clock.Add(int64(3 * time.Millisecond))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i+r)%len(keys)]
				if v, age, ok := c.GetStale(k); ok {
					if v != "v:"+k {
						t.Errorf("GetStale(%q) = %v", k, v)
						return
					}
					if age < 0 {
						t.Errorf("GetStale(%q) age = %v", k, age)
						return
					}
				}
				c.Get(k)
			}
		}(r)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Deterministic epilogue on the same cache: a fresh entry is live,
	// expired-but-within-window serves stale with a positive age, past
	// the window it is gone.
	c.Put("tail", "v:tail")
	if _, age, ok := c.GetStale("tail"); !ok || age != 0 {
		t.Fatalf("live entry via GetStale = (age %v, %v), want age 0, true", age, ok)
	}
	clock.Add(int64(75 * time.Millisecond)) // past TTL, inside stale window
	if _, ok := c.Get("tail"); ok {
		t.Fatalf("expired entry served live")
	}
	if _, age, ok := c.GetStale("tail"); !ok || age <= 0 {
		t.Fatalf("stale entry = (age %v, %v), want positive age, true", age, ok)
	}
	clock.Add(int64(75 * time.Millisecond)) // past the stale window too
	if _, _, ok := c.GetStale("tail"); ok {
		t.Fatalf("entry served past the stale window")
	}
	if s := c.Stats(); s.StaleHits == 0 || s.Evictions == 0 {
		t.Fatalf("hammer produced no stale hits (%d) or evictions (%d)", s.StaleHits, s.Evictions)
	}
}
