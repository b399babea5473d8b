package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestHedgeTokenBucketBoundsConcurrentHedges: with one hedge token
// (MaxInFlight 4 derives max(4/4, 1) = 1), three simultaneously slow
// requests may start only one hedge; the other two are denied (counted)
// and ride out their exact solves alone. After the storm, the token is
// back and a later request can hedge again.
func TestHedgeTokenBucketBoundsConcurrentHedges(t *testing.T) {
	exactGate := make(chan struct{})
	hedgeGate := make(chan struct{})
	var hedging atomic.Bool
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if req.Transcript == "after the storm" {
				<-ctx.Done() // always lose to the hedge
				return nil, ctx.Err()
			}
			select {
			case <-exactGate:
				return "exact", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			if req.Transcript == "after the storm" {
				return "hedge", nil
			}
			hedging.Store(true)
			select {
			case <-hedgeGate:
				return "hedge", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		Hedge:       true,
		Timeout:     2 * time.Second, // hedge trigger = 500ms
		MaxInFlight: 4,               // one hedge token
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	done := make(chan string, 3)
	for i := 0; i < 3; i++ {
		q := []string{"storm one", "storm two", "storm three"}[i]
		go func() {
			r, err := e.Do(context.Background(), Request{Transcript: q})
			if err != nil {
				done <- "error: " + err.Error()
				return
			}
			done <- r.Value.(string)
		}()
	}

	// All three hit their hedge triggers; exactly one token exists.
	// Wait for the token-bearing hedge to be running, not just for the
	// counters to tick — the fallback goroutine starts after the hedge
	// token is taken.
	m := e.Metrics()
	waitFor(t, func() bool {
		return m.Hedge[HedgeDenied].Value() == 2 && hedging.Load()
	}, "one hedge started, two denied")

	// Release the hedge first and wait for its request to settle; only
	// then release the exact solves, so the token-bearing request can't
	// race its own exact to the finish line.
	close(hedgeGate)
	if first := <-done; first != "hedge" {
		t.Fatalf("first settled outcome = %q, want the hedge win", first)
	}
	close(exactGate) // denied requests settle via exact
	for i := 0; i < 2; i++ {
		if v := <-done; v != "exact" {
			t.Fatalf("denied-hedge outcome = %q, want exact", v)
		}
	}

	// The token must have been returned: a fresh slow request hedges.
	waitFor(t, func() bool { return len(e.hedgeTokens) == 1 }, "hedge token returned")
	r, err := e.Do(context.Background(), Request{Transcript: "after the storm"})
	if err != nil {
		t.Fatalf("post-storm do: %v", err)
	}
	if r.Value != "hedge" {
		t.Fatalf("post-storm value = %v, want hedge win", r.Value)
	}
	if n := hedgeStarted(m); n != 2 || m.Hedge[HedgeWon].Value() != 2 {
		t.Errorf("hedges started = %d, won = %d after storm + retry, want 2 and 2", n, m.Hedge[HedgeWon].Value())
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
