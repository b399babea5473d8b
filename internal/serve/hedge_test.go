package serve

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"muve/internal/resilience"
)

// TestHedgeBilledToBatchLane is the hedge-accounting regression test.
// The bug: a hedge is a second planner running under the SAME admission
// slot, and it used to ride the exact solve's interactive worker
// allocation — invisible to the worker split, so a hedge storm ran the
// machine at twice the budgeted parallelism and starved interactive
// solves. Now the hedge must acquire its own batch-lane share and carry
// it in its context.
func TestHedgeBilledToBatchLane(t *testing.T) {
	var exactWorkers, hedgeWorkers atomic.Int64
	var hedgeBatchActive, hedgeInteractiveActive atomic.Int64
	var eng *Engine
	e, err := NewEngine(Config{
		Planner: func(ctx context.Context, req Request, sess *Session) (any, error) {
			exactWorkers.Store(int64(resilience.SolverWorkers(ctx)))
			<-ctx.Done() // lose the race to the hedge
			return nil, ctx.Err()
		},
		Fallback: func(ctx context.Context, req Request, sess *Session) (any, error) {
			hedgeWorkers.Store(int64(resilience.SolverWorkers(ctx)))
			i, b := eng.workerSplit.Active()
			hedgeInteractiveActive.Store(int64(i))
			hedgeBatchActive.Store(int64(b))
			return "greedy", nil
		},
		Hedge:         true,
		Timeout:       400 * time.Millisecond, // hedge trigger = timeout/4
		SolverWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	eng = e

	r, err := e.Do(context.Background(), Request{Transcript: "tail query"})
	if err != nil {
		t.Fatalf("do: %v", err)
	}
	if r.Source != SourceHedged || r.Value != "greedy" {
		t.Fatalf("response = %q from %q, want hedged greedy", r.Value, r.Source)
	}
	// The lone exact solve gets the whole budget on the interactive
	// lane; the hedge draws from the batch remainder (8 - 1 = 7), not
	// from the exact solve's allocation.
	if got := exactWorkers.Load(); got != 8 {
		t.Errorf("exact solve saw %d workers, want the full budget 8", got)
	}
	if got := hedgeWorkers.Load(); got != 7 {
		t.Errorf("hedge saw %d workers, want the batch remainder 7", got)
	}
	if i, b := hedgeInteractiveActive.Load(), hedgeBatchActive.Load(); i != 1 || b != 1 {
		t.Errorf("during hedge: %d interactive / %d batch shares held, want 1/1 (hedge on the batch lane)", i, b)
	}
	// Shares and the hedge token must return once the request settles.
	waitFor(t, func() bool {
		i, b := e.workerSplit.Active()
		return i == 0 && b == 0 && len(e.hedgeTokens) == cap(e.hedgeTokens)
	}, "worker shares and hedge token released")
}

// TestHedgeTokenBucketBoundsConcurrentHedges: with one hedge token
// (MaxInFlight 4 derives max(4/4, 1) = 1), three simultaneously slow
// requests may start only one hedge; the other two are denied (counted)
// and ride out their exact solves on undiluted interactive allocations.
// After the storm, the token is back and a later request can hedge
// again.
func TestHedgeTokenBucketBoundsConcurrentHedges(t *testing.T) {
	exactGate := make(chan struct{})
	hedgeGate := make(chan struct{})
	var duringInteractive, duringBatch atomic.Int64
	var recorded atomic.Bool
	var eng *Engine
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
			i, b := eng.workerSplit.Active()
			duringInteractive.Store(int64(i))
			duringBatch.Store(int64(b))
			recorded.Store(true)
			select {
			case <-hedgeGate:
				return "hedge", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		Hedge:         true,
		Timeout:       2 * time.Second, // hedge trigger = 500ms
		SolverWorkers: 8,
		MaxInFlight:   4, // one hedge token
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	eng = e

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
	// Wait for the token-bearing hedge to have recorded the lane state,
	// not just for the counters to tick — the fallback goroutine starts
	// after the hedge token is taken.
	m := e.Metrics()
	waitFor(t, func() bool {
		return m.Hedge[HedgeDenied].Value() == 2 && recorded.Load()
	}, "one hedge started, two denied")

	// The storm holds 3 interactive shares (the exact solves) and only
	// the 1 token-bearing hedge on the batch lane — the denied hedges
	// consumed nothing.
	if i, b := duringInteractive.Load(), duringBatch.Load(); i != 3 || b != 1 {
		t.Errorf("during storm: %d interactive / %d batch shares, want 3/1", i, b)
	}

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
