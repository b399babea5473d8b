package resilience

import (
	"sync"
	"testing"
	"time"
)

// testClock is a manually advanced clock for breaker cooldown tests.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *testClock) {
	clk := &testClock{now: time.Unix(1_700_000_000, 0)}
	return NewBreaker(BreakerConfig{Threshold: threshold, Cooldown: cooldown, Now: clk.Now}), clk
}

// stateOf reads the breaker's state under its lock.
func stateOf(b *Breaker) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// fail runs one allowed attempt that fails.
func fail(t *testing.T, b *Breaker) {
	t.Helper()
	if !b.Allow() {
		t.Fatal("attempt denied")
	}
	b.Result(false)
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	fail(t, b)
	fail(t, b)
	if got := stateOf(b); got != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	fail(t, b) // third consecutive: trips
	if got := stateOf(b); got != Open {
		t.Fatalf("state after 3 failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	fail(t, b)
	fail(t, b)
	b.Allow()
	b.Result(true) // success clears the streak
	fail(t, b)
	fail(t, b)
	if got := stateOf(b); got != Closed {
		t.Fatalf("state = %v, want closed (streak was reset)", got)
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	fail(t, b) // threshold 1: trips immediately
	if b.Allow() {
		t.Fatal("allowed while cooling down")
	}
	clk.Advance(1100 * time.Millisecond)
	// Cooldown over: exactly one probe is granted.
	if !b.Allow() {
		t.Fatal("probe denied after cooldown")
	}
	if got := stateOf(b); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	// A second concurrent attempt is vetoed while the probe is out.
	if b.Allow() {
		t.Fatal("second probe granted while the first is out")
	}
	// Probe succeeds: breaker closes.
	b.Result(true)
	if got := stateOf(b); got != Closed {
		t.Fatalf("state after good probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker denied")
	}
	b.Result(true)
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	fail(t, b)
	clk.Advance(1100 * time.Millisecond)
	fail(t, b) // probe fails: back to open with a fresh cooldown
	if got := stateOf(b); got != Open {
		t.Fatalf("state after bad probe = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("allowed right after reopening")
	}
	clk.Advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe denied after second cooldown")
	}
	b.Result(true)
	if got := stateOf(b); got != Closed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerReleaseReturnsProbe(t *testing.T) {
	b, clk := newTestBreaker(2, time.Second)
	fail(t, b)
	// An uncharged failure leaves a closed breaker's streak alone: the
	// next charged failure is the second, and trips.
	b.Allow()
	b.Release()
	fail(t, b)
	if got := stateOf(b); got != Open {
		t.Fatalf("state = %v, want open (release must not reset the streak)", got)
	}
	clk.Advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe denied")
	}
	// The probe said nothing about the path's health: it comes back,
	// and the breaker stays half-open.
	b.Release()
	if got := stateOf(b); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("returned probe not re-granted")
	}
	b.Result(true)
	if got := stateOf(b); got != Closed {
		t.Fatalf("state after good probe = %v, want closed", got)
	}
}

// TestBreakerMixedStageStreakTrips pins the one breaker's contract:
// failures add to one streak whatever stage the engine blamed them on,
// so alternating solver and speak misses trip it at the threshold.
func TestBreakerMixedStageStreakTrips(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for _, stage := range []string{"solver", "speak", "solver"} {
		if got := stateOf(b); got != Closed {
			t.Fatalf("state before the %s failure = %v, want closed", stage, got)
		}
		fail(t, b)
	}
	if got := stateOf(b); got != Open {
		t.Fatalf("state after a mixed 3-failure streak = %v, want open", got)
	}
}

func TestBreakerOnChangeObservesTransitions(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	clk := &testClock{now: time.Unix(1_700_000_000, 0)}
	b := NewBreaker(BreakerConfig{
		Threshold: 1, Cooldown: time.Second, Now: clk.Now,
		OnChange: func(to BreakerState) {
			mu.Lock()
			seen = append(seen, to.String())
			mu.Unlock()
		},
	})
	fail(t, b)
	clk.Advance(1100 * time.Millisecond)
	b.Allow()
	b.Result(true)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"open", "half-open", "closed"}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", seen, want)
		}
	}
}

func TestBreakerNilIsNoop(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Error("nil breaker denied")
	}
	b.Result(false)
	b.Release()
	if !b.Allow() {
		t.Error("nil breaker denied after a failure")
	}
}

func TestBreakerConcurrentTransitions(t *testing.T) {
	// Many goroutines hammer Allow/Result/Release through trip,
	// half-open and close cycles; -race validates the locking, and the
	// breaker must end in a consistent state with no probe leakage (a
	// final good probe closes it).
	b, clk := newTestBreaker(5, 10*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !b.Allow() {
					continue
				}
				switch (g + i) % 4 {
				case 0:
					b.Result(false)
				case 1:
					b.Release()
				default:
					b.Result(true)
				}
				if i%50 == 0 {
					clk.Advance(11 * time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	// Drain: advance past any cooldown and complete a good probe.
	for i := 0; i < 10; i++ {
		if stateOf(b) == Closed {
			return
		}
		clk.Advance(11 * time.Millisecond)
		if b.Allow() {
			b.Result(true)
		}
	}
	t.Fatalf("breaker failed to converge to closed: %v", stateOf(b))
}
