package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// enqueueWaiter starts one queued Acquire and blocks until it is
// actually in the lane's queue, so tests control arrival order.
func enqueueWaiter(t *testing.T, a *Admission, ctx context.Context, p Priority, done chan<- error, after func()) {
	t.Helper()
	depth := a.Depth(p)
	go func() {
		r, err := a.Acquire(ctx, p)
		if err == nil {
			if after != nil {
				after()
			}
			r()
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for a.Depth(p) <= depth {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitErr receives one waiter's result, failing instead of hanging
// when a lost slot keeps the waiter queued.
func waitErr(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never finished: a slot was lost")
		return nil
	}
}

func TestAdmissionArrivalOrderIgnoresDeadlines(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Capacity: 1})
	release, err := a.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}

	// Four waiters whose ctx deadlines disagree with their arrival
	// order: a lane is FIFO, so they are granted as they arrived.
	order := make(chan string, 4)
	errs := make(chan error, 4)
	add := func(name string, deadline time.Duration) {
		ctx := context.Background()
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Now().Add(deadline))
			t.Cleanup(cancel)
		}
		enqueueWaiter(t, a, ctx, Interactive, errs, func() { order <- name })
	}
	add("10h", 10*time.Hour)
	add("1h", time.Hour)
	add("5h", 5*time.Hour)
	add("none", 0)

	release()
	want := []string{"10h", "1h", "5h", "none"}
	for _, w := range want {
		if got := <-order; got != w {
			t.Fatalf("grant order: got %q, want %q", got, w)
		}
	}
	for range want {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdmissionCancelledInteractiveYieldsToBatch(t *testing.T) {
	// An interactive waiter whose ctx was cancelled must not keep a
	// batch waiter from the freed slot.
	a := NewAdmission(AdmissionConfig{Capacity: 1})
	release, err := a.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	batch := make(chan error, 1)
	enqueueWaiter(t, a, ctx, Interactive, cancelled, nil)
	enqueueWaiter(t, a, context.Background(), Batch, batch, nil)

	cancel()
	release()

	if err := waitErr(t, cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	if err := waitErr(t, batch); err != nil {
		t.Fatalf("batch waiter: %v", err)
	}
	if n := a.InUse(); n != 0 {
		t.Errorf("InUse after drain = %d, want 0", n)
	}
}

// unseenDone is a cancelled context whose Done channel never fires, so
// a queued waiter stays queued and meets its ended ctx only on a grant.
type unseenDone struct{ context.Context }

func (unseenDone) Done() <-chan struct{} { return nil }

func TestAdmissionGrantToEndedCtxPassesOn(t *testing.T) {
	// A grant that reaches a waiter whose ctx has already ended goes to
	// the next waiter instead of being kept.
	a := NewAdmission(AdmissionConfig{Capacity: 1})
	release, err := a.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ended := make(chan error, 1)
	batch := make(chan error, 1)
	enqueueWaiter(t, a, unseenDone{ctx}, Interactive, ended, nil)
	enqueueWaiter(t, a, context.Background(), Batch, batch, nil)

	cancel()
	release()

	if err := waitErr(t, ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("ended waiter err = %v, want context.Canceled", err)
	}
	if err := waitErr(t, batch); err != nil {
		t.Fatalf("batch waiter: %v", err)
	}
	if n := a.InUse(); n != 0 {
		t.Errorf("InUse after drain = %d, want 0", n)
	}
}

func TestAdmissionCancelRacingReleaseNeverKeepsSlot(t *testing.T) {
	// Race a release against a queued waiter's cancellation, so the
	// grant lands before, during and after the waiter sees ctx end. A
	// cancelled waiter must never return a slot, and no slot may leak.
	a := NewAdmission(AdmissionConfig{Capacity: 1})
	for i := 0; i < 1000; i++ {
		release, err := a.Acquire(context.Background(), Interactive)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		type result struct {
			release func()
			err     error
		}
		got := make(chan result, 1)
		go func() {
			r, err := a.Acquire(ctx, Interactive)
			got <- result{r, err}
		}()
		for a.Depth(Interactive) == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); release() }()
		wg.Wait()
		res := <-got
		switch {
		case res.err == nil:
			// Granted before the cancellation: the slot is its own.
			res.release()
		case res.release != nil:
			t.Fatalf("iteration %d: cancelled waiter returned a slot (err %v)", i, res.err)
		case !errors.Is(res.err, context.Canceled):
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, res.err)
		}
		if n := a.InUse(); n != 0 {
			t.Fatalf("iteration %d: InUse = %d, want 0", i, n)
		}
	}
}
