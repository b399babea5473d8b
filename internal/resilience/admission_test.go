package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmissionGrantsUpToCapacity(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Capacity: 2})
	r1, err := a.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InUse(); got != 2 {
		t.Errorf("InUse = %d, want 2", got)
	}
	r1()
	r2()
	if got := a.InUse(); got != 0 {
		t.Errorf("InUse after release = %d, want 0", got)
	}
}

func TestAdmissionUnboundedQueueWhenDisabled(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Capacity: 1})
	release, _ := a.Acquire(context.Background(), Interactive)
	var wg sync.WaitGroup
	var served atomic.Int64
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.Acquire(context.Background(), Interactive)
			if err != nil {
				t.Errorf("unbounded acquire: %v", err)
				return
			}
			served.Add(1)
			r()
		}()
	}
	for a.Depth(Interactive) < 20 {
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	if served.Load() != 20 {
		t.Errorf("served = %d, want 20", served.Load())
	}
	if a.Depth(Interactive) != 0 {
		t.Errorf("depth after drain = %d", a.Depth(Interactive))
	}
}

func TestAdmissionInteractiveBeatsBatch(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Capacity: 1})
	release, _ := a.Acquire(context.Background(), Interactive)

	order := make(chan Priority, 2)
	var wg sync.WaitGroup
	start := func(p Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.Acquire(context.Background(), p)
			if err != nil {
				t.Error(err)
				return
			}
			order <- p
			r()
		}()
	}
	// Batch queues first, interactive second — interactive must still
	// be granted the freed slot first.
	start(Batch)
	for a.Depth(Batch) == 0 {
		time.Sleep(time.Millisecond)
	}
	start(Interactive)
	for a.Depth(Interactive) == 0 {
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	if first := <-order; first != Interactive {
		t.Errorf("first granted lane = %s, want interactive", first)
	}
}

func TestAdmissionCtxCancelWhileQueued(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Capacity: 1})
	release, _ := a.Acquire(context.Background(), Interactive)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := a.Acquire(ctx, Interactive)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if a.Depth(Interactive) != 0 {
		t.Errorf("abandoned waiter left in queue (depth %d)", a.Depth(Interactive))
	}
	// The slot is still usable afterwards.
	release()
	r, err := a.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	r()
}

func TestAdmissionDepthCallback(t *testing.T) {
	var mu sync.Mutex
	depths := map[Priority][]int{}
	a := NewAdmission(AdmissionConfig{
		Capacity: 1,
		OnDepth: func(p Priority, d int) {
			mu.Lock()
			depths[p] = append(depths[p], d)
			mu.Unlock()
		},
	})
	release, _ := a.Acquire(context.Background(), Interactive)
	done := make(chan struct{})
	go func() {
		r, err := a.Acquire(context.Background(), Batch)
		if err == nil {
			r()
		}
		close(done)
	}()
	for a.Depth(Batch) == 0 {
		time.Sleep(time.Millisecond)
	}
	release()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if got := depths[Batch]; len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("batch depth sequence = %v, want [1 0]", got)
	}
}

func TestAdmissionConcurrentChurn(t *testing.T) {
	// Heavy mixed-lane churn under -race: no lost slots, no deadlock.
	a := NewAdmission(AdmissionConfig{Capacity: 4})
	var wg sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := Interactive
			if g%3 == 0 {
				p = Batch
			}
			for i := 0; i < 50; i++ {
				r, err := a.Acquire(context.Background(), p)
				if err != nil {
					t.Errorf("unexpected error: %v", err)
					return
				}
				served.Add(1)
				r()
			}
		}(g)
	}
	wg.Wait()
	if a.InUse() != 0 {
		t.Errorf("slots leaked: InUse = %d", a.InUse())
	}
	if served.Load() != 32*50 {
		t.Errorf("served %d, want %d", served.Load(), 32*50)
	}
	for _, p := range []Priority{Interactive, Batch} {
		if d := a.Depth(p); d != 0 {
			t.Errorf("%s depth after churn = %d, want 0", p, d)
		}
	}
}
