package resilience

import (
	"context"
	"sync"
	"time"
)

// AdmissionConfig sizes an Admission controller.
type AdmissionConfig struct {
	// Capacity is the number of concurrently held slots (the worker
	// pool size). Must be positive.
	Capacity int
	// MaxQueue is the interactive lane's depth watermark: an Acquire
	// that would queue deeper than this fast-fails with a RejectError.
	// 0 means unbounded (admission control disabled for the lane, but
	// depth is still tracked).
	MaxQueue int
	// MaxBatchQueue is the batch lane's watermark; 0 means unbounded.
	MaxBatchQueue int
	// RetryAfter is the back-off hint carried by RejectError
	// (default 1s).
	RetryAfter time.Duration
	// RetryAfterFn, when non-nil, supplies the back-off hint at
	// rejection time — e.g. a windowed service-time estimate, so the
	// hint tracks how long a slot actually takes to free up. A
	// non-positive result falls back to RetryAfter.
	RetryAfterFn func() time.Duration
	// OnDepth, when non-nil, is called with a lane's queue depth every
	// time it changes (under the controller's lock — keep it to a
	// gauge store).
	OnDepth func(p Priority, depth int)
	// OnSojourn, when non-nil, observes every granted request's queue
	// sojourn (0 for fast-path grants) — e.g. into a metrics histogram.
	// Called outside the admission lock.
	OnSojourn func(p Priority, d time.Duration)
	// OnShed, when non-nil, is called for every queued waiter shed
	// because its deadline expired before a slot freed (under the
	// controller's lock — keep it to a counter).
	OnShed func(p Priority)
	// Clock injects a time source for deterministic tests.
	Clock func() time.Time
}

// waiter is one queued Acquire. Its channel (capacity 1) receives true
// when a freed slot is granted to it, false when it is shed because its
// deadline expired while queued.
type waiter struct {
	ch       chan bool
	deadline time.Time // zero = no deadline
}

// expired reports whether the waiter's deadline has passed.
func (w *waiter) expired(now time.Time) bool {
	return !w.deadline.IsZero() && !w.deadline.After(now)
}

// Admission is a slot semaphore with bounded, prioritized,
// deadline-aware waiting: interactive waiters are granted freed slots
// before batch waiters, within a lane the earliest deadline is served
// first (no deadline sorts last, FIFO among equals), waiters whose
// deadline expired while queued are shed before they can consume a
// slot, each lane fast-fails past its depth watermark, and queue depths
// are observable even when the watermarks are disabled. All methods are
// safe for concurrent use.
type Admission struct {
	cfg AdmissionConfig

	mu   sync.Mutex
	free int
	// Waiter queues per lane, in arrival order; release picks by
	// deadline, not position. A granted waiter receives its slot
	// directly (free is not incremented in between).
	queue [2][]*waiter
}

// NewAdmission builds a controller with capacity free slots.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Admission{cfg: cfg, free: cfg.Capacity}
}

// retryAfter resolves the back-off hint for one rejection.
func (a *Admission) retryAfter() time.Duration {
	if a.cfg.RetryAfterFn != nil {
		if d := a.cfg.RetryAfterFn(); d > 0 {
			return d
		}
	}
	return a.cfg.RetryAfter
}

// laneMax returns the watermark for a lane (0 = unbounded).
func (a *Admission) laneMax(p Priority) int {
	if p == Batch {
		return a.cfg.MaxBatchQueue
	}
	return a.cfg.MaxQueue
}

// granted reports one grant's queue sojourn to the OnSojourn observer.
// Called without a.mu held.
func (a *Admission) granted(p Priority, wait time.Duration) {
	if a.cfg.OnSojourn != nil {
		a.cfg.OnSojourn(p, wait)
	}
}

// notifyDepth reports a lane's current depth. Called with a.mu held.
func (a *Admission) notifyDepth(p Priority) {
	if a.cfg.OnDepth != nil {
		a.cfg.OnDepth(p, len(a.queue[p]))
	}
}

// Acquire obtains a slot, queueing in the lane for p if none is free.
// It returns a release function that must be called exactly once when
// the work completes. When the lane's queue is at its watermark it
// returns a *RejectError immediately — the fast-fail path. While
// queued, the request's ctx deadline becomes its admission deadline:
// release hands freed slots to the earliest deadline first, and a
// waiter whose deadline expires before a slot frees is shed with a
// *ShedError rather than granted a worker it can no longer use. When
// ctx expires while queued it returns ctx.Err() (or the ShedError if
// the controller shed it in the same instant).
func (a *Admission) Acquire(ctx context.Context, p Priority) (release func(), err error) {
	a.mu.Lock()
	if a.free > 0 {
		a.free--
		a.mu.Unlock()
		a.granted(p, 0)
		return a.release, nil
	}
	if max := a.laneMax(p); max > 0 && len(a.queue[p]) >= max {
		depth := len(a.queue[p])
		a.mu.Unlock()
		return nil, &RejectError{Priority: p, Depth: depth, RetryAfter: a.retryAfter()}
	}
	w := &waiter{ch: make(chan bool, 1)}
	if dl, ok := ctx.Deadline(); ok {
		w.deadline = dl
	}
	a.queue[p] = append(a.queue[p], w)
	a.notifyDepth(p)
	a.mu.Unlock()

	enqueued := a.cfg.Clock()
	select {
	case ok := <-w.ch:
		if !ok {
			return nil, &ShedError{Priority: p, Waited: a.cfg.Clock().Sub(enqueued)}
		}
		a.granted(p, a.cfg.Clock().Sub(enqueued))
		return a.release, nil
	case <-ctx.Done():
		a.mu.Lock()
		removed := false
		q := a.queue[p]
		for i, qw := range q {
			if qw == w {
				a.queue[p] = append(q[:i:i], q[i+1:]...)
				removed = true
				break
			}
		}
		a.notifyDepth(p)
		a.mu.Unlock()
		if !removed {
			// The waiter was signaled between ctx firing and the lock.
			// Signals are sent under a.mu, so the buffered value is
			// already there: a granted slot is passed on instead of
			// leaked; a shed needs nothing released.
			if ok := <-w.ch; ok {
				a.release()
			}
		}
		return nil, ctx.Err()
	}
}

// release returns a slot. Expired waiters are shed first — they are
// already past their deadline, so granting them a worker would be pure
// waste — then the slot goes to the interactive waiter with the
// earliest deadline, then batch, then back to the free pool. Waiters
// without a deadline sort after every deadline-bearing waiter, FIFO
// among themselves.
func (a *Admission) release() {
	a.mu.Lock()
	now := a.cfg.Clock()
	for _, p := range [...]Priority{Interactive, Batch} {
		a.shedExpired(p, now)
		if best := a.takeEarliest(p); best != nil {
			a.notifyDepth(p)
			best.ch <- true
			a.mu.Unlock()
			return
		}
	}
	a.free++
	a.mu.Unlock()
}

// shedExpired removes and sheds every waiter in the lane whose deadline
// has already passed. Called with a.mu held.
func (a *Admission) shedExpired(p Priority, now time.Time) {
	q := a.queue[p]
	kept := q[:0]
	for _, w := range q {
		if w.expired(now) {
			w.ch <- false
			if a.cfg.OnShed != nil {
				a.cfg.OnShed(p)
			}
			continue
		}
		kept = append(kept, w)
	}
	if len(kept) != len(q) {
		for i := len(kept); i < len(q); i++ {
			q[i] = nil
		}
		a.queue[p] = kept
		a.notifyDepth(p)
	}
}

// takeEarliest removes and returns the lane's earliest-deadline waiter
// (no deadline = latest; FIFO among equals), or nil when the lane is
// empty. Called with a.mu held.
func (a *Admission) takeEarliest(p Priority) *waiter {
	q := a.queue[p]
	if len(q) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(q); i++ {
		bd, id := q[best].deadline, q[i].deadline
		if bd.IsZero() {
			if !id.IsZero() {
				best = i
			}
			continue
		}
		if !id.IsZero() && id.Before(bd) {
			best = i
		}
	}
	w := q[best]
	a.queue[p] = append(q[:best:best], q[best+1:]...)
	return w
}

// Depth reports a lane's current queue depth.
func (a *Admission) Depth(p Priority) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue[p])
}

// InUse reports the number of slots currently held.
func (a *Admission) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.Capacity - a.free
}
