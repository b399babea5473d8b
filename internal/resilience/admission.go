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
	// OnDepth, when non-nil, is called with a lane's queue depth every
	// time it changes (under the controller's lock — keep it to a
	// gauge store).
	OnDepth func(p Priority, depth int)
	// OnSojourn, when non-nil, observes every granted request's queue
	// sojourn (0 for fast-path grants) — e.g. into a metrics histogram.
	// Called outside the admission lock.
	OnSojourn func(p Priority, d time.Duration)
}

// Admission is a slot semaphore with two FIFO lanes: freed slots go to
// interactive waiters before batch waiters and, within a lane, in
// arrival order. A lane is bounded only by its waiters' contexts: a
// waiter leaves when its ctx ends, and never keeps a slot a grant
// hands it afterwards — it passes the grant on to the next waiter.
// Queue depths and sojourns are observable through the config's
// callbacks. All methods are safe for concurrent use.
type Admission struct {
	cfg AdmissionConfig

	mu   sync.Mutex
	free int
	// Waiter queues per lane, in arrival order. A granted waiter
	// receives its slot directly on its channel (capacity 1; free is
	// not incremented in between).
	queue [2][]chan struct{}
}

// NewAdmission builds a controller with capacity free slots.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	return &Admission{cfg: cfg, free: cfg.Capacity}
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

// Acquire obtains a slot, queueing at the back of the lane for p if
// none is free. It returns a release function that must be called
// exactly once when the work completes. When ctx ends while queued it
// returns ctx.Err(), and a slot granted in the same instant is passed
// on rather than kept.
func (a *Admission) Acquire(ctx context.Context, p Priority) (release func(), err error) {
	a.mu.Lock()
	if a.free > 0 {
		a.free--
		a.mu.Unlock()
		a.granted(p, 0)
		return a.release, nil
	}
	w := make(chan struct{}, 1)
	a.queue[p] = append(a.queue[p], w)
	a.notifyDepth(p)
	a.mu.Unlock()

	enqueued := time.Now()
	select {
	case <-w:
		if err := ctx.Err(); err != nil {
			a.release()
			return nil, err
		}
		a.granted(p, time.Since(enqueued))
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
			// The waiter was granted between ctx ending and the lock.
			// Grants are sent under a.mu, so the slot is already on the
			// channel: pass it on instead of leaking it.
			<-w
			a.release()
		}
		return nil, ctx.Err()
	}
}

// release returns a slot: to the front interactive waiter, else the
// front batch waiter, else the free pool.
func (a *Admission) release() {
	a.mu.Lock()
	for _, p := range [...]Priority{Interactive, Batch} {
		if q := a.queue[p]; len(q) > 0 {
			q[0] <- struct{}{}
			q[0] = nil
			a.queue[p] = q[1:]
			a.notifyDepth(p)
			a.mu.Unlock()
			return
		}
	}
	a.free++
	a.mu.Unlock()
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
