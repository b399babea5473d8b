package resilience

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// Closed: the protected path is healthy; requests flow through.
	Closed BreakerState = iota
	// Open: too many consecutive deadline misses; the expensive path
	// is skipped outright until the cooldown elapses.
	Open
	// HalfOpen: cooldown elapsed; one probe request may try the path,
	// deciding whether to close or re-open.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "closed"
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker (default 3).
	Threshold int
	// Cooldown is how long a tripped breaker stays open before
	// half-opening for a probe (default 5s).
	Cooldown time.Duration
	// Now is replaceable in tests.
	Now func() time.Time
	// OnChange, when non-nil, observes every state transition (called
	// under the breaker's lock — keep it to a gauge store).
	OnChange func(to BreakerState)
}

// Breaker is the circuit breaker guarding one expensive path — the
// serving engine's exact planning rung. Consecutive failures, whatever
// stage they are blamed on, add to one streak; at the threshold the
// breaker opens and the path is skipped outright until the cooldown
// elapses, then one probe decides whether it closes or re-opens. All
// methods are safe for concurrent use; a nil *Breaker is a valid no-op
// receiver (breaker disabled).
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	fails    int // consecutive failures
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// set moves the breaker to state, firing OnChange. Called with b.mu held.
func (b *Breaker) set(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if b.cfg.OnChange != nil {
		b.cfg.OnChange(to)
	}
}

// open trips the breaker with a fresh cooldown. Called with b.mu held.
func (b *Breaker) open() {
	b.fails = 0
	b.probing = false
	b.openedAt = b.cfg.Now()
	b.set(Open)
}

// Allow reports whether the protected path may be attempted: always
// while closed, never while open and cooling, and once — the probe —
// after the cooldown, which half-opens the breaker. Every allowed
// attempt must be settled with Result or Release. A nil breaker always
// allows.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.set(HalfOpen)
	case HalfOpen:
		if b.probing {
			return false
		}
	default:
		return true
	}
	b.probing = true
	return true
}

// Result settles one allowed attempt that says something about the
// path's health. Success resets the streak and closes a half-open
// breaker. Failure re-opens a half-open breaker, and otherwise extends
// the streak, tripping at the threshold.
func (b *Breaker) Result(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case ok:
		b.fails = 0
		if b.state == HalfOpen {
			b.probing = false
			b.set(Closed)
		}
	case b.state == HalfOpen:
		b.open()
	default:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.open()
		}
	}
}

// Release settles an allowed attempt that says nothing about the
// path's health — a malformed query, or an exact solve cancelled by a
// winning hedge: a half-open breaker gets its probe back, and the
// streak is left alone.
func (b *Breaker) Release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}
