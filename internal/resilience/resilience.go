// Package resilience is MUVE's overload- and failure-handling layer:
// the mechanisms the serving engine composes around planning so that a
// degraded-but-fast answer is always preferred over a late exact one —
// the paper's own robustness argument (Section 7's interactive budget,
// and the fact-set companion paper's "concise answers beat late ones"
// principle for voice interfaces), promoted from a single fallback
// branch to first-class, observable machinery:
//
//   - Admission: a slot semaphore in front of the worker pool with
//     two FIFO lanes (interactive before batch); a waiter is bounded
//     by its own context, so one whose planning budget runs out while
//     queued fails with that context's error (HTTP 504);
//   - Breaker: one circuit breaker on the expensive exact rung of
//     serve's degradation ladder that trips after consecutive deadline
//     misses, skips that rung entirely while open, and half-opens for
//     one probe request after a cooldown;
//   - Chaos: a seeded fault-injection layer that wraps pipeline stages
//     with latency, error and panic injection — and, under the
//     reserved "http" stage, transport faults (slow or partial writes,
//     stalled reads, mid-response resets, garbage bodies) applied by
//     serve's HTTP chaos middleware — so the ladder, the breaker and
//     the client-facing contract are exercised by tests and by
//     `muvebench -chaos` rather than trusted on faith. Every fault is
//     drawn from one seeded generator in call order: a seed fixes the
//     fault distribution, but with concurrent callers not which
//     request gets which fault.
//
// The degradation ladder itself (exact ILP → greedy → stale cached
// answer → minimal answer) is descended in internal/serve, its only
// user.
//
// The package depends only on the standard library so every layer of
// the pipeline (including muve itself) can import it without cycles.
package resilience

import (
	"fmt"
	"time"
)

// Priority is an admission lane. Interactive traffic (a user waiting
// on a voice answer) is isolated from batch traffic (benchmarks,
// crawlers, prefetchers) so a batch flood cannot starve users.
type Priority uint8

const (
	// Interactive is the default lane: user-facing requests.
	Interactive Priority = iota
	// Batch is the background lane: benchmark and bulk requests.
	Batch
)

// String names the lane.
func (p Priority) String() string {
	if p == Batch {
		return "batch"
	}
	return "interactive"
}

// RejectError is the admission rejection of a queue watermark that the
// engine no longer has: lanes are bounded by their waiters' planning
// budgets, so nothing returns this error any more. The type stays only
// because the perfbench module still names it when it tallies
// rejections; it goes once perfbench stops naming it.
type RejectError struct {
	// Priority is the lane the request was rejected from.
	Priority Priority
	// Depth is the lane's queue depth at rejection time.
	Depth int
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

// Error describes the rejection.
func (e *RejectError) Error() string {
	return fmt.Sprintf("resilience: %s admission queue full (depth %d), retry after %s",
		e.Priority, e.Depth, e.RetryAfter)
}
