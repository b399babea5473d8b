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
//   - Ladder: a degradation ladder — an ordered list of rungs (exact
//     ILP → greedy → stale cached answer → minimal single-plot
//     answer), each attempted only while the remaining deadline budget
//     allows, with per-rung budget caps and panic containment;
//   - Breaker / BreakerSet: per-stage circuit breakers that trip after
//     consecutive deadline misses blamed on a stage, skip the
//     expensive rung entirely while open, and half-open with bounded
//     probe requests after a cooldown;
//   - Chaos: a deterministic, seedable fault-injection layer that
//     wraps pipeline stages with latency, error and panic injection —
//     and, under the reserved "http" stage, transport faults (slow or
//     partial writes, stalled reads, mid-response resets, garbage
//     bodies) applied by serve's HTTP chaos middleware — so the
//     ladder, the breakers and the client-facing contract are
//     exercised by tests and by `muvebench -chaos` rather than
//     trusted on faith.
//
// The package depends only on the standard library so every layer of
// the pipeline (including muve itself) can import it without cycles.
package resilience

import (
	"fmt"
	"strings"
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

// SkipError is returned by a ladder Attempt to decline a rung without
// charging it as a failure — e.g. the rung's circuit breaker is open,
// or there is no stale answer to serve. Descend records the skip and
// moves to the next rung.
type SkipError struct {
	// Reason labels the skip for outcomes and traces ("breaker",
	// "no-stale", ...).
	Reason string
}

// Error describes the skip.
func (e *SkipError) Error() string { return "resilience: rung skipped: " + e.Reason }

// ExhaustedError reports that every rung of the ladder was skipped or
// failed: the request cannot be answered, even degraded. Servers
// should map it to HTTP 503. Unwrap exposes the deepest real attempt
// error so errors.Is(err, context.DeadlineExceeded) still works.
type ExhaustedError struct {
	// Outcomes records what happened at each rung, in descent order.
	Outcomes []Outcome
}

// Error summarizes the descent.
func (e *ExhaustedError) Error() string {
	parts := make([]string, 0, len(e.Outcomes))
	for _, o := range e.Outcomes {
		switch {
		case o.Skipped:
			parts = append(parts, o.Rung+": skipped ("+o.Reason+")")
		case o.Err != nil:
			parts = append(parts, o.Rung+": "+o.Err.Error())
		}
	}
	return "resilience: ladder exhausted [" + strings.Join(parts, "; ") + "]"
}

// Unwrap returns the last real (non-skip) attempt error, so error
// classification by errors.Is/As sees through the ladder.
func (e *ExhaustedError) Unwrap() error {
	for i := len(e.Outcomes) - 1; i >= 0; i-- {
		if !e.Outcomes[i].Skipped && e.Outcomes[i].Err != nil {
			return e.Outcomes[i].Err
		}
	}
	return nil
}
