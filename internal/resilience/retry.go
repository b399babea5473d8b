package resilience

import (
	"fmt"
	"time"
)

// RetryBudgetError is the refusal of a per-session retry budget that
// the engine no longer has: a labelled retry passes the same admission
// as a first attempt, so nothing returns this error any more. The type
// stays only because the perfbench module still names it when it
// tallies rejections; it goes once perfbench stops naming it.
type RetryBudgetError struct {
	// RetryAfter is the suggested client back-off.
	RetryAfter time.Duration
}

// Error describes the refusal.
func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("resilience: retry budget exhausted, retry after %s", e.RetryAfter)
}
