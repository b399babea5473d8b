package resilience

import (
	"strings"
	"testing"
	"time"
)

func TestRetryBudgetErrorMessage(t *testing.T) {
	err := &RetryBudgetError{RetryAfter: 2 * time.Second}
	if !strings.Contains(err.Error(), "retry budget exhausted") ||
		!strings.Contains(err.Error(), "2s") {
		t.Fatalf("unhelpful error: %q", err.Error())
	}
}
