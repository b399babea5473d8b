package ilp

import "muve/internal/procs"

// running and acquireHelpers name the process-wide helper budget for
// TestSolveWorkerBudget, which pins how Solve draws on it.
var running = &procs.Running

func acquireHelpers(want int) int { return procs.Acquire(want) }
