// Package procs is the process-wide helper-goroutine budget shared by
// every CPU-parallel section: the branch-and-bound pool in internal/ilp
// and the shared scan in internal/sqldb. A lone section gets every CPU,
// and overlapping sections share GOMAXPROCS instead of each starting a
// full pool and oversubscribing the machine.
//
// A section counts its own goroutine and reserves helpers with Enter,
// and gives all of them back with Leave when it returns:
//
//	helpers := procs.Enter(want - 1)
//	defer procs.Leave(helpers)
package procs

import (
	"runtime"
	"sync/atomic"
)

// Running counts the goroutines of every budgeted section in the
// process: each section's own goroutine plus the helpers it reserved.
// Outside tests only Enter, Acquire and Leave change it.
var Running atomic.Int64

// Acquire reserves up to want helper goroutines, as many as keep
// Running within GOMAXPROCS, and returns how many it reserved. The
// caller gives them back with Running.Add(-n) (or Leave).
func Acquire(want int) int {
	limit := int64(runtime.GOMAXPROCS(0))
	for {
		cur := Running.Load()
		n := min(int64(want), limit-cur)
		if n <= 0 {
			return 0
		}
		if Running.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
}

// Enter counts the calling goroutine and reserves up to want helpers
// for it, returning how many it reserved.
func Enter(want int) int {
	Running.Add(1)
	return Acquire(want)
}

// Leave gives back the calling goroutine and the helpers Enter granted.
func Leave(helpers int) {
	Running.Add(-1 - int64(helpers))
}
