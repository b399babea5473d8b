package obs

import (
	"context"
	"runtime/pprof"
)

// Do runs f with a pprof "stage" label attached to the context and the
// current goroutine, so CPU and alloc profiles decompose by pipeline
// stage. Goroutines started inside f inherit the label set; code that
// spawns workers from a stored context (the ILP worker pool)
// re-applies labels explicitly via pprof.Do.
//
// The labeled context is passed to f and must be the one propagated
// onward — labels ride the context, not the goroutine, across
// boundaries that switch goroutines.
func Do(ctx context.Context, stage string, f func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("stage", stage), f)
}

// Label reads one pprof label off the context ("" when absent) — for
// tests asserting label propagation.
func Label(ctx context.Context, key string) string {
	v, _ := pprof.Label(ctx, key)
	return v
}
