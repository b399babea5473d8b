// Go runtime gauges via runtime/metrics: heap and GC pressure,
// goroutine counts, scheduler latency and GC pause distributions,
// exported in Prometheus text form as the muve_go_* family. These are
// the denominators of every latency investigation — a p99 spike reads
// very differently next to a 50ms GC pause than next to a flat one.
package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"
)

// goMetric maps one runtime/metrics sample to an exported name.
type goMetric struct {
	name   string // runtime/metrics key
	export string // muve_go_* name
	help   string
}

var goGauges = []goMetric{
	{"/memory/classes/heap/objects:bytes", "muve_go_heap_objects_bytes", "live heap object bytes"},
	{"/memory/classes/total:bytes", "muve_go_memory_total_bytes", "all memory mapped by the Go runtime"},
	{"/sched/goroutines:goroutines", "muve_go_goroutines", "live goroutines"},
	{"/gc/cycles/total:gc-cycles", "muve_go_gc_cycles_total", "completed GC cycles"},
	{"/gc/heap/allocs:bytes", "muve_go_heap_allocs_bytes_total", "cumulative bytes allocated"},
}

var goHists = []goMetric{
	{"/sched/pauses/total/gc:seconds", "muve_go_gc_pause_seconds", "stop-the-world GC pause distribution"},
	{"/sched/latencies:seconds", "muve_go_sched_latency_seconds", "time goroutines spend runnable before running"},
}

// GoStats reads the Go runtime's own metrics and renders them as
// muve_go_* gauges and quantile series. All methods are safe for
// concurrent use.
type GoStats struct {
	mu      sync.Mutex
	samples []metrics.Sample
}

// NewGoStats builds a reader over the fixed metric set.
func NewGoStats() *GoStats {
	g := &GoStats{}
	for _, m := range goGauges {
		g.samples = append(g.samples, metrics.Sample{Name: m.name})
	}
	for _, m := range goHists {
		g.samples = append(g.samples, metrics.Sample{Name: m.name})
	}
	return g
}

// histQuantile interpolates q from a runtime/metrics histogram.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank {
			// Buckets[i], Buckets[i+1] bound count i; the edges can be
			// ±Inf, in which case fall back to the finite neighbor.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 || lo != lo { // -Inf or NaN
				lo = 0
			}
			if hi > 1e18 || hi != hi { // +Inf or NaN
				hi = lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}

// WriteProm renders the current runtime metrics in Prometheus text
// form. Metrics the running toolchain doesn't export are skipped.
func (g *GoStats) WriteProm(w io.Writer) {
	g.mu.Lock()
	metrics.Read(g.samples)
	vals := make(map[string]metrics.Value, len(g.samples))
	for _, s := range g.samples {
		vals[s.Name] = s.Value
	}
	g.mu.Unlock()

	for _, m := range goGauges {
		v, ok := vals[m.name]
		if !ok {
			continue
		}
		var f float64
		switch v.Kind() {
		case metrics.KindUint64:
			f = float64(v.Uint64())
		case metrics.KindFloat64:
			f = v.Float64()
		default:
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", m.export, m.help, m.export, m.export, f)
	}
	for _, m := range goHists {
		v, ok := vals[m.name]
		if !ok || v.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		h := v.Float64Histogram()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", m.export, m.help, m.export)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(w, "%s{quantile=%q} %g\n", m.export, fmt.Sprintf("%g", q), histQuantile(h, q))
		}
	}
}

// Snapshot returns the scalar gauges as a name→value map (for incident
// bundles and tests).
func (g *GoStats) Snapshot() map[string]float64 {
	g.mu.Lock()
	metrics.Read(g.samples)
	out := make(map[string]float64)
	for _, s := range g.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	g.mu.Unlock()
	return out
}

// Run refreshes the samples every interval until ctx is done, keeping
// the most recent read warm for Snapshot callers on the incident path.
func (g *GoStats) Run(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = 10 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.Snapshot()
		}
	}
}

// Handler serves WriteProm over HTTP.
func (g *GoStats) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		g.WriteProm(w)
	})
}
