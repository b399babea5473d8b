package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"muve/internal/obs"
	"muve/internal/resilience"
	"muve/internal/sqldb"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; all methods are safe for concurrent use and never
// allocate.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (e.g. in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is obs.Histogram: fixed log-spaced latency buckets (100µs
// doubling to ~26s plus +Inf), atomic Observe, Prometheus-style
// Quantile interpolation and per-bucket trace exemplars. It moved to
// internal/obs so the SLO engine's sliding windows (obs.Windowed)
// reuse the exact same bucket layout; the alias keeps this package's
// registry API unchanged.
type Histogram = obs.Histogram

// histBuckets are the shared bucket upper bounds (see obs.Buckets).
var histBuckets = obs.Buckets()

// Family is a metric family keyed by one open-ended label (a pipeline
// stage, ladder rung, snapshot reason, ...): M is Counter, Gauge or
// Histogram. Children are created on first use and never removed. The
// child map is copy-on-write behind an atomic pointer, so finding an
// existing child takes no lock; only the first use of a label value
// does. The zero value is ready to use.
type Family[M any] struct {
	mu   sync.Mutex // serialises child creation
	kids atomic.Pointer[map[string]*M]
}

func (f *Family[M]) load() map[string]*M {
	if p := f.kids.Load(); p != nil {
		return *p
	}
	return nil
}

// With returns the child for one label value, creating it on first use.
func (f *Family[M]) With(value string) *M {
	if c := f.load()[value]; c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.load()
	if c := old[value]; c != nil {
		return c
	}
	next := make(map[string]*M, len(old)+1)
	maps.Copy(next, old)
	c := new(M)
	next[value] = c
	f.kids.Store(&next)
	return c
}

// series lists the children in label-value order.
func (f *Family[M]) series() []series {
	kids := f.load()
	keys := make([]string, 0, len(kids))
	for k := range kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]series, len(keys))
	for i, k := range keys {
		out[i] = series{[]string{k}, kids[k]}
	}
	return out
}

// Fixed label values. Each const block indexes one Metrics array, and
// the array of strings after it holds the label values in that order.
const (
	LookupSession = iota // answered from per-session state
	LookupCache          // answered from the shared answer cache
	LookupMiss           // went on to coalesced planning
)

var lookupResults = [...]string{"session", "cache", "miss"}

const (
	HedgeDenied = iota // hedge point reached with no hedge token
	HedgeExact         // hedge started; the exact solve finished first
	HedgeWon           // hedge started and finished first
	HedgeFailed        // hedge started; both attempts failed
)

var hedgeOutcomes = [...]string{"denied", "exact", "hedge", "failed"}

const (
	SpeakRequests = iota // requests asking for a voice answer
	SpeakFacts           // facts spoken across served voice answers
	SpeakWords           // estimated words spoken across them
)

var speakStats = [...]string{"requests", "facts", "words"}

const (
	modePlot = iota
	modeVoice
)

var modes = [...]string{"plot", "voice"}

// priorities is indexed by resilience.Priority.
var priorities = [...]string{resilience.Interactive.String(), resilience.Batch.String()}

// scanStats names one stat per sqldb.ScanStats count, in the order
// RecordScan reads them. Workers, a scan's width, is on the trace's
// scan span instead: a total of widths would mean nothing.
var scanStats = [...]string{"passes", "rows", "batches", "candidates", "predicates",
	"shared_predicates", "groups", "aggs", "sketch_hits", "sketch_builds"}

// Metrics is the engine's observability registry. All fields are safe
// for concurrent use; reading them never blocks request processing.
// Children of fixed-label families are array elements, so every
// increment is one atomic add; open-ended labels use a Family. The
// families table below lists what /metrics and /debug/vars render.
type Metrics struct {
	// Requests counts every Engine.Do call.
	Requests Counter
	// Lookups counts each non-refresh request once, by where its answer
	// came from (LookupSession, LookupCache, LookupMiss).
	Lookups [len(lookupResults)]Counter
	// Coalesced counts requests that piggybacked on another's planning.
	Coalesced Counter
	// Fallbacks counts exact-rung failures that descended the ladder,
	// by the pipeline stage blamed for running the budget out.
	Fallbacks Family[Counter]
	// Timeouts counts requests that exhausted their budget entirely.
	Timeouts Counter
	// Errors counts failed requests (planner errors and timeouts).
	Errors Counter
	// Panics counts panics contained by the recovery middleware or the
	// degradation ladder instead of crashing the process.
	Panics Counter
	// Exhausted counts requests for which every ladder rung failed (503s).
	Exhausted Counter
	// Speak counts voice requests and the facts and words of served
	// voice answers (SpeakRequests, SpeakFacts, SpeakWords).
	Speak [len(speakStats)]Counter
	// Hedge counts every hedge point reached (the windowed p90 of
	// planning time) once, by outcome (HedgeDenied, HedgeExact,
	// HedgeWon, HedgeFailed); started hedges are all but the denied.
	Hedge [len(hedgeOutcomes)]Counter
	// DrainCancelled counts in-flight plans cancelled by Engine.Close.
	DrainCancelled Counter
	// Scan accumulates shared-scan work, one counter per sqldb.ScanStats
	// count (see RecordScan).
	Scan [len(scanStats)]Counter
	// InFlight gauges requests currently inside Engine.Do.
	InFlight Gauge
	// QueueDepth gauges the admission queue per resilience.Priority.
	QueueDepth [len(priorities)]Gauge
	// SnapshotSkipped counts drain-snapshot restores refused, by reason
	// (truncated|corrupt|stale|mismatch).
	SnapshotSkipped Family[Counter]
	// BreakerTrips counts circuit-breaker trips by stage.
	BreakerTrips Family[Counter]
	// BreakerState gauges each stage breaker's state (0 closed, 1 open,
	// 2 half-open, matching resilience.BreakerState).
	BreakerState Family[Gauge]
	// WarmStarts counts ILP planning calls by warm-start outcome
	// (hit|partial|infeasible|none).
	WarmStarts Family[Counter]
	// Ladder counts answers by the degradation-ladder rung that served
	// them (exact, hedged, greedy, stale, minimal), per answer mode.
	Ladder [len(modes)]Family[Counter]
	// Planning observes planner-call latency (cache misses only).
	Planning Histogram
	// EndToEnd observes full Engine.Do latency (hits and misses).
	EndToEnd Histogram
	// Sojourn observes admission queue sojourn (enqueue to slot grant,
	// 0 for fast-path grants) per resilience.Priority.
	Sojourn [len(priorities)]Histogram
	// Stages observes per-pipeline-stage latency (speech, phonetic, nlq,
	// solver, progressive, viz, ...) from finished traces.
	Stages Family[Histogram]
}

// series is one child of a family: its label values, in the family's
// label order, and a *Counter, *Gauge or *Histogram.
type series struct {
	values []string
	metric any
}

// one is the single series of an unlabeled family.
func one(metric any) []series { return []series{{metric: metric}} }

// fixed pairs a fixed-label family's values with its children.
func fixed[M any](values []string, kids []M) []series {
	out := make([]series, len(kids))
	for i := range kids {
		out[i] = series{[]string{values[i]}, &kids[i]}
	}
	return out
}

// family is one row of the registry: its Prometheus name (the
// /debug/vars key derives from it, see varsKey), its label names
// outermost first, and the accessor listing its series. The metric
// type follows from the children's Go type.
type family struct {
	name   string
	labels []string
	series func(m *Metrics) []series
}

// families is the registry, in exposition order. WriteProm and
// VarsHandler both render exactly this table.
var families = []family{
	{"muve_requests_total", nil, func(m *Metrics) []series { return one(&m.Requests) }},
	{"muve_lookups_total", []string{"result"}, func(m *Metrics) []series { return fixed(lookupResults[:], m.Lookups[:]) }},
	{"muve_coalesced_total", nil, func(m *Metrics) []series { return one(&m.Coalesced) }},
	{"muve_fallbacks_total", []string{"stage"}, func(m *Metrics) []series { return m.Fallbacks.series() }},
	{"muve_timeouts_total", nil, func(m *Metrics) []series { return one(&m.Timeouts) }},
	{"muve_errors_total", nil, func(m *Metrics) []series { return one(&m.Errors) }},
	{"muve_panics_total", nil, func(m *Metrics) []series { return one(&m.Panics) }},
	{"muve_exhausted_total", nil, func(m *Metrics) []series { return one(&m.Exhausted) }},
	{"muve_speak_total", []string{"stat"}, func(m *Metrics) []series { return fixed(speakStats[:], m.Speak[:]) }},
	{"muve_hedge_total", []string{"outcome"}, func(m *Metrics) []series { return fixed(hedgeOutcomes[:], m.Hedge[:]) }},
	{"muve_drain_cancelled_total", nil, func(m *Metrics) []series { return one(&m.DrainCancelled) }},
	{"muve_scan_total", []string{"stat"}, func(m *Metrics) []series { return fixed(scanStats[:], m.Scan[:]) }},
	{"muve_inflight", nil, func(m *Metrics) []series { return one(&m.InFlight) }},
	{"muve_queue_depth", []string{"priority"}, func(m *Metrics) []series { return fixed(priorities[:], m.QueueDepth[:]) }},
	{"muve_snapshot_skipped_total", []string{"reason"}, func(m *Metrics) []series { return m.SnapshotSkipped.series() }},
	{"muve_breaker_trips_total", []string{"stage"}, func(m *Metrics) []series { return m.BreakerTrips.series() }},
	{"muve_breaker_state", []string{"stage"}, func(m *Metrics) []series { return m.BreakerState.series() }},
	{"muve_warmstart_total", []string{"result"}, func(m *Metrics) []series { return m.WarmStarts.series() }},
	{"muve_ladder_rung_total", []string{"mode", "rung"}, func(m *Metrics) []series {
		var out []series
		for i, mode := range modes {
			for _, s := range m.Ladder[i].series() {
				out = append(out, series{append([]string{mode}, s.values...), s.metric})
			}
		}
		return out
	}},
	{"muve_planning_seconds", nil, func(m *Metrics) []series { return one(&m.Planning) }},
	{"muve_request_seconds", nil, func(m *Metrics) []series { return one(&m.EndToEnd) }},
	{"muve_sojourn_seconds", []string{"priority"}, func(m *Metrics) []series { return fixed(priorities[:], m.Sojourn[:]) }},
	{"muve_stage_seconds", []string{"stage"}, func(m *Metrics) []series { return m.Stages.series() }},
}

// RecordScan folds one answer's shared-scan stats into the registry.
func (m *Metrics) RecordScan(st sqldb.ScanStats) {
	if st.Empty() {
		return
	}
	for i, v := range [len(scanStats)]int64{st.Scans, st.Rows, st.Batches, st.Candidates, st.Predicates,
		st.SharedPredicates, st.Groups, st.Aggregates, st.SketchHits, st.SketchBuilds} {
		m.Scan[i].Add(uint64(v))
	}
}

// ObserveTrace folds a finished trace's spans into the per-stage
// latency histograms, stamping each bucket with the trace's ID as an
// exemplar so /metrics links back to /debug/traces. Zero-duration
// spans are point markers (e.g. the "fallback" blame mark), not
// latencies, and are skipped. A nil trace is a no-op.
func (m *Metrics) ObserveTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	for _, sp := range tr.Spans() {
		if sp.Dur <= 0 {
			continue
		}
		m.Stages.With(sp.Stage).ObserveExemplar(sp.Dur, tr.ID)
	}
}

// promType is the Prometheus type of a family's children.
func promType(metric any) string {
	switch metric.(type) {
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	}
	return "histogram"
}

// labelPairs renders one series' labels as `a="x",b="y"`.
func labelPairs(names, values []string) string {
	pairs := make([]string, len(names))
	for i, n := range names {
		pairs[i] = fmt.Sprintf("%s=%q", n, values[i])
	}
	return strings.Join(pairs, ",")
}

// braced wraps non-empty label pairs in braces.
func braced(lbl string) string {
	if lbl == "" {
		return ""
	}
	return "{" + lbl + "}"
}

// writeHistogram renders one histogram series in Prometheus text
// format. Buckets that captured an exemplar append it in OpenMetrics
// syntax (`# {trace_id="..."} value timestamp`) so scrape UIs can jump
// from a slow bucket straight to the trace in /debug/traces.
func writeHistogram(w io.Writer, name, lbl string, h *Histogram) {
	counts, sum, count := h.Snapshot()
	le := "le="
	if lbl != "" {
		le = lbl + ",le="
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		bound := "+Inf"
		if i < len(histBuckets) {
			bound = fmt.Sprintf("%g", histBuckets[i].Seconds())
		}
		fmt.Fprintf(w, "%s_bucket{%s%q} %d", name, le, bound, cum)
		if ex := h.ExemplarAt(i); ex != nil {
			fmt.Fprintf(w, " # {trace_id=%q} %g %.3f", ex.TraceID, ex.Value, ex.Unix)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braced(lbl), time.Duration(sum).Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(lbl), count)
}

// Handler serves the registry in Prometheus text exposition format
// (for the /metrics endpoint).
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WriteProm(w)
	})
}

// WriteProm renders the registry in Prometheus text exposition format.
// Split out from Handler so incident bundles and composed /metrics
// endpoints can dump the same exposition without an HTTP round trip.
// Open-ended families with no children yet are omitted entirely.
func (m *Metrics) WriteProm(w io.Writer) {
	for _, f := range families {
		ss := f.series(m)
		if len(ss) == 0 {
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, promType(ss[0].metric))
		for _, s := range ss {
			lbl := labelPairs(f.labels, s.values)
			if h, ok := s.metric.(*Histogram); ok {
				writeHistogram(w, f.name, lbl, h)
			} else {
				fmt.Fprintf(w, "%s%s %v\n", f.name, braced(lbl), varsValue(s.metric))
			}
		}
	}
}

// varsKey is a family's /debug/vars key: its name without the muve_
// prefix and _total suffix, with latency families in _ms.
func varsKey(name string) string {
	k := strings.TrimSuffix(strings.TrimPrefix(name, "muve_"), "_total")
	if base, ok := strings.CutSuffix(k, "_seconds"); ok {
		k = base + "_ms"
	}
	return k
}

// varsValue is one series' /debug/vars value: the count or gauge
// level, or a histogram's count, mean and p50/p95/p99 in milliseconds.
func varsValue(metric any) any {
	switch v := metric.(type) {
	case *Counter:
		return v.Value()
	case *Gauge:
		return v.Value()
	}
	h := metric.(*Histogram)
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return map[string]any{
		"count": h.Count(), "mean": ms(h.Mean()),
		"p50": ms(h.Quantile(0.50)), "p95": ms(h.Quantile(0.95)), "p99": ms(h.Quantile(0.99)),
	}
}

// VarsHandler serves the registry as a JSON object (for the
// /debug/vars endpoint): one key per family, a scalar for unlabeled
// families and objects nested by label value otherwise, with
// histograms summarised as derived latencies in milliseconds.
func (m *Metrics) VarsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		vars := make(map[string]any, len(families))
		for _, f := range families {
			ss := f.series(m)
			if len(f.labels) == 0 {
				vars[varsKey(f.name)] = varsValue(ss[0].metric)
				continue
			}
			root := map[string]any{}
			for _, s := range ss {
				node := root
				last := len(s.values) - 1
				for _, v := range s.values[:last] {
					next, _ := node[v].(map[string]any)
					if next == nil {
						next = map[string]any{}
						node[v] = next
					}
					node = next
				}
				node[s.values[last]] = varsValue(s.metric)
			}
			vars[varsKey(f.name)] = root
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(vars)
	})
}
