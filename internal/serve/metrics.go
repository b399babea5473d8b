package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muve/internal/obs"
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

// Metrics is the engine's observability registry. All fields are safe
// for concurrent use; reading them never blocks request processing.
type Metrics struct {
	// Requests counts every Engine.Do call.
	Requests Counter
	// CacheHits/CacheMisses count shared answer-cache lookups.
	CacheHits   Counter
	CacheMisses Counter
	// SessionHits counts answers served from per-session state.
	SessionHits Counter
	// Coalesced counts requests that piggybacked on another's planning.
	Coalesced Counter
	// Fallbacks counts planning calls degraded to the fallback planner
	// after the primary missed its deadline.
	Fallbacks Counter
	// Timeouts counts requests that exhausted their budget entirely.
	Timeouts Counter
	// Errors counts failed requests (planner errors and timeouts).
	Errors Counter
	// InFlight gauges requests currently inside Engine.Do.
	InFlight Gauge
	// Panics counts panics contained by the recovery middleware or the
	// degradation ladder instead of crashing the process.
	Panics Counter
	// RejectedInteractive/RejectedBatch count admission fast-fails (429s)
	// per priority lane.
	RejectedInteractive Counter
	RejectedBatch       Counter
	// Exhausted counts requests for which every ladder rung failed (503s).
	Exhausted Counter
	// QueueInteractive/QueueBatch gauge the admission queue depth per
	// lane. They are exported even when admission control is disabled so
	// an unbounded backlog is still visible on /metrics.
	QueueInteractive Gauge
	QueueBatch       Gauge
	// SojournInteractive/SojournBatch observe admission queue sojourn —
	// enqueue to slot grant, 0 for fast-path grants — per lane.
	SojournInteractive Histogram
	SojournBatch       Histogram
	// Retries counts requests carrying a retry ordinal (Attempt > 0);
	// RetryDenied counts those refused by the retry budget.
	Retries     Counter
	RetryDenied Counter
	// HedgeStarted counts exact solves that reached the hedge point
	// (the windowed p90) and launched a concurrent greedy hedge.
	HedgeStarted Counter
	// HedgeDenied counts hedge launches refused because the hedge token
	// bucket was empty — the backpressure that keeps a hedging storm
	// from oversubscribing the solver worker split.
	HedgeDenied Counter
	// ScanPasses/ScanRows/ScanCandidates count shared-scan table passes,
	// the rows those passes covered, and the candidate aggregates they
	// answered; candidates÷passes is the live sharing factor.
	ScanPasses     Counter
	ScanRows       Counter
	ScanCandidates Counter
	// ScanPredicates/ScanSharedPredicates count predicate instances
	// across candidates vs distinct predicates actually evaluated; the
	// difference is work the scan deduplicated away.
	ScanPredicates       Counter
	ScanSharedPredicates Counter
	// ScanGroups counts output groups emitted for grouped candidates;
	// ScanAggs counts aggregate accumulators maintained (aggs −
	// candidates is the multi-aggregate ride-along).
	ScanGroups Counter
	ScanAggs   Counter
	// SketchHits/SketchBuilds count candidate values answered from
	// precomputed aggregate sketches, and sketch (re)builds.
	SketchHits   Counter
	SketchBuilds Counter
	// DrainCancelled counts in-flight plans cancelled by Engine.Close.
	DrainCancelled Counter
	// SpeakRequests counts requests asking for the voice answer mode.
	SpeakRequests Counter
	// SpeakFacts/SpeakWords accumulate the facts and estimated spoken
	// words across served voice answers; their ratio to SpeakRequests
	// gives the average answer size at a glance.
	SpeakFacts Counter
	SpeakWords Counter
	// Planning observes planner-call latency (cache misses only).
	Planning Histogram
	// EndToEnd observes full Engine.Do latency (hits and misses).
	EndToEnd Histogram

	// stageMu guards the label maps below; the hot path takes it only
	// long enough to look up (or lazily create) a pointer, and the
	// pointed-to Histogram/Counter are then updated lock-free.
	stageMu          sync.RWMutex
	stages           map[string]*Histogram
	fallbacksByStage map[string]*Counter
	ladderRungs      map[string]*Counter
	speakRungs       map[string]*Counter
	breakerTrips     map[string]*Counter
	breakerStates    map[string]*Gauge
	warmstarts       map[string]*Counter
	hedgeWins        map[string]*Counter
	snapshotSkips    map[string]*Counter
	sheds            map[string]*Counter
}

// labeledCounter looks up (or lazily creates) the counter for key in
// the given label family. The family pointer must be one of Metrics'
// stageMu-guarded maps.
func (m *Metrics) labeledCounter(family *map[string]*Counter, key string) *Counter {
	m.stageMu.RLock()
	c := (*family)[key]
	m.stageMu.RUnlock()
	if c != nil {
		return c
	}
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	if c = (*family)[key]; c != nil {
		return c
	}
	if *family == nil {
		*family = make(map[string]*Counter)
	}
	c = &Counter{}
	(*family)[key] = c
	return c
}

// LadderRung counts one answer served from the named degradation-ladder
// rung (exact, greedy, stale, minimal).
func (m *Metrics) LadderRung(rung string) {
	m.labeledCounter(&m.ladderRungs, rung).Inc()
}

// SpeakRung counts one voice answer served from the named
// degradation-ladder rung, rendered as muve_speak_rung_total. Voice
// requests also count in the shared ladder family; this one isolates
// the voice modality's health.
func (m *Metrics) SpeakRung(rung string) {
	m.labeledCounter(&m.speakRungs, rung).Inc()
}

// WarmStart counts one ILP planning call's warm-start outcome
// (hit|partial|infeasible|none), rendered as muve_warmstart_total.
// Callers skip the call entirely for solves without a hint surface.
func (m *Metrics) WarmStart(result string) {
	m.labeledCounter(&m.warmstarts, result).Inc()
}

// HedgeWin counts one hedged exact rung resolved by the named winner
// ("exact" or "hedge"), rendered as muve_hedge_total{winner}.
func (m *Metrics) HedgeWin(winner string) {
	m.labeledCounter(&m.hedgeWins, winner).Inc()
}

// HedgeWins snapshots the hedge-race winner counters
// (muve_hedge_total) for harness reports.
func (m *Metrics) HedgeWins() map[string]uint64 {
	m.stageMu.RLock()
	defer m.stageMu.RUnlock()
	out := make(map[string]uint64, len(m.hedgeWins))
	for k, c := range m.hedgeWins {
		out[k] = c.Value()
	}
	return out
}

// SnapshotSkipped counts one drain-snapshot restore refused for the
// given reason (truncated|corrupt|stale|mismatch), rendered as
// muve_snapshot_skipped_total{reason}.
func (m *Metrics) SnapshotSkipped(reason string) {
	m.labeledCounter(&m.snapshotSkips, reason).Inc()
}

// AdmissionShed counts one queued waiter shed because its deadline had
// already passed before a slot freed, rendered as
// muve_admission_shed_total{priority}.
func (m *Metrics) AdmissionShed(priority string) {
	m.labeledCounter(&m.sheds, priority).Inc()
}

// RecordScan folds one answer's shared-scan stats into the registry.
func (m *Metrics) RecordScan(st sqldb.ScanStats) {
	if st.Empty() {
		return
	}
	m.ScanPasses.Add(uint64(st.Scans))
	m.ScanRows.Add(uint64(st.Rows))
	m.ScanCandidates.Add(uint64(st.Candidates))
	m.ScanPredicates.Add(uint64(st.Predicates))
	m.ScanSharedPredicates.Add(uint64(st.SharedPredicates))
	m.ScanGroups.Add(uint64(st.Groups))
	m.ScanAggs.Add(uint64(st.Aggregates))
	m.SketchHits.Add(uint64(st.SketchHits))
	m.SketchBuilds.Add(uint64(st.SketchBuilds))
}

// BreakerTrip counts one circuit-breaker trip for the given stage.
func (m *Metrics) BreakerTrip(stage string) {
	m.labeledCounter(&m.breakerTrips, stage).Inc()
}

// SetBreakerState records a stage breaker's current state as a gauge
// (0 closed, 1 open, 2 half-open, matching resilience.BreakerState).
func (m *Metrics) SetBreakerState(stage string, state int64) {
	m.stageMu.RLock()
	g := m.breakerStates[stage]
	m.stageMu.RUnlock()
	if g == nil {
		m.stageMu.Lock()
		if g = m.breakerStates[stage]; g == nil {
			if m.breakerStates == nil {
				m.breakerStates = make(map[string]*Gauge)
			}
			g = &Gauge{}
			m.breakerStates[stage] = g
		}
		m.stageMu.Unlock()
	}
	g.Set(state)
}

// Stage returns the latency histogram for one pipeline stage (speech,
// phonetic, nlq, solver, progressive, viz, ...), creating it on first
// use. Safe for concurrent use.
func (m *Metrics) Stage(stage string) *Histogram {
	m.stageMu.RLock()
	h := m.stages[stage]
	m.stageMu.RUnlock()
	if h != nil {
		return h
	}
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	if h = m.stages[stage]; h != nil {
		return h
	}
	if m.stages == nil {
		m.stages = make(map[string]*Histogram)
	}
	h = &Histogram{}
	m.stages[stage] = h
	return h
}

// StageFallback counts one primary-planner deadline miss blamed on the
// given pipeline stage (the stage the trace was in when time ran out).
func (m *Metrics) StageFallback(stage string) {
	m.labeledCounter(&m.fallbacksByStage, stage).Inc()
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
		m.Stage(sp.Stage).ObserveExemplar(sp.Dur, tr.ID)
	}
}

// sortedKeys returns the map's keys in stable order for rendering.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// copyCounters snapshots one label family under the caller-held lock.
func copyCounters(src map[string]*Counter) map[string]*Counter {
	dst := make(map[string]*Counter, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// writeCounterFamily renders a labeled counter family; empty families
// are omitted entirely.
func writeCounterFamily(w io.Writer, name, label string, family map[string]*Counter) {
	if len(family) == 0 {
		return
	}
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	for _, k := range sortedKeys(family) {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, family[k].Value())
	}
}

// writeHistogram renders one histogram in Prometheus text format.
func writeHistogram(w io.Writer, name string, h *Histogram) {
	counts, sum, count := h.Snapshot()
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, c := range counts {
		cum += c
		if i < len(histBuckets) {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", histBuckets[i].Seconds()), cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		}
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, time.Duration(sum).Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}

// writeStageHistograms renders the per-stage histogram family: one
// bucket/sum/count series per stage label under a single # TYPE header.
// Buckets that captured an exemplar append it in OpenMetrics syntax
// (`# {trace_id="..."} value timestamp`) so scrape UIs can jump from a
// slow bucket straight to the trace in /debug/traces.
func writeStageHistograms(w io.Writer, name string, stages map[string]*Histogram, keys []string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for _, stage := range keys {
		h := stages[stage]
		counts, sum, count := h.Snapshot()
		var cum uint64
		for i, c := range counts {
			cum += c
			le := "+Inf"
			if i < len(histBuckets) {
				le = fmt.Sprintf("%g", histBuckets[i].Seconds())
			}
			fmt.Fprintf(w, "%s_bucket{stage=%q,le=%q} %d", name, stage, le, cum)
			if ex := h.ExemplarAt(i); ex != nil {
				fmt.Fprintf(w, " # {trace_id=%q} %g %.3f", ex.TraceID, ex.Value, ex.Unix)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s_sum{stage=%q} %g\n", name, stage, time.Duration(sum).Seconds())
		fmt.Fprintf(w, "%s_count{stage=%q} %d\n", name, stage, count)
	}
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
func (m *Metrics) WriteProm(w io.Writer) {
	counters := []struct {
		name string
		c    *Counter
	}{
		{"muve_requests_total", &m.Requests},
		{"muve_cache_hits_total", &m.CacheHits},
		{"muve_cache_misses_total", &m.CacheMisses},
		{"muve_session_hits_total", &m.SessionHits},
		{"muve_coalesced_total", &m.Coalesced},
		{"muve_fallbacks_total", &m.Fallbacks},
		{"muve_timeouts_total", &m.Timeouts},
		{"muve_errors_total", &m.Errors},
		{"muve_panics_total", &m.Panics},
		{"muve_exhausted_total", &m.Exhausted},
		{"muve_speak_requests_total", &m.SpeakRequests},
		{"muve_speak_facts_total", &m.SpeakFacts},
		{"muve_speak_words_total", &m.SpeakWords},
		{"muve_retries_total", &m.Retries},
		{"muve_retry_denied_total", &m.RetryDenied},
		{"muve_hedge_started_total", &m.HedgeStarted},
		{"muve_hedge_denied_total", &m.HedgeDenied},
		{"muve_drain_cancelled_total", &m.DrainCancelled},
		{"muve_scan_passes_total", &m.ScanPasses},
		{"muve_scan_rows_total", &m.ScanRows},
		{"muve_scan_candidates_total", &m.ScanCandidates},
		{"muve_scan_predicates_total", &m.ScanPredicates},
		{"muve_scan_shared_predicates_total", &m.ScanSharedPredicates},
		{"muve_scan_groups_total", &m.ScanGroups},
		{"muve_scan_aggs_total", &m.ScanAggs},
		{"muve_scan_sketch_hits_total", &m.SketchHits},
		{"muve_scan_sketch_builds_total", &m.SketchBuilds},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.c.Value())
	}
	fmt.Fprintf(w, "# TYPE muve_rejected_total counter\n")
	fmt.Fprintf(w, "muve_rejected_total{priority=\"interactive\"} %d\n", m.RejectedInteractive.Value())
	fmt.Fprintf(w, "muve_rejected_total{priority=\"batch\"} %d\n", m.RejectedBatch.Value())
	fmt.Fprintf(w, "# TYPE muve_inflight gauge\nmuve_inflight %d\n", m.InFlight.Value())
	fmt.Fprintf(w, "# TYPE muve_queue_depth gauge\n")
	fmt.Fprintf(w, "muve_queue_depth{priority=\"interactive\"} %d\n", m.QueueInteractive.Value())
	fmt.Fprintf(w, "muve_queue_depth{priority=\"batch\"} %d\n", m.QueueBatch.Value())
	writeHistogram(w, "muve_planning_seconds", &m.Planning)
	writeHistogram(w, "muve_request_seconds", &m.EndToEnd)
	if m.SojournInteractive.Count() > 0 || m.SojournBatch.Count() > 0 {
		writeHistogram(w, "muve_sojourn_interactive_seconds", &m.SojournInteractive)
		writeHistogram(w, "muve_sojourn_batch_seconds", &m.SojournBatch)
	}
	m.stageMu.RLock()
	stages := make(map[string]*Histogram, len(m.stages))
	for k, v := range m.stages {
		stages[k] = v
	}
	fallbacks := copyCounters(m.fallbacksByStage)
	rungs := copyCounters(m.ladderRungs)
	speakRungs := copyCounters(m.speakRungs)
	trips := copyCounters(m.breakerTrips)
	warms := copyCounters(m.warmstarts)
	hedges := copyCounters(m.hedgeWins)
	snapSkips := copyCounters(m.snapshotSkips)
	sheds := copyCounters(m.sheds)
	states := make(map[string]*Gauge, len(m.breakerStates))
	for k, v := range m.breakerStates {
		states[k] = v
	}
	m.stageMu.RUnlock()
	if len(stages) > 0 {
		writeStageHistograms(w, "muve_stage_seconds", stages, sortedKeys(stages))
	}
	writeCounterFamily(w, "muve_fallbacks_by_stage_total", "stage", fallbacks)
	writeCounterFamily(w, "muve_ladder_rung_total", "rung", rungs)
	writeCounterFamily(w, "muve_speak_rung_total", "rung", speakRungs)
	writeCounterFamily(w, "muve_breaker_trips_total", "stage", trips)
	writeCounterFamily(w, "muve_warmstart_total", "result", warms)
	writeCounterFamily(w, "muve_hedge_total", "winner", hedges)
	writeCounterFamily(w, "muve_snapshot_skipped_total", "reason", snapSkips)
	writeCounterFamily(w, "muve_admission_shed_total", "priority", sheds)
	if len(states) > 0 {
		fmt.Fprintf(w, "# TYPE muve_breaker_state gauge\n")
		for _, k := range sortedKeys(states) {
			fmt.Fprintf(w, "muve_breaker_state{stage=%q} %d\n", k, states[k].Value())
		}
	}
}

// VarsHandler serves the registry as a JSON object (for the
// /debug/vars endpoint), including derived p50/p95/p99 latencies in
// milliseconds for quick eyeballing and the resilience label families
// (queue depth, ladder rungs, breaker state).
func (m *Metrics) VarsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		hist := func(h *Histogram) map[string]any {
			return map[string]any{
				"count": h.Count(), "mean": ms(h.Mean()),
				"p50": ms(h.Quantile(0.50)), "p95": ms(h.Quantile(0.95)), "p99": ms(h.Quantile(0.99)),
			}
		}
		counterValues := func(family map[string]*Counter) map[string]uint64 {
			out := make(map[string]uint64, len(family))
			for k, v := range family {
				out[k] = v.Value()
			}
			return out
		}
		m.stageMu.RLock()
		rungs := counterValues(m.ladderRungs)
		speakRungs := counterValues(m.speakRungs)
		trips := counterValues(m.breakerTrips)
		warms := counterValues(m.warmstarts)
		hedges := counterValues(m.hedgeWins)
		snapSkips := counterValues(m.snapshotSkips)
		sheds := counterValues(m.sheds)
		states := make(map[string]int64, len(m.breakerStates))
		for k, v := range m.breakerStates {
			states[k] = v.Value()
		}
		m.stageMu.RUnlock()
		vars := map[string]any{
			"requests":     m.Requests.Value(),
			"cache_hits":   m.CacheHits.Value(),
			"cache_misses": m.CacheMisses.Value(),
			"session_hits": m.SessionHits.Value(),
			"coalesced":    m.Coalesced.Value(),
			"fallbacks":    m.Fallbacks.Value(),
			"timeouts":     m.Timeouts.Value(),
			"errors":       m.Errors.Value(),
			"panics":       m.Panics.Value(),
			"exhausted":    m.Exhausted.Value(),
			"inflight":     m.InFlight.Value(),
			"rejected": map[string]uint64{
				"interactive": m.RejectedInteractive.Value(),
				"batch":       m.RejectedBatch.Value(),
			},
			"queue_depth": map[string]int64{
				"interactive": m.QueueInteractive.Value(),
				"batch":       m.QueueBatch.Value(),
			},
			"sojourn_ms": map[string]any{
				"interactive": hist(&m.SojournInteractive),
				"batch":       hist(&m.SojournBatch),
			},
			"retries": map[string]uint64{
				"attempted": m.Retries.Value(),
				"denied":    m.RetryDenied.Value(),
			},
			"hedge": map[string]any{
				"started": m.HedgeStarted.Value(),
				"denied":  m.HedgeDenied.Value(),
				"wins":    hedges,
			},
			"scan": map[string]uint64{
				"passes":            m.ScanPasses.Value(),
				"rows":              m.ScanRows.Value(),
				"candidates":        m.ScanCandidates.Value(),
				"predicates":        m.ScanPredicates.Value(),
				"shared_predicates": m.ScanSharedPredicates.Value(),
				"groups":            m.ScanGroups.Value(),
				"aggs":              m.ScanAggs.Value(),
				"sketch_hits":       m.SketchHits.Value(),
				"sketch_builds":     m.SketchBuilds.Value(),
			},
			"snapshot_skipped": snapSkips,
			"admission_shed":   sheds,
			"drain_cancelled":  m.DrainCancelled.Value(),
			"ladder_rungs":     rungs,
			"speak_rungs":      speakRungs,
			"speak": map[string]uint64{
				"requests": m.SpeakRequests.Value(),
				"facts":    m.SpeakFacts.Value(),
				"words":    m.SpeakWords.Value(),
			},
			"breaker_trips":  trips,
			"breaker_states": states,
			"warmstarts":     warms,
			"planning_ms":    hist(&m.Planning),
			"request_ms":     hist(&m.EndToEnd),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(vars)
	})
}
