package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused it (-1 for a request's root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Req    int                `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
	// Replay marks a span that re-runs work a later span also does, to
	// attribute it to a layer; it is not on the answer's path.
	Replay bool `json:"replay,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. It is safe for concurrent use.
type tracer struct {
	t0 time.Time
	// allocs makes spans record heap allocation deltas; only meaningful
	// when one request runs at a time.
	allocs bool

	mu    sync.Mutex
	spans []span
}

func newTracer(allocs bool) *tracer {
	return &tracer{t0: time.Now(), allocs: allocs}
}

// open is a started span.
type open struct {
	t       *tracer
	id      int
	mallocs uint64
}

// start opens a span named name under parent (-1 for a root).
func (t *tracer) start(req, parent int, name string) open {
	o := open{t: t}
	if t.allocs {
		o.mallocs = mallocs()
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	o.id = len(t.spans)
	t.spans = append(t.spans, span{ID: o.id, Parent: parent, Req: req, Name: name, Start: int64(now)})
	t.mu.Unlock()
	return o
}

// end closes the span, attaching counts as name/value pairs.
func (o open) end(counts ...any) {
	now := time.Since(o.t.t0)
	var allocs uint64
	if o.t.allocs {
		allocs = mallocs() - o.mallocs
	}
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	s := &o.t.spans[o.id]
	s.End = int64(now)
	if len(counts) > 0 || o.t.allocs {
		s.Counts = map[string]float64{}
	}
	if o.t.allocs {
		s.Counts["allocs"] = float64(allocs)
	}
	for i := 0; i+1 < len(counts); i += 2 {
		s.Counts[counts[i].(string)] = toFloat(counts[i+1])
	}
}

// markReplay flags the span as a replay.
func (o open) markReplay() {
	o.t.mu.Lock()
	o.t.spans[o.id].Replay = true
	o.t.mu.Unlock()
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("perfbench: unsupported span count %T", v))
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// snapshot returns a copy of the spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex answers per-layer questions about a set of spans.
type spanIndex struct {
	spans    []span
	children map[int][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int][]int{}}
	for _, s := range spans {
		if s.Parent >= 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
		}
	}
	return ix
}

// self is a span's duration minus the time its children cover (children
// of one span run one after another).
func (ix *spanIndex) self(id int) time.Duration {
	d := ix.spans[id].dur()
	for _, c := range ix.children[id] {
		d -= ix.spans[c].dur()
	}
	return d
}

// layer summarizes every span named name.
type layer struct {
	n      int
	total  time.Duration
	self   time.Duration
	counts map[string]float64
}

func (ix *spanIndex) layer(name string) layer {
	l := layer{counts: map[string]float64{}}
	for _, s := range ix.spans {
		if s.Name != name {
			continue
		}
		l.n++
		l.total += s.dur()
		l.self += ix.self(s.ID)
		for k, v := range s.Counts {
			l.counts[k] += v
		}
	}
	return l
}

// meanMS, meanUS and meanSelfMS are per-span averages; count is a
// per-span average of a recorded count; sum is its total.
func (l layer) meanMS() float64     { return ratio(ms(l.total), float64(l.n)) }
func (l layer) meanUS() float64     { return ratio(us(l.total), float64(l.n)) }
func (l layer) meanSelfMS() float64 { return ratio(ms(l.self), float64(l.n)) }
func (l layer) count(k string) float64 {
	return ratio(l.counts[k], float64(l.n))
}
func (l layer) sum(k string) float64 { return l.counts[k] }

// requestTimes returns, for every root span named root, its duration
// without replay children and the summed self time of every span below
// it that is not a replay (the time the layers account for).
func (ix *spanIndex) requestTimes(root string) (wall, covered []float64) {
	for _, s := range ix.spans {
		if s.Name != root || s.Parent >= 0 {
			continue
		}
		d := s.dur()
		var cov time.Duration
		stack := append([]int(nil), ix.children[s.ID]...)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if ix.spans[id].Replay {
				d -= ix.spans[id].dur()
				continue
			}
			cov += ix.self(id)
			stack = append(stack, ix.children[id]...)
		}
		wall = append(wall, ms(d))
		covered = append(covered, ms(cov))
	}
	return wall, covered
}

// perLayer is the full per-layer metric set. Every name is reported on
// every workload; a layer a workload does not run reports 0.
//
// untracedP50 and tracedP50 are the median latencies of untraced and
// traced answers in the same run; their difference is the tracing
// overhead, and the layers' summed self time over untracedP50 is the
// share of an answer the trace accounts for.
func perLayer(res *result, ix *spanIndex, untracedP50, tracedP50, lagP99 float64, srv serveCounts) {
	exec := ix.layer("sqldb.exec")
	res.set("sqldb.exec_ms", "ms", exec.meanMS())
	res.set("sqldb.rows_scanned", "count", exec.count("rows"))
	res.set("sqldb.scans", "count", exec.count("scans"))
	res.set("sqldb.shared_pred_ratio", "ratio", ratio(exec.sum("shared_preds"), exec.sum("preds")))
	res.set("sqldb.allocs", "count", exec.count("allocs"))

	res.set("merge.plan_us", "us", ix.layer("merge.plan").meanUS())

	solve := ix.layer("core.solve")
	res.set("core.solve_ms", "ms", solve.meanMS())
	res.set("core.bb_nodes", "count", solve.count("bb_nodes"))
	res.set("core.simplex_iters", "count", solve.count("simplex_iters"))
	res.set("core.optimal_ratio", "ratio", solve.count("optimal"))
	res.set("core.allocs", "count", solve.count("allocs"))

	res.set("speak.plan_ms", "ms", ix.layer("speak.plan").meanMS())
	render := ix.layer("speak.render")
	res.set("speak.render_ms", "ms", render.meanMS())
	res.set("speak.words", "count", render.count("words"))

	res.set("nlq.translate_us", "us", ix.layer("nlq.translate").meanUS())
	cands := ix.layer("nlq.candidates")
	res.set("nlq.candidates_us", "us", cands.meanUS())
	res.set("nlq.candidates", "count", cands.count("candidates"))

	res.set("viz.render_us", "us", ix.layer("viz.render").meanUS())

	res.set("serve.self_ms", "ms", ix.layer("serve.do").meanSelfMS())
	res.set("serve.cache_hit_ratio", "ratio", ratio(float64(srv.hits), float64(srv.requests)))
	res.set("serve.coalesced_ratio", "ratio", ratio(float64(srv.coalesced), float64(srv.requests)))
	res.set("serve.degraded_ratio", "ratio", ratio(float64(srv.degraded), float64(srv.answered)))
	res.set("serve.rejected", "count", float64(srv.rejected))

	res.set("gen.lag_ms", "ms", lagP99)

	_, covered := ix.requestTimes("request")
	res.set("trace.coverage", "ratio", ratio(median(covered), untracedP50))
	res.set("trace.overhead_ms", "ms", tracedP50-untracedP50)
}

// serveCounts tallies how the serving engine answered.
type serveCounts struct {
	requests, answered, hits, coalesced, degraded, rejected int
}
