package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"muve"
	"muve/internal/resilience"
	"muve/internal/serve"
)

const (
	// servedRate is the served workload's arrival rate in requests/s.
	servedRate = 200
	// servedZipfS is the Zipf exponent of utterance popularity.
	servedZipfS = 1.1
	// servedLimit is the latency a request's fastest answer must meet
	// to count in answers_per_s. It sits at the median fastest planned
	// miss (about 2.7 ms on a 2-vCPU x86 VM): every cache hit meets it
	// and about half of the misses do, so answers_per_s falls when
	// planning slows.
	servedLimit = 2700 * time.Microsecond
)

// arrival is one scheduled request: when it is due after the start of
// the window, and which pool utterance it asks.
type arrival struct {
	at  time.Duration
	utt int
}

// schedule draws Poisson arrivals at servedRate over window, each asking
// a Zipf-distributed rank of a pool of size pool. The count is fixed at
// rate × window, so the arrival times are sorted uniform draws: a
// Poisson process conditioned on its count.
func schedule(seed int64, pool int, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, servedZipfS, 1, uint64(pool-1))
	out := make([]arrival, int(servedRate*window.Seconds()))
	for i := range out {
		out[i] = arrival{at: time.Duration(rng.Float64() * float64(window)), utt: int(zipf.Uint64())}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// served is one open-loop request's outcome.
type served struct {
	text string
	ans  *muve.Answer
	src  serve.Source
	err  error
	// lat runs from the due time to the rendered answer.
	lat time.Duration
}

// prepareServed draws the utterance pool and fills the engine's answer
// cache with the pool's most popular ranks, untimed.
func prepareServed(e *env, o options) []string {
	pool := newUtterances(e.table, o.seed, e.spec.maxPreds, false).take(o.pool)
	fillCache(e, pool, o)
	return pool
}

// fillCache answers the pool's o.cacheCap most popular ranks through the
// engine on all CPUs.
func fillCache(e *env, pool []string, o options) {
	warm := min(o.cacheCap, len(pool))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < warm; i += workers {
				_, _ = e.engine.Do(context.Background(), serve.Request{Transcript: pool[i]})
			}
		}(w)
	}
	wg.Wait()
}

// openLoop sends every arrival when it is due, regardless of how many
// are still in flight, and waits for all of them. do answers one
// request; its latency is timed from the due time. It returns how late
// each request was sent, in milliseconds.
func openLoop(pool []string, arr []arrival, out []served, do func(i int, text string) (*muve.Answer, serve.Source, error)) []float64 {
	lags := make([]float64, len(arr))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arr {
		due := start.Add(a.at)
		// Timers wake up to a millisecond late on an idle process: sleep
		// short of the due time and spin the rest.
		if d := time.Until(due); d > time.Millisecond {
			time.Sleep(d - time.Millisecond)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		lags[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time, text string) {
			defer wg.Done()
			ans, src, err := do(i, text)
			out[i] = served{text: text, ans: ans, src: src, err: err, lat: time.Since(due)}
		}(i, due, pool[a.utt])
	}
	wg.Wait()
	return lags
}

// doRendered answers one request through the engine and renders the
// multiplot as muveserver's /ask handler would.
func doRendered(e *env, text string) (*muve.Answer, serve.Source, error) {
	resp, err := e.engine.Do(context.Background(), serve.Request{Transcript: text})
	if err != nil {
		return nil, "", err
	}
	ans, ok := resp.Value.(*muve.Answer)
	if !ok {
		return nil, resp.Source, fmt.Errorf("engine answered %T", resp.Value)
	}
	_ = ans.SVG()
	return ans, resp.Source, nil
}

// runServed measures the open loop through serve.Engine.Do. The
// arrivals of one round are replayed every round on a fresh engine whose
// cache holds the same entries, copied from an engine filled through Do,
// so each request meets the same cache state; a request's latency is its
// fastest round's. Before each round and after the last, cal times its
// reference job for setup_s. Request latencies stay as measured: they are
// mostly goroutine wake-ups and the open-loop schedule, which the job does
// not track (scaling them widened their run-to-run spread by half).
func runServed(e *env, o options, cal *calibrator) (*result, error) {
	rounds := max(e.spec.rounds, 1)
	window := o.duration / time.Duration(rounds)
	arr := schedule(o.seed, o.pool, window)
	pool := prepareServed(e, o)
	filled := e.engine.Cache().Entries()
	var out []served // out[r*len(arr)+i] answers arr[i] in round r
	for r := 0; r < rounds; r++ {
		e.engine.Close()
		var err error
		if e.engine, err = newEngine(e, o); err != nil {
			return nil, err
		}
		// Entries lists each shard most recent first; putting them back
		// oldest first rebuilds the same recency order.
		for i := len(filled) - 1; i >= 0; i-- {
			e.engine.Cache().Put(filled[i].Key, filled[i].Value)
		}
		cal.burst()
		round := make([]served, len(arr))
		openLoop(pool, arr, round, func(_ int, text string) (*muve.Answer, serve.Source, error) {
			return doRendered(e, text)
		})
		out = append(out, round...)
	}
	cal.burst()

	res := &result{attempted: len(out)}
	costs := checkServed(e.checker(), out, res)
	n := len(arr)
	best := make([]float64, n)
	for k, s := range out {
		if costs[k] < 0 {
			continue
		}
		if l := ms(s.lat); best[k%n] == 0 || l < best[k%n] {
			best[k%n] = l
		}
	}
	var lats, missLats []float64
	good := 0
	for k, l := range best {
		if l > 0 {
			lats = append(lats, l)
			if l <= ms(servedLimit) {
				good++
			}
			if out[k].src == serve.SourcePlanned {
				missLats = append(missLats, l)
			}
		}
	}
	// The objective is averaged over distinct answers: weighting it by
	// popularity would let a seed's few most popular utterances set it.
	cost := map[string]float64{}
	for k, s := range out {
		if costs[k] >= 0 {
			cost[s.text] = costs[k]
		}
	}
	var distinct []float64
	for _, c := range cost {
		distinct = append(distinct, c)
	}
	res.samples = len(lats)
	res.notes = append(res.notes, fmt.Sprintf("served planned=%d planned_p50_ms=%.3f planned_p95_ms=%.3f limit_ms=%.3f within_limit=%d of %d",
		len(missLats), percentile(missLats, 0.50), percentile(missLats, 0.95), ms(servedLimit), good, n))
	res.set("ask_p50_ms", "ms", percentile(lats, 0.50))
	res.set("ask_p95_ms", "ms", percentile(lats, 0.95))
	res.set("answers_per_s", "1/s", float64(good)/window.Seconds())
	res.set("answer_cost_ms", "ms", mean(distinct))
	return res, nil
}

// checkServed checks each distinct answer once and every response's
// identity, returning each response's objective (-1 when it failed).
func checkServed(c *checker, out []served, res *result) []float64 {
	var distinct []answered
	index := map[*muve.Answer]int{}
	for _, s := range out {
		if s.err != nil {
			continue
		}
		if _, ok := index[s.ans]; !ok {
			index[s.ans] = len(distinct)
			distinct = append(distinct, answered{text: s.ans.Transcript, ans: s.ans})
		}
	}
	var sink result
	dcosts := checkAll(c, distinct, &sink)
	costs := make([]float64, len(out))
	for i, s := range out {
		costs[i] = -1
		switch {
		case s.err != nil:
			res.fail("%q: %v", s.text, s.err)
		case s.ans.Transcript != s.text:
			res.fail("%q: served the answer to %q", s.text, s.ans.Transcript)
		case dcosts[index[s.ans]] < 0:
			res.fail("%q: answer failed its check", s.text)
		default:
			costs[i] = dcosts[index[s.ans]]
		}
	}
	res.problems = append(res.problems, sink.problems...)
	return costs
}

// tally counts how the engine answered.
func tally(out []served) serveCounts {
	var n serveCounts
	for _, s := range out {
		n.requests++
		if s.err != nil {
			var rej *resilience.RejectError
			var budget *resilience.RetryBudgetError
			if errors.As(s.err, &rej) || errors.As(s.err, &budget) || errors.Is(s.err, serve.ErrDraining) {
				n.rejected++
			}
			continue
		}
		n.answered++
		switch s.src {
		case serve.SourceCache, serve.SourceSession:
			n.hits++
		case serve.SourceCoalesced:
			n.coalesced++
		case serve.SourceFallback, serve.SourceStale, serve.SourceMinimal:
			n.degraded++
		}
	}
	return n
}

// runServedTraced runs the same open loop, untraced for the first half
// of the window and traced for the second. A traced request spans
// Engine.Do and the rendering; on a cache miss the engine calls the
// benchmark's planner, which composes the answer from outside under a
// "planner" span. Every composed answer must equal Ask's.
func runServedTraced(e *env, o options) (*result, error) {
	tr := newTracer(false)
	e.tracer = tr
	comp := newComposer(e, tr)
	comp.render = false

	// The planner learns which traced request it is planning for from
	// the transcript: the engine detaches planning from the caller's
	// context.
	type parentRef struct{ req, id int }
	var (
		mu              sync.Mutex
		parents         = map[string]parentRef{}
		composedAnswers = map[*muve.Answer]bool{}
	)
	e.compose = func(ctx context.Context, text string) (*muve.Answer, error) {
		mu.Lock()
		p, ok := parents[text]
		mu.Unlock()
		if !ok {
			return e.sys.AskContext(ctx, text)
		}
		sp := tr.start(p.req, p.id, "planner")
		ans, _, err := comp.answer(ctx, p.req, sp.id, text)
		sp.end()
		if err == nil {
			mu.Lock()
			composedAnswers[ans] = true
			mu.Unlock()
		}
		return ans, err
	}

	pool := prepareServed(e, o)
	arr := schedule(o.seed, o.pool, o.duration)
	out := make([]served, len(arr))
	half := o.duration / 2
	lags := openLoop(pool, arr, out, func(i int, text string) (*muve.Answer, serve.Source, error) {
		if arr[i].at < half {
			return doRendered(e, text)
		}
		root := tr.start(i, -1, "request")
		defer root.end()
		do := tr.start(i, root.id, "serve.do")
		mu.Lock()
		parents[text] = parentRef{req: i, id: do.id}
		mu.Unlock()
		resp, err := e.engine.Do(context.Background(), serve.Request{Transcript: text})
		mu.Lock()
		if parents[text].id == do.id {
			delete(parents, text)
		}
		mu.Unlock()
		do.end()
		if err != nil {
			return nil, "", err
		}
		ans, ok := resp.Value.(*muve.Answer)
		if !ok {
			return nil, resp.Source, fmt.Errorf("engine answered %T", resp.Value)
		}
		viz := tr.start(i, root.id, "viz.render")
		_ = ans.SVG()
		viz.end()
		return ans, resp.Source, nil
	})

	res := &result{attempted: len(out)}
	costs := checkServed(e.checker(), out, res)
	var untraced, traced []float64
	for i, s := range out {
		if costs[i] < 0 {
			continue
		}
		if arr[i].at < half {
			untraced = append(untraced, ms(s.lat))
		} else {
			traced = append(traced, ms(s.lat))
		}
	}
	for ans := range composedAnswers {
		ask, err := e.sys.AskContext(context.Background(), ans.Transcript)
		if err != nil {
			res.fail("Ask %q: %v", ans.Transcript, err)
			continue
		}
		if err := sameAnswer(ask, ans, ask.SVG(), ans.SVG()); err != nil {
			res.fail("composed answer differs from Ask: %v", err)
		}
	}
	res.samples = len(untraced) + len(traced)
	perLayer(res, indexSpans(tr.snapshot()), median(untraced), median(traced), percentile(lags, 0.99), tally(out))
	return res, nil
}
