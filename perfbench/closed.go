package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"muve"
)

// answered is one utterance's answer as a client received it.
type answered struct {
	text string
	ans  *muve.Answer
	svg  string
	err  error
	// lat is the time from the call to the rendered answer.
	lat time.Duration
}

// warmUp answers o.warmup utterances untimed so lazy set-up and caches
// settle before measuring.
func warmUp(e *env, u *utterances, o options) {
	for _, text := range u.take(o.warmup) {
		_, _, _ = e.ask(context.Background(), text)
	}
}

// runClosed is one client asking utterances back to back, each answer
// rendered before the next question, in rounds that ask the same
// utterances in the same order. The first round asks fresh utterances
// for its share of the duration; a cycling workload's round is one whole
// pass over its population, however long that takes, so every run asks
// the same questions. An utterance's latency is its fastest answer, and
// answers_per_s is how many correct answers a second those fastest
// answers add up to. A burst of interference from the host therefore
// moves a figure only if it hits an utterance in every round. Between
// answers cal times its reference job, and every figure is reported at
// the reference speed.
func runClosed(e *env, o options, cal *calibrator) (*result, error) {
	u := newUtterances(e.table, o.seed, e.spec.maxPreds, e.spec.cycle)
	warmUp(e, u, o)
	ctx := context.Background()
	rounds := max(e.spec.rounds, 1)
	// out[r*len(texts)+i] answers texts[i] in round r.
	var (
		texts []string
		out   []answered
	)
	ask := func(text string) {
		t0 := time.Now()
		ans, svg, err := e.ask(ctx, text)
		out = append(out, answered{text: text, ans: ans, svg: svg, err: err, lat: time.Since(t0)})
		cal.tick()
	}
	start := time.Now()
	if u.pop != nil {
		texts = u.pop
		for _, text := range texts {
			ask(text)
		}
	} else {
		for time.Since(start) < o.duration/time.Duration(rounds) {
			texts = append(texts, u.get())
			ask(texts[len(texts)-1])
		}
	}
	for r := 1; r < rounds; r++ {
		for _, text := range texts {
			ask(text)
		}
	}
	cal.burst()
	f := cal.factor()

	res := &result{attempted: len(out)}
	costs := checkAll(e.checker(), out, res)
	n := len(texts)
	// best[i] is the fastest answer to texts[i] at the reference speed,
	// or -1 when any answer to it failed.
	best := make([]float64, n)
	for k := range out {
		i := k % n
		if costs[k] < 0 {
			best[i] = -1
		}
		if l := ms(out[k].lat) / f; best[i] == 0 || (best[i] > 0 && l < best[i]) {
			best[i] = l
		}
	}
	var lats []float64
	for _, l := range best {
		if l > 0 {
			lats = append(lats, l)
		}
	}
	res.samples = len(lats)
	res.notes = append(res.notes, fmt.Sprintf("raw ask_p50_ms=%.5f ask_p95_ms=%.5f answers_per_s=%.5f",
		percentile(lats, 0.50)*f, percentile(lats, 0.95)*f, 1000/mean(lats)/f))
	res.set("ask_p50_ms", "ms", percentile(lats, 0.50))
	res.set("ask_p95_ms", "ms", percentile(lats, 0.95))
	res.set("answers_per_s", "1/s", 1000/mean(lats))
	res.set("answer_cost_ms", "ms", meanCost(costs[:n]))
	return res, nil
}

// checkAll checks every answer on all CPUs, recording failures in res.
// It returns each answer's objective, or -1 for a failed one.
func checkAll(c *checker, out []answered, res *result) []float64 {
	costs := make([]float64, len(out))
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(out); i += workers {
				if out[i].err != nil {
					errs[i] = out[i].err
					continue
				}
				costs[i], errs[i] = c.check(out[i].text, out[i].ans)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			costs[i] = -1
			res.fail("%v", err)
		}
	}
	return costs
}

// meanCost averages the objectives of the answers that passed.
func meanCost(costs []float64) float64 {
	var ok []float64
	for _, c := range costs {
		if c >= 0 {
			ok = append(ok, c)
		}
	}
	return mean(ok)
}

// runClosedTraced answers each utterance twice, alternating which goes
// first: once through Ask (untimed by the tracer, the untraced
// reference) and once composed from outside with every layer call
// spanned. The composed answer must equal Ask's.
func runClosedTraced(e *env, o options) (*result, error) {
	u := newUtterances(e.table, o.seed, e.spec.maxPreds, e.spec.cycle)
	warmUp(e, u, o)
	tr := newTracer(true)
	e.tracer = tr
	comp := newComposer(e, tr)
	ctx := context.Background()
	var asked, composed []answered
	start := time.Now()
	for req := 0; time.Since(start) < o.duration; req++ {
		text := u.get()
		askIt := func() {
			t0 := time.Now()
			ans, svg, err := e.ask(ctx, text)
			asked = append(asked, answered{text: text, ans: ans, svg: svg, err: err, lat: time.Since(t0)})
		}
		composeIt := func() {
			root := tr.start(req, -1, "request")
			ans, svg, err := comp.answer(ctx, req, root.id, text)
			root.end()
			composed = append(composed, answered{text: text, ans: ans, svg: svg, err: err})
		}
		if req%2 == 0 {
			askIt()
			composeIt()
		} else {
			composeIt()
			askIt()
		}
	}

	res := &result{attempted: len(asked)}
	costs := checkAll(e.checker(), asked, res)
	var lats []float64
	for i, a := range asked {
		if costs[i] < 0 {
			continue
		}
		lats = append(lats, ms(a.lat))
		c := composed[i]
		if c.err != nil {
			res.fail("composed %q: %v", c.text, c.err)
			continue
		}
		if err := sameAnswer(a.ans, c.ans, a.svg, c.svg); err != nil {
			res.fail("composed answer differs from Ask: %v", err)
		}
	}
	res.samples = len(lats)
	ix := indexSpans(tr.snapshot())
	wall, _ := ix.requestTimes("request")
	perLayer(res, ix, median(lats), median(wall), 0, serveCounts{})
	return res, nil
}
