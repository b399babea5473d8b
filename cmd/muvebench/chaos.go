package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"muve"
	"muve/internal/obs"
	"muve/internal/resilience"
	"muve/internal/serve"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// chaosReport is the machine-readable summary of a chaos run, written
// to -chaos-json so BENCH_*.json can track degradation rates alongside
// latency across revisions.
type chaosReport struct {
	Spec      string                    `json:"spec"`
	Seed      int64                     `json:"seed"`
	Requests  int                       `json:"requests"`
	Workers   int                       `json:"workers"`
	Answered  int                       `json:"answered"`
	Shed      int                       `json:"shed_503"`
	Escaped   int                       `json:"escaped"`
	Transport int                       `json:"transport_damaged,omitempty"`
	Rungs     map[string]map[string]int `json:"rungs"`
	Latency   latencyStats              `json:"latency_ms"`
	Retries   retryCounts               `json:"retries"`
	Hedge     hedgeCounts               `json:"hedge"`
	Drain     drainCounts               `json:"drain"`
	// Fallbacks counts exact-rung failures by the stage the engine
	// blamed them on (muve_fallbacks_total{stage}).
	Fallbacks map[string]uint64 `json:"fallbacks_by_stage"`
	// BreakerTrips counts trips of the exact rung's circuit breaker
	// (muve_breaker_trips_total).
	BreakerTrips uint64 `json:"breaker_trips"`
	// Panics compares the panics the chaos layer injected with those
	// the engine contained and counted (muve_panics_total).
	Panics panicCounts `json:"panics"`
}

// panicCounts is the panic tally: a run fails unless every injected
// panic was contained.
type panicCounts struct {
	Injected  int    `json:"injected"`
	Contained uint64 `json:"contained"`
}

// retryCounts counts the plain retries the harness's clients sent: one
// per request shed with a 503.
type retryCounts struct {
	Client int `json:"client"`
}

// hedgeCounts summarizes the hedged-exact races.
type hedgeCounts struct {
	Started uint64            `json:"started"`
	Wins    map[string]uint64 `json:"wins,omitempty"`
}

// hedgeCountsOf reads the engine's hedge counters: a hedge started at
// every hedge point a token was free for, and Wins names each winner
// that finished first at least once.
func hedgeCountsOf(m *serve.Metrics) hedgeCounts {
	var h hedgeCounts
	exact, won := m.Hedge[serve.HedgeExact].Value(), m.Hedge[serve.HedgeWon].Value()
	h.Started = exact + won + m.Hedge[serve.HedgeFailed].Value()
	h.Wins = map[string]uint64{}
	if exact > 0 {
		h.Wins["exact"] = exact
	}
	if won > 0 {
		h.Wins["hedge"] = won
	}
	return h
}

// drainCounts records the end-of-run crash-only drain exercise.
type drainCounts struct {
	Cancelled int  `json:"cancelled"`
	Shed503   bool `json:"shed_503"`
}

type latencyStats struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Max  float64 `json:"max"`
}

// chaosOutcome classifies one request: answered (with the ladder rung
// that served it), cleanly shed with 503, or escaped — any result the
// resilience layer is supposed to make impossible, a 429 included:
// admission has no queue watermark, so nothing may answer one.
type chaosOutcome struct {
	mode    string // "plot" or "voice"
	status  int
	source  serve.Source
	elapsed time.Duration
	escaped bool
	detail  string
	// retried marks a request whose client issued a second attempt
	// after a clean 503 shed.
	retried bool
	// transport marks injected transport damage the client observed
	// (advertised via X-Chaos-Transport, or a connection the reset
	// fault killed) — expected damage, not an escape.
	transport bool
}

// runChaos drives the same serve.Engine degradation ladder muveserver
// serves from, but with seeded fault injection enabled, and verifies
// the resilience contract: every request must either return an answer
// (possibly from a lower rung) or fast-fail with 503 — never hang and
// never surface an injected fault — and every injected panic must be
// contained and counted. A breach fails the run with a non-zero exit
// so `make chaos-smoke` can gate CI on it.
func runChaos(spec string, seed int64, requests, workers int, jsonPath string) error {
	ch, err := resilience.ParseChaos(spec, seed)
	if err != nil {
		return err
	}
	if requests <= 0 {
		requests = 1
	}
	if workers <= 0 {
		workers = 8
	}

	tbl, sys, err := ladderSystem(seed)
	if err != nil {
		return err
	}
	engine, err := sys.NewEngine(chaosConfig(ch, workers))
	if err != nil {
		return err
	}

	// A fixed pool of utterances drawn from the generator: repeats give
	// the cache, coalescing, and stale rungs something to hit.
	rng := rand.New(rand.NewSource(seed))
	gen := workload.NewQueryGen(tbl, rng)
	utterances := make([]string, 24)
	for i := range utterances {
		utterances[i] = workload.Utterance(gen.Random(2))
	}

	// Anything slower than the ladder's whole budget plus slack counts
	// as a hang: the ladder's contract is that it never waits longer
	// than the sum of its rung caps.
	const hangLimit = 10*time.Second + 2*time.Second + 500*time.Millisecond + 2*time.Second

	// With transport faults in the spec, requests go over real HTTP
	// through the WithHTTPChaos middleware so slow/partial writes,
	// resets and garbage actually hit a client; otherwise the harness
	// drives the engine directly as before.
	doReq := func(req serve.Request) chaosOutcome {
		return chaosRequest(engine, req, hangLimit)
	}
	if ch.HasHTTP() {
		srv := chaosHTTPServer(engine, ch)
		defer srv.Close()
		client := &http.Client{Timeout: 2 * hangLimit}
		doReq = func(req serve.Request) chaosOutcome {
			return chaosHTTPRequest(client, srv.URL, req)
		}
	}

	outcomes := make([]chaosOutcome, requests)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				req := serve.Request{
					Transcript: utterances[i%len(utterances)],
					Batch:      i%4 == 3,
				}
				// Every fifth request descends the voice ladder.
				if i%5 == 4 {
					req.Mode = serve.ModeVoice
				}
				outcomes[i] = doReq(req)
				outcomes[i].mode = modeOf(req)
			}
		}()
	}
	for i := 0; i < requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	rep := summarizeChaos(spec, seed, requests, workers, outcomes)
	// Exercise the crash-only drain path before reading the counters,
	// so its cancellations land in the report.
	rep.Drain = drainChaos(engine, ch, utterances)
	rep.Hedge = hedgeCountsOf(engine.Metrics())
	rep.Fallbacks = map[string]uint64{}
	for stage, c := range engine.Metrics().Fallbacks.Values() {
		rep.Fallbacks[stage] = c.Value()
	}
	rep.BreakerTrips = engine.Metrics().BreakerTrips.Value()
	for _, c := range ch.Injected() {
		rep.Panics.Injected += c.Panics
	}
	rep.Panics.Contained = engine.Metrics().Panics.Value()
	writeChaosText(os.Stdout, rep, outcomes)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nchaos report written to %s\n", jsonPath)
	}
	if rep.Escaped > 0 {
		return fmt.Errorf("%d injected fault(s) escaped the resilience layer", rep.Escaped)
	}
	if rep.Panics.Contained < uint64(rep.Panics.Injected) {
		return fmt.Errorf("%d panic(s) injected but only %d contained and counted",
			rep.Panics.Injected, rep.Panics.Contained)
	}
	if !rep.Drain.Shed503 {
		return fmt.Errorf("draining engine did not shed new planning work with 503")
	}
	if rep.Drain.Cancelled == 0 {
		return fmt.Errorf("closing the engine cancelled no in-flight solve: the drain check saw nothing to drain")
	}
	// Every request is traced, as muveserver traces it, so each
	// fallback names the stage that failed: an "unknown" blame means a
	// request reached the engine without a trace.
	if n := rep.Fallbacks["unknown"]; n > 0 {
		return fmt.Errorf("%d fallback(s) blamed on stage \"unknown\": a request ran untraced", n)
	}
	return nil
}

// ladderSystem builds the System whose ladder the chaos, SLO and
// overload harnesses serve: the exact ILP over a 20k-row NYC311 table,
// capped at half the remaining deadline so the lower rungs keep their
// share. System.NewEngine adds the greedy, stale and minimal rungs.
func ladderSystem(seed int64) (*sqldb.Table, *muve.System, error) {
	tbl, err := workload.Build(workload.NYC311, 20_000, seed)
	if err != nil {
		return nil, nil, err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	sys, err := muve.New(db, tbl.Name,
		muve.WithSolver(muve.SolverILP),
		muve.WithBudgetFraction(0.5))
	return tbl, sys, err
}

// chaosConfig sizes the ladder that -chaos and -slo drive: tight
// deadlines and a short cache TTL, so injected faults actually push
// requests down the ladder within a smoke test's runtime.
func chaosConfig(ch *resilience.Chaos, workers int) serve.Config {
	return serve.Config{
		MaxInFlight:      workers,
		Timeout:          2 * time.Second,
		FallbackGrace:    time.Second,
		MinimalGrace:     500 * time.Millisecond,
		CacheEntries:     256,
		CacheTTL:         250 * time.Millisecond,
		StaleFor:         time.Minute,
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
		Hedge:            true,
		Chaos:            ch,
	}
}

// modeOf names a request's answer mode for the per-mode rung table.
func modeOf(req serve.Request) string {
	if req.Mode == serve.ModeVoice {
		return serve.ModeVoice
	}
	return "plot"
}

// chaosHTTPServer wraps the engine in the minimal middleware stack the
// transport faults need: WithHTTPChaos outermost (the wire), then
// tracing as muveserver has it (so every failure is blamed on its
// stage), recovery innermost (rethrowing the reset's abort panic). The
// handler answers /ask with a small JSON body (the spoken transcript
// too, under format=voice) so clients can validate payload integrity.
func chaosHTTPServer(engine *serve.Engine, ch *resilience.Chaos) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/ask", func(w http.ResponseWriter, r *http.Request) {
		resp, err := engine.Do(r.Context(), serve.Request{
			Transcript: r.URL.Query().Get("q"),
			Mode:       r.URL.Query().Get("format"),
			Batch:      r.URL.Query().Get("batch") == "1",
			Refresh:    r.URL.Query().Get("refresh") == "1",
		})
		if err != nil {
			http.Error(w, err.Error(), serve.StatusOf(err))
			return
		}
		w.Header().Set("X-Muve-Source", string(resp.Source))
		w.Header().Set("Content-Type", "application/json")
		ans := resp.Value.(*muve.Answer)
		out := struct {
			Transcript string `json:"transcript"`
			SQL        string `json:"sql"`
			Spoken     string `json:"spoken,omitempty"`
		}{Transcript: ans.Transcript, SQL: ans.TopQuery.SQL()}
		if ans.Voice != nil {
			out.Spoken = ans.Voice.Transcript
		}
		json.NewEncoder(w).Encode(out)
	})
	quiet := log.New(io.Discard, "", 0)
	return httptest.NewServer(serve.WithHTTPChaos(ch,
		serve.WithDeadline(0,
			serve.WithTracing(obs.NewRing(64), engine.Metrics(),
				serve.WithRecovery(quiet, engine.Metrics(), mux)))))
}

// chaosHTTPRequest issues one request (plus at most one plain retry
// after a clean shed) over real HTTP and classifies what the client
// saw. Injected transport damage is recognizable — the response carries
// X-Chaos-Transport, or the connection died under a reset — and is
// counted, not escaped; damage without that marker is an escape.
func chaosHTTPRequest(client *http.Client, base string, req serve.Request) chaosOutcome {
	attempt := func() chaosOutcome {
		u := base + "/ask?q=" + url.QueryEscape(req.Transcript)
		if req.Batch {
			u += "&batch=1"
		}
		if req.Mode != "" {
			u += "&format=" + req.Mode
		}
		hreq, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return chaosOutcome{escaped: true, detail: err.Error()}
		}
		start := time.Now()
		resp, err := client.Do(hreq)
		if err != nil {
			// In-process the only thing that kills a connection is the
			// injected reset fault (the headers, with their marker, can be
			// lost with the connection).
			return chaosOutcome{elapsed: time.Since(start), transport: true, detail: err.Error()}
		}
		defer resp.Body.Close()
		body, readErr := io.ReadAll(resp.Body)
		o := chaosOutcome{
			elapsed:   time.Since(start),
			status:    resp.StatusCode,
			source:    serve.Source(resp.Header.Get("X-Muve-Source")),
			transport: resp.Header.Get(serve.ChaosTransportHeader) != "",
		}
		if readErr != nil {
			if !o.transport {
				o.escaped = true
				o.detail = fmt.Sprintf("body read failed without injected transport fault: %v", readErr)
			}
			return o
		}
		switch {
		case o.transport:
		case o.status == http.StatusOK && !json.Valid(body):
			o.escaped = true
			o.detail = "malformed 200 body without injected transport fault"
		case o.status != http.StatusOK && o.status != http.StatusServiceUnavailable:
			// As on the direct path: anything but an answer or a 503
			// shed escaped, a 429 included.
			o.escaped = true
			o.detail = fmt.Sprintf("status %d: %s", o.status, bytes.TrimSpace(body))
		}
		return o
	}
	o := attempt()
	if o.status == http.StatusServiceUnavailable {
		o = attempt()
		o.retried = true
	}
	return o
}

// tracedDo runs one engine request under a fresh trace, as muveserver's
// tracing middleware does, so a failed exact rung is blamed on the
// stage it failed in.
func tracedDo(engine *serve.Engine, req serve.Request) (*serve.Response, error) {
	tr := obs.NewTrace("/ask")
	defer tr.Finish()
	return engine.Do(obs.WithTrace(context.Background(), tr), req)
}

// drainChaos exercises the crash-only drain path: it puts a few solves
// in flight, drains the engine, verifies that new planning work is shed
// with 503 while draining, and closes the engine — cancelling whatever
// is still running. The run's faults are replaced by one that holds
// every solve in the solver stage until Close cancels it, so the drain
// always has solves to cancel: left to finish, the short refresh solves
// often ended before Close.
func drainChaos(engine *serve.Engine, ch *resilience.Chaos, utterances []string) drainCounts {
	for _, stage := range ch.Stages() {
		ch.Set(stage, resilience.Fault{})
	}
	ch.Set("solver", resilience.Fault{Latency: time.Minute})
	held := func() int { return ch.Injected()["solver"].Latencies }
	start := held()
	var wg sync.WaitGroup
	for i := 0; i < 3 && i < len(utterances); i++ {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			tracedDo(engine, serve.Request{Transcript: q, Refresh: true})
		}(utterances[i])
	}
	// Drain once a solve is held; a leader reaches its solver stage
	// only after it has entered planning.
	for deadline := time.Now().Add(5 * time.Second); held() == start && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	engine.Drain()
	_, err := tracedDo(engine, serve.Request{
		Transcript: utterances[len(utterances)-1],
		Refresh:    true,
	})
	d := drainCounts{Shed503: serve.StatusOf(err) == 503}
	d.Cancelled = engine.Close()
	wg.Wait()
	return d
}

// chaosRequest runs one request with a hang watchdog. The engine plans
// on a detached, budgeted context, so a request outliving hangLimit
// means the ladder's deadline accounting broke — that is an escape,
// not a slow answer.
func chaosRequest(engine *serve.Engine, req serve.Request, hangLimit time.Duration) chaosOutcome {
	done := make(chan chaosOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- chaosOutcome{escaped: true, detail: fmt.Sprintf("panic escaped: %v", r)}
			}
		}()
		attempt := func() chaosOutcome {
			start := time.Now()
			resp, err := tracedDo(engine, req)
			o := chaosOutcome{elapsed: time.Since(start), status: serve.StatusOf(err)}
			if err == nil {
				o.source = resp.Source
			} else if o.status != http.StatusServiceUnavailable {
				o.escaped = true
				o.detail = fmt.Sprintf("status %d: %v", o.status, err)
			}
			return o
		}
		o := attempt()
		if o.status == http.StatusServiceUnavailable {
			// One plain retry per shed request, like a well-behaved
			// client: it passes admission like a first attempt and may be
			// shed again — that is still a clean outcome.
			o = attempt()
			o.retried = true
		}
		done <- o
	}()
	// The watchdog allows two full ladder descents: the original attempt
	// plus the retry.
	select {
	case o := <-done:
		return o
	case <-time.After(2 * hangLimit):
		return chaosOutcome{elapsed: 2 * hangLimit, escaped: true, detail: "request hung past the ladder budget"}
	}
}

func summarizeChaos(spec string, seed int64, requests, workers int, outcomes []chaosOutcome) chaosReport {
	rep := chaosReport{
		Spec:     spec,
		Seed:     seed,
		Requests: requests,
		Workers:  workers,
		Rungs:    map[string]map[string]int{},
	}
	lats := make([]float64, 0, len(outcomes))
	for _, o := range outcomes {
		if o.transport {
			rep.Transport++
		}
		if o.retried {
			rep.Retries.Client++
		}
		switch {
		case o.escaped:
			rep.Escaped++
		case o.status == 503:
			rep.Shed++
		case o.status == 0 || (o.status == 200 && o.source == ""):
			// The connection died under an injected reset before an
			// attributable answer came through; counted in Transport above.
		default:
			rep.Answered++
			if rep.Rungs[o.mode] == nil {
				rep.Rungs[o.mode] = map[string]int{}
			}
			rep.Rungs[o.mode][string(o.source)]++
			lats = append(lats, float64(o.elapsed)/float64(time.Millisecond))
		}
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		var sum float64
		for _, v := range lats {
			sum += v
		}
		rep.Latency = latencyStats{
			Mean: sum / float64(len(lats)),
			P50:  lats[len(lats)/2],
			P95:  lats[min(len(lats)-1, len(lats)*95/100)],
			Max:  lats[len(lats)-1],
		}
	}
	return rep
}

func writeChaosText(w io.Writer, rep chaosReport, outcomes []chaosOutcome) {
	fmt.Fprintf(w, "==== chaos harness ====\n\n")
	fmt.Fprintf(w, "spec: %q  seed: %d  requests: %d  workers: %d\n\n", rep.Spec, rep.Seed, rep.Requests, rep.Workers)
	fmt.Fprintf(w, "%-14s %6s\n", "outcome", "count")
	fmt.Fprintf(w, "%-14s %6d\n", "answered", rep.Answered)
	fmt.Fprintf(w, "%-14s %6d\n", "shed-503", rep.Shed)
	fmt.Fprintf(w, "%-14s %6d\n", "transport", rep.Transport)
	fmt.Fprintf(w, "%-14s %6d\n", "escaped", rep.Escaped)

	fmt.Fprintf(w, "\nretries: client=%d\n", rep.Retries.Client)
	fmt.Fprintf(w, "hedges:  started=%d", rep.Hedge.Started)
	for _, k := range sortedKeys(rep.Hedge.Wins) {
		fmt.Fprintf(w, " %s=%d", k, rep.Hedge.Wins[k])
	}
	fmt.Fprintf(w, "\ndrain:   cancelled=%d shed-503=%v\n", rep.Drain.Cancelled, rep.Drain.Shed503)
	fmt.Fprintf(w, "breaker: trips=%d\n", rep.BreakerTrips)
	fmt.Fprintf(w, "panics:  injected=%d contained=%d\n", rep.Panics.Injected, rep.Panics.Contained)
	fmt.Fprintf(w, "fallbacks by blamed stage:")
	for _, k := range sortedKeys(rep.Fallbacks) {
		fmt.Fprintf(w, " %s=%d", k, rep.Fallbacks[k])
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "\nanswer source / ladder rung distribution per mode:\n")
	fmt.Fprintf(w, "  %-10s %6s %6s %6s\n", "source", "plot", "voice", "total")
	sources := map[string]bool{}
	for _, rungs := range rep.Rungs {
		for k := range rungs {
			sources[k] = true
		}
	}
	for _, k := range sortedKeys(sources) {
		p, v := rep.Rungs["plot"][k], rep.Rungs[serve.ModeVoice][k]
		fmt.Fprintf(w, "  %-10s %6d %6d %6d\n", k, p, v, p+v)
	}
	if rep.Answered > 0 {
		fmt.Fprintf(w, "\nanswer latency: mean=%.1fms p50=%.1fms p95=%.1fms max=%.1fms\n",
			rep.Latency.Mean, rep.Latency.P50, rep.Latency.P95, rep.Latency.Max)
	}
	for _, o := range outcomes {
		if o.escaped {
			fmt.Fprintf(w, "ESCAPE: %s\n", o.detail)
		}
	}
}

// sortedKeys lists a map's keys in order, for deterministic printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
