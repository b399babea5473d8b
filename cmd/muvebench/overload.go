package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muve/internal/resilience"
	"muve/internal/serve"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// The overload harness answers the question the resilience stack
// exists for: what happens when offered load exceeds capacity? It
// calibrates the stack's goodput with a closed-loop warmup, then ramps
// an open-loop arrival process to 2x that capacity — with transport
// chaos on the wire, deadline headers on every request, and one plain
// client retry per shed request — and gates on four properties:
//
//   - zero fault escapes: every response is an intact answer, a clean
//     503/504, or damage the transport-chaos layer marked as its own (a
//     429 is an escape: admission has no queue watermark);
//   - bounded interactive tail: answered interactive p99 stays under
//     the SLA even at 2x;
//   - goodput retention: goodput at 2x offered load stays at least 70%
//     of the calibrated peak — overload degrades throughput gracefully
//     instead of collapsing it (the congestion-collapse gate);
//   - the hedge fires: at least one greedy hedge started and at least
//     one won its race against a slow exact solve, so the mechanism
//     credited with the tail bound is exercised, not just configured.
//
// Client retries only follow a 503. On a 2-CPU host no step sheds a
// request at 2x, so no retry is sent here; the chaos harness sends
// retries.

// overloadReport is the machine-readable summary (-overload-json), the
// goodput curve tracked across revisions in BENCH_overload.json.
type overloadReport struct {
	Seed        int64          `json:"seed"`
	ChaosSpec   string         `json:"chaos_spec,omitempty"`
	SLAms       float64        `json:"sla_ms"`
	MaxInFlight int            `json:"max_inflight"`
	PeakGoodput float64        `json:"peak_goodput_rps"`
	RampRPS     float64        `json:"ramp_capacity_rps"`
	Steps       []overloadStep `json:"steps"`
	Retries     retryCounts    `json:"retries"`
	Hedge       hedgeCounts    `json:"hedge"`
	Passed      bool           `json:"passed"`
}

// overloadStep is one rung of the arrival-rate ramp.
type overloadStep struct {
	Factor     float64 `json:"factor"`
	RateRPS    float64 `json:"rate_rps"`
	Sent       int     `json:"sent"`
	Good       int     `json:"good"`
	GoodputRPS float64 `json:"goodput_rps"`
	Shed       int     `json:"shed_503"`
	Deadline   int     `json:"deadline_504"`
	Transport  int     `json:"transport_damaged"`
	Escaped    int     `json:"escaped"`
	Overflow   int     `json:"client_overflow"`
	P50ms      float64 `json:"interactive_p50_ms"`
	P99ms      float64 `json:"interactive_p99_ms"`
}

// olResult classifies one client-observed response.
type olResult struct {
	status    int
	good      bool
	batch     bool
	transport bool
	escaped   bool
	detail    string
	elapsed   time.Duration
}

// olClient is the shared load-generation context: one HTTP client, one
// utterance pool, and the count of retries sent.
type olClient struct {
	client     *http.Client
	base       string
	utterances []string
	seq        atomic.Int64
	retries    atomic.Int64
}

func runOverload(seed int64, stepDur, sla time.Duration, chaosSpec, jsonPath string) error {
	var ch *resilience.Chaos
	if chaosSpec != "" {
		var err error
		ch, err = resilience.ParseChaos(chaosSpec, seed)
		if err != nil {
			return err
		}
	}
	if stepDur <= 0 {
		stepDur = 1500 * time.Millisecond
	}
	if sla <= 0 {
		sla = 1500 * time.Millisecond
	}

	tbl, err := workload.Build(workload.NYC311, 20_000, seed)
	if err != nil {
		return err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	inflight := runtime.GOMAXPROCS(0)
	if inflight > 8 {
		inflight = 8
	}
	if inflight < 2 {
		inflight = 2
	}
	// muveserver's wiring at bench scale with the full overload toolkit
	// on: hedged exact solves, stale serving.
	engine, err := ladderEngine(db, tbl.Name, serve.Config{
		MaxInFlight:      inflight,
		Timeout:          time.Second,
		FallbackGrace:    500 * time.Millisecond,
		MinimalGrace:     250 * time.Millisecond,
		CacheEntries:     512,
		CacheTTL:         5 * time.Second,
		StaleFor:         time.Minute,
		BreakerThreshold: 5,
		BreakerCooldown:  500 * time.Millisecond,
		Hedge:            true,
		Chaos:            ch,
	})
	if err != nil {
		return err
	}
	defer engine.Close()
	srv := chaosHTTPServer(engine, ch)
	defer srv.Close()

	rng := rand.New(rand.NewSource(seed))
	gen := workload.NewQueryGen(tbl, rng)
	utterances := make([]string, 32)
	for i := range utterances {
		utterances[i] = workload.Utterance(gen.Random(2))
	}
	oc := &olClient{
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16 * inflight},
		},
		base:       srv.URL,
		utterances: utterances,
	}

	rep := overloadReport{
		Seed:        seed,
		ChaosSpec:   chaosSpec,
		SLAms:       float64(sla) / float64(time.Millisecond),
		MaxInFlight: inflight,
	}

	// Calibration: a closed loop at the engine's own concurrency level
	// measures peak goodput under the same chaos the ramp will see.
	cal := closedLoop(oc, 2*inflight, stepDur)
	rep.PeakGoodput = cal.GoodputRPS
	if cal.Good == 0 {
		return fmt.Errorf("calibration produced no good answers (%d sent, %d escaped)", cal.Sent, cal.Escaped)
	}
	// Pacing is sleep-based; very cache-hot configurations can calibrate
	// faster than the generator can tick, so the ramp rate is capped and
	// the cap is reported rather than silently distorting the factors.
	capacity := rep.PeakGoodput
	const rampCap = 400.0
	if capacity > rampCap {
		capacity = rampCap
	}
	rep.RampRPS = capacity
	fmt.Printf("==== overload harness ====\n\n")
	fmt.Printf("seed: %d  inflight: %d  step: %v  sla: %v  chaos: %q\n", seed, inflight, stepDur, sla, chaosSpec)
	fmt.Printf("calibrated peak goodput: %.1f rps (ramping against %.1f rps)\n\n", rep.PeakGoodput, capacity)
	fmt.Printf("%-7s %8s %6s %6s %9s %5s %5s %6s %6s %9s %9s\n",
		"factor", "rate", "sent", "good", "goodput", "503", "504", "xport", "escape", "p50(int)", "p99(int)")

	for _, f := range []float64{0.5, 1.0, 1.5, 2.0} {
		st := openLoop(oc, f*capacity, stepDur)
		st.Factor = f
		rep.Steps = append(rep.Steps, st)
		fmt.Printf("%-7.2g %8.1f %6d %6d %9.1f %5d %5d %6d %6d %8.1fms %8.1fms\n",
			f, st.RateRPS, st.Sent, st.Good, st.GoodputRPS,
			st.Shed, st.Deadline, st.Transport, st.Escaped, st.P50ms, st.P99ms)
	}

	rep.Retries.Client = int(oc.retries.Load())
	rep.Hedge = hedgeCountsOf(engine.Metrics())

	last := rep.Steps[len(rep.Steps)-1]
	var failures []string
	escapes := 0
	for _, st := range rep.Steps {
		escapes += st.Escaped
	}
	if escapes > 0 {
		failures = append(failures, fmt.Sprintf("%d fault(s) escaped to clients", escapes))
	}
	if last.Good == 0 {
		failures = append(failures, "no good answers at 2x offered load")
	} else if last.P99ms > rep.SLAms {
		failures = append(failures, fmt.Sprintf("interactive p99 %.1fms exceeds SLA %.1fms at 2x load", last.P99ms, rep.SLAms))
	}
	if minGoodput := 0.7 * rep.PeakGoodput; last.GoodputRPS < minGoodput {
		failures = append(failures, fmt.Sprintf("goodput %.1f rps at 2x load below 70%% of peak (%.1f rps)", last.GoodputRPS, minGoodput))
	}
	if rep.Hedge.Started == 0 || rep.Hedge.Wins["hedge"] == 0 {
		failures = append(failures, fmt.Sprintf("hedge never fired (started %d, won %d)", rep.Hedge.Started, rep.Hedge.Wins["hedge"]))
	}
	rep.Passed = len(failures) == 0

	fmt.Printf("\nretries: client=%d   hedges: started=%d wins=%v\n",
		rep.Retries.Client, rep.Hedge.Started, rep.Hedge.Wins)
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
		fmt.Printf("overload report written to %s\n", jsonPath)
	}
	if !rep.Passed {
		for _, f := range failures {
			fmt.Printf("GATE FAILED: %s\n", f)
		}
		return fmt.Errorf("overload gates failed: %d violation(s)", len(failures))
	}
	fmt.Printf("all overload gates passed (goodput at 2x: %.0f%% of peak)\n", 100*last.GoodputRPS/rep.PeakGoodput)
	return nil
}

// request issues one paced request (plus at most one plain retry on a
// clean shed). Every 4th request rides the batch lane, every 5th
// bypasses the cache so the planner stays genuinely loaded.
func (c *olClient) request() olResult {
	i := int(c.seq.Add(1))
	q := c.utterances[i%len(c.utterances)]
	batch := i%4 == 3
	refresh := i%5 == 0
	res := c.get(q, batch, refresh)
	if res.status == http.StatusServiceUnavailable {
		c.retries.Add(1)
		res = c.get(q, batch, refresh)
	}
	res.batch = batch
	return res
}

func (c *olClient) get(q string, batch, refresh bool) olResult {
	u := c.base + "/ask?q=" + url.QueryEscape(q)
	if batch {
		u += "&batch=1"
	}
	if refresh {
		u += "&refresh=1"
	}
	hreq, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return olResult{escaped: true, detail: err.Error()}
	}
	hreq.Header.Set(serve.DeadlineHeader, "5s")
	start := time.Now()
	resp, err := c.client.Do(hreq)
	if err != nil {
		// In-process, only the injected reset fault kills connections.
		return olResult{elapsed: time.Since(start), transport: true, detail: err.Error()}
	}
	defer resp.Body.Close()
	body, readErr := io.ReadAll(resp.Body)
	res := olResult{
		elapsed:   time.Since(start),
		status:    resp.StatusCode,
		transport: resp.Header.Get(serve.ChaosTransportHeader) != "",
	}
	switch {
	case readErr != nil:
		if !res.transport {
			res.escaped = true
			res.detail = fmt.Sprintf("body read failed without injected fault: %v", readErr)
		}
	case res.status == http.StatusOK:
		if json.Valid(body) && resp.Header.Get("X-Muve-Source") != "" {
			res.good = true
		} else if !res.transport {
			res.escaped = true
			res.detail = "malformed 200 body without injected fault"
		}
	case res.status == http.StatusServiceUnavailable || res.status == http.StatusGatewayTimeout:
		// Clean, contract-conforming shed.
	default:
		res.escaped = true
		res.detail = fmt.Sprintf("unexpected status %d", res.status)
	}
	return res
}

// fold accumulates one result into a step under mu.
func (st *overloadStep) fold(r olResult, latsInt *[]float64) {
	if r.transport {
		st.Transport++
	}
	if r.escaped {
		st.Escaped++
	}
	switch r.status {
	case 503:
		st.Shed++
	case http.StatusGatewayTimeout:
		st.Deadline++
	}
	if r.good {
		st.Good++
		if !r.batch {
			*latsInt = append(*latsInt, float64(r.elapsed)/float64(time.Millisecond))
		}
	}
}

// finish computes rates and quantiles for a completed step.
func (st *overloadStep) finish(dur time.Duration, latsInt []float64) {
	st.GoodputRPS = float64(st.Good) / dur.Seconds()
	if len(latsInt) == 0 {
		return
	}
	sort.Float64s(latsInt)
	st.P50ms = latsInt[len(latsInt)/2]
	st.P99ms = latsInt[min(len(latsInt)-1, len(latsInt)*99/100)]
}

// closedLoop drives `workers` always-busy clients for dur — the
// capacity calibration: with no arrival queue, completed goodput is the
// stack's sustainable rate under the same faults the ramp injects.
func closedLoop(c *olClient, workers int, dur time.Duration) overloadStep {
	var st overloadStep
	var lats []float64
	var mu sync.Mutex
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := c.request()
				mu.Lock()
				st.Sent++
				st.fold(r, &lats)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.finish(dur, lats)
	return st
}

// openLoop offers requests at a fixed arrival rate for dur, regardless
// of completions — the regime where unshed overload compounds into
// collapse. Outstanding requests are bounded only far above the
// engine's own limits; hitting that bound means the server has stopped
// answering and is counted as client overflow, not silently skipped.
func openLoop(c *olClient, rate float64, dur time.Duration) overloadStep {
	st := overloadStep{RateRPS: rate}
	var lats []float64
	var mu sync.Mutex
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	sem := make(chan struct{}, 512)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for time.Now().Before(deadline) {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			st.Sent++
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				r := c.request()
				mu.Lock()
				st.fold(r, &lats)
				mu.Unlock()
			}()
		default:
			st.Overflow++
		}
		time.Sleep(interval)
	}
	wg.Wait()
	st.finish(dur, lats)
	return st
}
