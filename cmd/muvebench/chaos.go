package main

import (
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
	"strconv"
	"sync"
	"time"

	"muve"
	"muve/internal/resilience"
	"muve/internal/serve"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// chaosReport is the machine-readable summary of a chaos run, written
// to -chaos-json so BENCH_*.json can track degradation rates alongside
// latency across revisions.
type chaosReport struct {
	Spec      string         `json:"spec"`
	Seed      int64          `json:"seed"`
	Requests  int            `json:"requests"`
	Workers   int            `json:"workers"`
	Answered  int            `json:"answered"`
	Rejected  int            `json:"rejected_429"`
	Shed      int            `json:"shed_503"`
	Escaped   int            `json:"escaped"`
	Transport int            `json:"transport_damaged,omitempty"`
	Rungs     map[string]int `json:"rungs"`
	Latency   latencyStats   `json:"latency_ms"`
	Retries   retryCounts    `json:"retries"`
	Hedge     hedgeCounts    `json:"hedge"`
	Drain     drainCounts    `json:"drain"`
}

// retryCounts tracks the client retry contract from both sides: what
// the harness's clients sent, and what the engine's budgets did.
type retryCounts struct {
	Client    int    `json:"client"`
	Attempted uint64 `json:"attempted"`
	Denied    uint64 `json:"denied"`
}

// hedgeCounts summarizes the hedged-exact races.
type hedgeCounts struct {
	Started uint64            `json:"started"`
	Wins    map[string]uint64 `json:"wins,omitempty"`
}

// engineCounts reads the engine's retry-budget and hedge counters into
// the report: a hedge started at every hedge point a token was free for,
// and Wins names each winner that finished first at least once.
func engineCounts(m *serve.Metrics, r *retryCounts, h *hedgeCounts) {
	r.Attempted = m.Retries[serve.RetryAllowed].Value() + m.Retries[serve.RetryDenied].Value()
	r.Denied = m.Retries[serve.RetryDenied].Value()
	exact, won := m.Hedge[serve.HedgeExact].Value(), m.Hedge[serve.HedgeWon].Value()
	h.Started = exact + won + m.Hedge[serve.HedgeFailed].Value()
	h.Wins = map[string]uint64{}
	if exact > 0 {
		h.Wins["exact"] = exact
	}
	if won > 0 {
		h.Wins["hedge"] = won
	}
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
// that served it), cleanly shed with 429/503, or escaped — any result
// the resilience layer is supposed to make impossible.
type chaosOutcome struct {
	status  int
	source  serve.Source
	elapsed time.Duration
	escaped bool
	detail  string
	// retried marks a request whose client issued a second attempt
	// after a clean 429/503 shed.
	retried bool
	// transport marks injected transport damage the client observed
	// (advertised via X-Chaos-Transport, or a connection the reset
	// fault killed) — expected damage, not an escape.
	transport bool
}

// runChaos drives the same serve.Engine degradation ladder muveserver
// serves from, but with deterministic fault injection enabled, and
// verifies the resilience contract: every request must either return an
// answer (possibly from a lower rung) or fast-fail with 429/503 —
// never hang and never surface an injected fault. Any escape fails the
// run with a non-zero exit so `make chaos-smoke` can gate CI on it.
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

	tbl, err := workload.Build(workload.NYC311, 20_000, seed)
	if err != nil {
		return err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	engine, err := ladderEngine(db, tbl.Name, chaosConfig(ch, workers))
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
				outcomes[i] = doReq(req)
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
	rep.Drain = drainChaos(engine, utterances)
	engineCounts(engine.Metrics(), &rep.Retries, &rep.Hedge)
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
	if !rep.Drain.Shed503 {
		return fmt.Errorf("draining engine did not shed new planning work with 503")
	}
	return nil
}

// ladderEngine builds the full four-rung ladder (exact ILP, capped at
// half the remaining deadline → greedy → stale → minimal) over table,
// mirroring muveserver's wiring. cfg carries the sizing; the planners,
// dataset and solver name are filled in here.
func ladderEngine(db *sqldb.DB, table string, cfg serve.Config) (*serve.Engine, error) {
	sys, err := muve.New(db, table,
		muve.WithSolver(muve.SolverILP),
		muve.WithBudgetFraction(0.5))
	if err != nil {
		return nil, err
	}
	greedySys, err := muve.New(db, table, muve.WithSolver(muve.SolverGreedy))
	if err != nil {
		return nil, err
	}
	minimalSys, err := muve.New(db, table,
		muve.WithSolver(muve.SolverGreedy),
		muve.WithK(1),
		muve.WithMaxCandidates(1))
	if err != nil {
		return nil, err
	}
	cfg.Planner = func(ctx context.Context, req serve.Request, sess *serve.Session) (any, error) {
		return sys.AskContext(ctx, req.Transcript)
	}
	cfg.Fallback = func(ctx context.Context, req serve.Request, sess *serve.Session) (any, error) {
		return greedySys.AskContext(ctx, req.Transcript)
	}
	cfg.Minimal = func(ctx context.Context, req serve.Request, sess *serve.Session) (any, error) {
		return minimalSys.AskContext(ctx, req.Transcript)
	}
	cfg.Dataset = table
	cfg.Solver = muve.SolverILP.String()
	return serve.NewEngine(cfg)
}

// chaosConfig sizes the ladder that -chaos and -slo drive: tight
// deadlines and a short cache TTL, so injected faults actually push
// requests down the ladder within a smoke test's runtime.
func chaosConfig(ch *resilience.Chaos, workers int) serve.Config {
	return serve.Config{
		MaxInFlight:      workers,
		Queue:            8 * workers,
		BatchQueue:       2 * workers,
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

// chaosHTTPServer wraps the engine in the minimal middleware stack the
// transport faults need: WithHTTPChaos outermost (the wire), recovery
// inside it (rethrowing the reset's abort panic). The handler mirrors
// muveserver's /ask.json shape closely enough for clients to validate
// payload integrity.
func chaosHTTPServer(engine *serve.Engine, ch *resilience.Chaos) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/ask", func(w http.ResponseWriter, r *http.Request) {
		attempt, _ := strconv.Atoi(r.Header.Get(serve.AttemptHeader))
		resp, err := engine.Do(r.Context(), serve.Request{
			Transcript: r.URL.Query().Get("q"),
			Batch:      r.URL.Query().Get("batch") == "1",
			Refresh:    r.URL.Query().Get("refresh") == "1",
			Attempt:    attempt,
		})
		if err != nil {
			http.Error(w, err.Error(), serve.StatusOf(err))
			return
		}
		w.Header().Set("X-Muve-Source", string(resp.Source))
		w.Header().Set("Content-Type", "application/json")
		ans := resp.Value.(*muve.Answer)
		json.NewEncoder(w).Encode(struct {
			Transcript string `json:"transcript"`
			SQL        string `json:"sql"`
		}{ans.Transcript, ans.TopQuery.SQL()})
	})
	quiet := log.New(io.Discard, "", 0)
	return httptest.NewServer(serve.WithHTTPChaos(ch,
		serve.WithDeadline(0,
			serve.WithRecovery(quiet, engine.Metrics(), mux))))
}

// chaosHTTPRequest issues one request (plus at most one labeled retry
// after a clean shed) over real HTTP and classifies what the client
// saw. Injected transport damage is recognizable — the response carries
// X-Chaos-Transport, or the connection died under a reset — and is
// counted, not escaped; damage without that marker is an escape.
func chaosHTTPRequest(client *http.Client, base string, req serve.Request) chaosOutcome {
	attempt := func(a int) chaosOutcome {
		u := base + "/ask?q=" + url.QueryEscape(req.Transcript)
		if req.Batch {
			u += "&batch=1"
		}
		hreq, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return chaosOutcome{escaped: true, detail: err.Error()}
		}
		if a > 0 {
			hreq.Header.Set(serve.AttemptHeader, strconv.Itoa(a))
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
		if o.status == http.StatusOK && !json.Valid(body) && !o.transport {
			o.escaped = true
			o.detail = "malformed 200 body without injected transport fault"
		}
		return o
	}
	o := attempt(0)
	if o.status == 429 || o.status == 503 {
		o = attempt(1)
		o.retried = true
	}
	return o
}

// drainChaos exercises the crash-only drain path: it puts a few solves
// in flight, drains the engine, verifies that new planning work is shed
// with 503 while draining, and closes the engine — cancelling whatever
// is still running.
func drainChaos(engine *serve.Engine, utterances []string) drainCounts {
	var wg sync.WaitGroup
	for i := 0; i < 3 && i < len(utterances); i++ {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			engine.Do(context.Background(), serve.Request{Transcript: q, Refresh: true})
		}(utterances[i])
	}
	time.Sleep(50 * time.Millisecond) // let the solves enter planning
	engine.Drain()
	_, err := engine.Do(context.Background(), serve.Request{
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
			resp, err := engine.Do(context.Background(), req)
			o := chaosOutcome{elapsed: time.Since(start), status: serve.StatusOf(err)}
			if err == nil {
				o.source = resp.Source
			} else if o.status != 429 && o.status != 503 {
				o.escaped = true
				o.detail = fmt.Sprintf("status %d: %v", o.status, err)
			}
			return o
		}
		o := attempt()
		if o.status == 429 || o.status == 503 {
			// One labeled retry per shed request, like a well-behaved
			// client: the engine charges it against the retry budget and
			// may shed it again — that is still a clean outcome.
			req.Attempt = 1
			o = attempt()
			o.retried = true
		}
		done <- o
	}()
	// The watchdog allows two full ladder descents: the original attempt
	// plus the labeled retry.
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
		Rungs:    map[string]int{},
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
		case o.status == 429:
			rep.Rejected++
		case o.status == 503:
			rep.Shed++
		case o.status == 0 || (o.status == 200 && o.source == ""):
			// The connection died under an injected reset before an
			// attributable answer came through; counted in Transport above.
		default:
			rep.Answered++
			rep.Rungs[string(o.source)]++
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
	fmt.Fprintf(w, "%-14s %6d\n", "rejected-429", rep.Rejected)
	fmt.Fprintf(w, "%-14s %6d\n", "shed-503", rep.Shed)
	fmt.Fprintf(w, "%-14s %6d\n", "transport", rep.Transport)
	fmt.Fprintf(w, "%-14s %6d\n", "escaped", rep.Escaped)

	fmt.Fprintf(w, "\nretries: client=%d engine=%d denied=%d\n",
		rep.Retries.Client, rep.Retries.Attempted, rep.Retries.Denied)
	fmt.Fprintf(w, "hedges:  started=%d", rep.Hedge.Started)
	winners := make([]string, 0, len(rep.Hedge.Wins))
	for k := range rep.Hedge.Wins {
		winners = append(winners, k)
	}
	sort.Strings(winners)
	for _, k := range winners {
		fmt.Fprintf(w, " %s=%d", k, rep.Hedge.Wins[k])
	}
	fmt.Fprintf(w, "\ndrain:   cancelled=%d shed-503=%v\n", rep.Drain.Cancelled, rep.Drain.Shed503)

	fmt.Fprintf(w, "\nanswer source / ladder rung distribution:\n")
	keys := make([]string, 0, len(rep.Rungs))
	for k := range rep.Rungs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := rep.Rungs[k]
		fmt.Fprintf(w, "  %-10s %6d  %5.1f%%\n", k, n, 100*float64(n)/float64(max(rep.Answered, 1)))
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
