// Command muveserver serves MUVE over HTTP through the internal/serve
// engine: a concurrent serving stack with a sharded answer cache,
// request coalescing, per-client sessions, a bounded worker pool with
// per-request timeouts and ILP→greedy degradation, and a metrics
// registry — in front of the web demo the paper presents (Figure 2).
//
// Endpoints:
//
//	GET /                      query form + rendered multiplot
//	GET /ask?q=...             SVG multiplot for the query
//	GET /ask?q=...&format=voice  spoken-answer transcript (text/plain)
//	GET /ask.json?q=...        candidate distribution as JSON (with a
//	                           "voice" object under format=voice)
//	GET /trend?q=...&by=col    SVG line chart (trend extension)
//	GET /healthz               liveness probe
//	GET /readyz                readiness probe (503 once draining)
//	GET /metrics               Prometheus text metrics: the engine's 23
//	                           families (README "Metrics reference")
//	                           plus the Go runtime's muve_go_*
//	GET /debug/vars            the same engine families as JSON (with
//	                           p50/p95/p99)
//	GET /debug/traces          recent pipeline traces (?format=json|text|chrome)
//	GET /debug/slo             SLO burn-rate report (?format=text; with -slo)
//	GET /debug/incidents       flight-recorder bundles (?id=inc-N&part=
//	                           cpu|heap|metrics|traces|slo)
//	GET /debug/pprof/*         Go profiling endpoints (with -pprof)
//
// format=voice plans a spoken fact-set answer (internal/speak) instead
// of a multiplot: the exact fact-set ILP, degrading to greedy fact
// selection, a stale cached voice answer, and finally a single headline
// fact. Voice and plot answers are cached under distinct keys, and
// voice traffic is counted in muve_speak_total{stat} and under
// mode="voice" in muve_ladder_rung_total (-speak-words bounds the
// spoken length).
//
// /ask and /ask.json accept three optional parameters: sid=<id> binds
// the request to a server-side session (consecutive utterances reuse
// state, and the ILP solvers seed from the session's previous
// multiplot — outcomes are counted in muve_warmstart_total),
// refresh=1 bypasses the answer cache (and the stale rung), and
// batch=1 queues the request in the low-priority admission lane.
// Responses carry X-Muve-Source
// (session|cache|coalesced|planned|fallback|stale|minimal) and
// X-Request-Id headers.
//
// Resilience: failed planning descends a degradation ladder (exact
// solver → greedy → stale cached answer within -stale-for of expiry →
// minimal single-plot answer); a fully exhausted ladder returns 503.
// One circuit breaker guards the exact rung: it trips after
// -breaker-threshold consecutive deadline misses, whatever stage each
// is blamed on, and skips that rung for -breaker-cooldown before one
// probe tries it again. -chaos injects deterministic faults for
// drills (spec "stage:lat=DUR[@P],err=P,panic=P;...", stages
// speech|nlq|solver|progressive|viz or *; seeded by -chaos-seed). The
// reserved stage "http" (never matched by "*") injects transport faults below the
// handler instead: slowwrite=DUR[@P], stallread=DUR[@P], partial=P,
// reset=P, garbage=P — slow or truncated response writes, stalled
// request reads, mid-response connection aborts, and corrupt bytes
// appended after the body (responses touched this way carry
// X-Chaos-Transport so harnesses can tell injected damage from real).
//
// Overload behavior: admission is -max-inflight slots and two FIFO
// lanes — freed slots go to the interactive lane before the batch
// lane, in arrival order within a lane (queue wait in the
// muve_sojourn_seconds{priority} histograms). A lane has no depth
// bound: a request whose planning budget runs out while queued answers
// 504. Three mechanisms carry the load past saturation. Deadlines:
// clients bound how long they wait via X-Muve-Deadline (duration or
// unix-millis; capped by -max-deadline; planning and queue order are
// unaffected). A retry is an ordinary request: it passes the same
// admission as a first attempt. Hedging: -hedge races a greedy hedge against exact solves that
// outlive the windowed p90 planning time, at most
// max(-max-inflight/4, 1) at once; the first finisher wins
// (muve_hedge_total{outcome}, source "hedged"). Crash-only drain,
// below. Measured with `muvebench -overload` at 2x calibrated capacity
// on 2 CPUs: no 503 or 504, and hedges start and win in every run. The
// startup log line prints the presentation method, the ILP budget
// after -budget-fraction, the resolved ladder rungs, hedge tokens and
// stale window.
//
// Shutdown is crash-only: on SIGINT/SIGTERM the server fails /readyz,
// refuses new planning work (503; cache, session, and stale answers
// still serve), drains in-flight solves for at most -drain, cancels
// the stragglers (muve_drain_cancelled_total), and — with -snapshot —
// spills warm cache entries and session hints to disk. A restarting
// replica loads the spill as stale-rung answers, so it serves repeat
// queries immediately while its cache refills.
//
// Usage:
//
//	muveserver [-addr :8080] [-dataset nyc311] [-rows 50000] [-seed 1]
//	           [-solver greedy] [-width 1024] [-sketch-rate 0]
//	           [-max-inflight 32] [-cache-entries 1024] [-cache-ttl 5m]
//	           [-timeout 10s] [-stale-for 0] [-breaker-threshold 3] [-breaker-cooldown 5s]
//	           [-hedge] [-max-deadline 0]
//	           [-drain 10s] [-snapshot FILE] [-snapshot-max-age 1h]
//	           [-budget-fraction 0]
//	           [-chaos spec] [-chaos-seed 1] [-speak-words 0]
//	           [-trace-buffer 128] [-pprof] [-runtime-trace trace.out]
//	           [-slo "e2e:p95<1s"] [-slo-burn 14.4] [-slo-interval 10s]
//	           [-incident-buffer 8] [-incident-dir DIR]
//	           [-incident-profile 1s] [-incident-cooldown 30s]
//
// -trace-buffer sizes the in-memory ring of recent request traces (0
// disables the ring and /debug/traces serves an empty list; with -slo
// set every request is still traced for the SLO engine). -pprof mounts
// net/http/pprof under /debug/pprof/. -runtime-trace captures a Go runtime execution trace into the given
// file for `go tool trace`.
//
// SLOs: -slo declares latency objectives ("stage:pNN<dur", semicolon-
// separated; stage "e2e" is whole-request latency). Every finished
// trace folds into per-stage sliding windowed histograms; each
// objective's error-budget burn rate is evaluated over a fast (5m) and
// slow (1h) window and trips when both reach -slo-burn. A trip — or a
// circuit breaker opening — fires the flight recorder, which captures
// an incident bundle (short CPU profile, heap profile, trace-ring
// snapshot, metrics dump, SLO state) into a ring of -incident-buffer
// bundles at /debug/incidents, optionally spilled under -incident-dir.
// /metrics additionally carries Go runtime health as the seven muve_go_*
// families, and all pipeline work runs under pprof labels (stage, lane,
// mode, rung) so `go tool pprof -tags` decomposes CPU by stage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"html"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"runtime/trace"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"muve"
	"muve/internal/obs"
	"muve/internal/resilience"
	"muve/internal/serve"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "muveserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addrFlag     = flag.String("addr", ":8080", "listen address")
		datasetFlag  = flag.String("dataset", "nyc311", "synthetic data set: ads|dob|nyc311|flights")
		rowsFlag     = flag.Int("rows", 50_000, "synthetic row count")
		solverFlag   = flag.String("solver", "greedy", "planner: greedy|ilp|ilp-inc")
		widthFlag    = flag.Int("width", 1024, "planned screen width in pixels")
		seedFlag     = flag.Int64("seed", 1, "data seed")
		inflightFlag = flag.Int("max-inflight", 32, "max concurrently planning requests (excess queue)")
		cacheFlag    = flag.Int("cache-entries", 1024, "answer cache capacity (negative disables)")
		cacheTTLFlag = flag.Duration("cache-ttl", 5*time.Minute, "answer cache entry lifetime (0 = never expire)")
		timeoutFlag  = flag.Duration("timeout", 10*time.Second, "per-request planning budget")
		staleFlag    = flag.Duration("stale-for", 0, "serve expired cached answers up to this long past TTL when planning fails (0 disables)")
		hedgeFlag    = flag.Bool("hedge", false, "race a greedy hedge against exact solves that outlive the windowed p90 planning time (needs a non-greedy -solver)")
		sketchFlag   = flag.Float64("sketch-rate", 0, "aggregate-sketch sample rate in (0,1): answer progressive first paints from per-template sketches, each built by one sampled scan (0 disables)")
		snapAgeFlag  = flag.Duration("snapshot-max-age", time.Hour, "skip drain snapshots older than this at restore (0 = no age cap)")
		maxDeadline  = flag.Duration("max-deadline", 0, "cap on client-supplied X-Muve-Deadline values (0 = no cap)")
		drainFlag    = flag.Duration("drain", 10*time.Second, "shutdown drain deadline: in-flight solves past it are cancelled, not awaited")
		snapFlag     = flag.String("snapshot", "", "spill warm cache and session hints to this file on drain, and restore them (as stale-rung answers) at startup")
		brkThreshold = flag.Int("breaker-threshold", 3, "consecutive deadline misses tripping the exact rung's circuit breaker (negative disables)")
		brkCooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker skips the exact rung before probing")
		budgetFlag   = flag.Float64("budget-fraction", 0, "cap ILP planning at this fraction of the remaining request deadline (0 disables)")
		chaosFlag    = flag.String("chaos", "", "fault-injection spec, e.g. 'solver:lat=300ms@0.5,err=0.1' (drills only)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for -chaos randomness")
		speakFlag    = flag.Int("speak-words", 0, "voice answer word budget for format=voice (0 = default 40)")
		traceBufFlag = flag.Int("trace-buffer", 128, "recent request traces kept for /debug/traces (0 disables)")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		rtTraceFlag  = flag.String("runtime-trace", "", "capture a Go runtime trace into this file")
		sloFlag      = flag.String("slo", "e2e:p95<1s", "latency SLOs, 'stage:pNN<dur[;...]' (stage e2e = whole request); empty disables /debug/slo")
		sloBurnFlag  = flag.Float64("slo-burn", 14.4, "burn-rate threshold tripping an objective (both fast and slow windows)")
		sloEvalFlag  = flag.Duration("slo-interval", 10*time.Second, "how often objectives are evaluated for trips")
		incBufFlag   = flag.Int("incident-buffer", 8, "incident bundles kept for /debug/incidents")
		incDirFlag   = flag.String("incident-dir", "", "also spill each incident bundle's parts as files under this directory")
		incProfFlag  = flag.Duration("incident-profile", time.Second, "incident CPU profile duration")
		incCoolFlag  = flag.Duration("incident-cooldown", 30*time.Second, "minimum spacing between incident captures (suppressed triggers count as repeats)")
	)
	flag.Parse()
	if err := checkSketchRate(*sketchFlag); err != nil {
		return err
	}

	if *rtTraceFlag != "" {
		f, err := os.Create(*rtTraceFlag)
		if err != nil {
			return err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			trace.Stop()
			f.Close()
			log.Printf("muveserver runtime trace written to %s (view with: go tool trace %s)", *rtTraceFlag, *rtTraceFlag)
		}()
	}

	ds, err := workload.ByName(*datasetFlag)
	if err != nil {
		return err
	}
	tbl, err := workload.Build(ds, *rowsFlag, *seedFlag)
	if err != nil {
		return err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	db.EnableSketches(*sketchFlag)
	solver, err := muve.ParseSolverKind(*solverFlag)
	if err != nil {
		return err
	}
	sys, err := muve.New(db, ds.String(),
		muve.WithSolver(solver),
		muve.WithWidth(*widthFlag),
		muve.WithBudgetFraction(*budgetFlag),
		muve.WithSpeakWords(*speakFlag))
	if err != nil {
		return err
	}

	var chaos *resilience.Chaos
	if *chaosFlag != "" {
		chaos, err = resilience.ParseChaos(*chaosFlag, *chaosSeed)
		if err != nil {
			return err
		}
		log.Printf("muveserver CHAOS ENABLED: %s (seed %d)", *chaosFlag, *chaosSeed)
	}

	objectives, err := obs.ParseObjectives(*sloFlag)
	if err != nil {
		return err
	}

	// The flight recorder is built after the engine (its metrics dump
	// needs the registry), so breaker notifications late-bind to it; the
	// variable is assigned before the server accepts traffic.
	var recorder *obs.Recorder
	engine, err := sys.NewEngine(serve.Config{
		MaxInFlight:      *inflightFlag,
		Timeout:          *timeoutFlag,
		CacheEntries:     *cacheFlag,
		CacheTTL:         *cacheTTLFlag,
		StaleFor:         *staleFlag,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		Hedge:            *hedgeFlag,
		Chaos:            chaos,
		BreakerNotify: func(to resilience.BreakerState) {
			if recorder != nil && to == resilience.Open {
				recorder.Trigger("breaker-open")
			}
		},
		Logger: log.Default(),
	})
	if err != nil {
		return err
	}
	if *snapFlag != "" {
		// Best-effort: a bad snapshot means a cold start, not a failed one.
		if n, s, err := loadSnapshot(*snapFlag, engine, ds.String(), *solverFlag, *widthFlag, *snapAgeFlag); err != nil {
			log.Printf("muveserver snapshot restore skipped: %v", err)
		} else if n > 0 || s > 0 {
			log.Printf("muveserver restored %d stale cache entries and %d session hints from %s", n, s, *snapFlag)
		}
	}

	ring := obs.NewRing(*traceBufFlag)
	gostats := obs.NewGoStats()
	var slo *obs.SLO
	if strings.TrimSpace(*sloFlag) != "" {
		slo = obs.NewSLO(obs.SLOConfig{
			Objectives:    objectives,
			BurnThreshold: *sloBurnFlag,
			OnTrip: func(t obs.Trip) {
				log.Printf("muveserver SLO TRIP %s fast=%.1f slow=%.1f", t.Objective, t.FastBurn, t.SlowBurn)
				if recorder != nil {
					recorder.Trigger("slo-trip:" + t.Objective)
				}
			},
		})
	}
	recorder = obs.NewRecorder(obs.RecorderConfig{
		Capacity:        *incBufFlag,
		Dir:             *incDirFlag,
		ProfileDuration: *incProfFlag,
		Cooldown:        *incCoolFlag,
		Metrics: func() []byte {
			var b bytes.Buffer
			engine.Metrics().WriteProm(&b)
			gostats.WriteProm(&b)
			return b.Bytes()
		},
		State: func() any {
			if slo == nil {
				return nil
			}
			return slo.Report()
		},
		Traces: ring,
	})

	mux := newMux(engine, sys, ds.String(), tbl.NumRows(), gostats)
	// Readiness is separate from liveness: it flips to 503 the moment
	// drain starts, so load balancers stop routing before in-flight work
	// finishes. /healthz stays 200 throughout — the process is alive.
	var ready atomic.Bool
	ready.Store(true)
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/traces", obs.Handler(ring))
	if slo != nil {
		mux.Handle("/debug/slo", slo.Handler())
	}
	mux.Handle("/debug/incidents", recorder.Handler())
	if *pprofFlag {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// HTTP chaos sits outermost — closest to the wire — so its transport
	// faults (slow/partial writes, resets, garbage) corrupt everything
	// the inner stack produces, including log-instrumented writes.
	// Logging runs next so the request ID it assigns is visible to the
	// tracer (trace ID), the recovery middleware's panic log lines, and
	// the engine's own log lines; deadline propagation sits inside
	// logging so its 400/504 short-circuits still get a log line.
	// Recovery sits innermost so a panicking handler still produces a
	// finished trace and a log line. The SLO engine observes every
	// finished trace, so burn rates cover all traffic.
	var observers []func(*obs.Trace)
	if slo != nil {
		observers = append(observers, slo.ObserveTrace)
	}
	handler := serve.WithHTTPChaos(chaos,
		serve.WithLogging(log.Default(),
			serve.WithDeadline(*maxDeadline,
				serve.WithTracing(ring, engine.Metrics(),
					serve.WithRecovery(log.Default(), engine.Metrics(), mux), observers...))))
	srv := &http.Server{
		Addr:              *addrFlag,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if slo != nil {
		go slo.Run(ctx, *sloEvalFlag)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("muveserver listening on %s (table %s, %d rows, %s solver, %d inflight, %d cache entries; %s; %s)",
		*addrFlag, ds.String(), tbl.NumRows(), *solverFlag, *inflightFlag, *cacheFlag, sys.Setup(), engine.Setup())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Crash-only drain: fail readiness so load balancers stop routing,
	// refuse new planning work (cache/session/stale hits still serve),
	// give in-flight solves the drain deadline, then cancel whatever is
	// left and spill the warm state. Every step past this point is
	// best-effort — the exit path must work exactly the same way when
	// the deadline, not completion, ends it.
	log.Printf("muveserver shutting down, draining in-flight requests for up to %s", *drainFlag)
	ready.Store(false)
	engine.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	if n := engine.Close(); n > 0 {
		log.Printf("muveserver drain deadline: cancelled %d in-flight solves", n)
	}
	if *snapFlag != "" {
		if err := saveSnapshot(*snapFlag, engine, ds.String(), *solverFlag, *widthFlag); err != nil {
			log.Printf("muveserver snapshot spill failed: %v", err)
		} else {
			log.Printf("muveserver spilled warm state to %s", *snapFlag)
		}
	}
	if shutErr != nil {
		log.Printf("muveserver drain incomplete (%v); exiting anyway", shutErr)
	}
	return nil
}

// checkSketchRate rejects a -sketch-rate that sqldb would silently
// treat as disabled: anything but 0 or a rate strictly inside (0, 1).
func checkSketchRate(rate float64) error {
	if rate == 0 || (rate > 0 && rate < 1) {
		return nil
	}
	return fmt.Errorf("-sketch-rate %v: want 0 (off) or a sample rate in (0, 1)", rate)
}

// answerFor runs one request through the engine and unwraps the muve
// answer, writing the HTTP error itself when something went wrong.
func answerFor(w http.ResponseWriter, r *http.Request, engine *serve.Engine) (*muve.Answer, bool) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		http.Error(w, "missing ?q=", http.StatusBadRequest)
		return nil, false
	}
	format := strings.TrimSpace(r.URL.Query().Get("format"))
	if _, err := muve.ParseAnswerMode(format); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	resp, err := engine.Do(r.Context(), serve.Request{
		Transcript: q,
		Mode:       format,
		SessionID:  strings.TrimSpace(r.URL.Query().Get("sid")),
		Refresh:    r.URL.Query().Get("refresh") == "1",
		Batch:      r.URL.Query().Get("batch") == "1",
	})
	if err != nil {
		http.Error(w, err.Error(), serve.StatusOf(err))
		return nil, false
	}
	w.Header().Set("X-Muve-Source", string(resp.Source))
	ans, ok := resp.Value.(*muve.Answer)
	if !ok {
		http.Error(w, "internal: unexpected answer type", http.StatusInternalServerError)
		return nil, false
	}
	return ans, true
}

// promWriter is anything appending Prometheus text metrics — the Go
// runtime gauges ride along on /metrics this way.
type promWriter interface{ WriteProm(w io.Writer) }

// newMux builds the HTTP handler tree for a configured engine. Any
// extra promWriters are appended to the /metrics exposition after the
// engine's own registry.
func newMux(engine *serve.Engine, sys *muve.System, tableName string, numRows int, extras ...promWriter) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		engine.Metrics().WriteProm(w)
		for _, e := range extras {
			e.WriteProm(w)
		}
	})
	mux.Handle("/debug/vars", engine.Metrics().VarsHandler())
	mux.HandleFunc("/ask", func(w http.ResponseWriter, r *http.Request) {
		ans, ok := answerFor(w, r, engine)
		if !ok {
			return
		}
		// format=voice answers with the spoken transcript instead of SVG.
		if ans.Voice != nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, ans.Voice.Transcript)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, ans.SVG())
	})
	mux.HandleFunc("/ask.json", func(w http.ResponseWriter, r *http.Request) {
		ans, ok := answerFor(w, r, engine)
		if !ok {
			return
		}
		type candJSON struct {
			SQL  string  `json:"sql"`
			Prob float64 `json:"prob"`
		}
		type voiceJSON struct {
			Transcript string   `json:"transcript"`
			Words      int      `json:"words"`
			Objective  float64  `json:"objective"`
			Facts      []string `json:"facts"`
		}
		out := struct {
			Transcript string     `json:"transcript"`
			TopQuery   string     `json:"top_query"`
			Headline   string     `json:"headline"`
			Candidates []candJSON `json:"candidates"`
			PlanMS     float64    `json:"planning_ms"`
			Source     string     `json:"source"`
			Voice      *voiceJSON `json:"voice,omitempty"`
		}{
			Transcript: ans.Transcript,
			TopQuery:   ans.TopQuery.SQL(),
			Headline:   ans.Headline,
			PlanMS:     float64(ans.Stats.Duration.Microseconds()) / 1000,
			Source:     w.Header().Get("X-Muve-Source"),
		}
		if ans.Voice != nil {
			out.Voice = &voiceJSON{
				Transcript: ans.Voice.Transcript,
				Words:      ans.Voice.Words,
				Objective:  ans.Voice.Objective,
				Facts:      ans.Voice.Facts.Keys(),
			}
		}
		for _, c := range ans.Candidates {
			out.Candidates = append(out.Candidates, candJSON{SQL: c.Query.SQL(), Prob: c.Prob})
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(out); err != nil {
			log.Printf("req %s: encoding response: %v", serve.RequestID(r.Context()), err)
		}
	})
	mux.HandleFunc("/trend", func(w http.ResponseWriter, r *http.Request) {
		q := strings.TrimSpace(r.URL.Query().Get("q"))
		by := strings.TrimSpace(r.URL.Query().Get("by"))
		if q == "" || by == "" {
			http.Error(w, "missing ?q= or ?by=", http.StatusBadRequest)
			return
		}
		ans, err := sys.TrendText(q, by)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "image/svg+xml")
		fmt.Fprint(w, ans.SVG())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		q := strings.TrimSpace(r.URL.Query().Get("q"))
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, `<!doctype html><title>MUVE</title>
<h1>MUVE — robust voice querying</h1>
<p>Table <b>%s</b> (%d rows). Ask in natural language, e.g.
<i>how many noise complaints in brucklyn</i>.</p>
<form><input name="q" size="60" value="%s" autofocus><button>Ask</button></form>`,
			html.EscapeString(tableName), numRows, html.EscapeString(q))
		if q != "" {
			fmt.Fprintf(w, `<p><img alt="multiplot" src="/ask?q=%s"></p>`,
				url.QueryEscape(q))
		}
	})
	return mux
}
