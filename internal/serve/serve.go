// Package serve is MUVE's serving layer: it turns a single-user
// query-answering pipeline into a concurrent engine fit for heavy
// traffic. The paper's own levers for interactive latency — merged
// execution across interpretations and incremental optimization — cut
// the cost of ONE query; this package cuts the cost of a WORKLOAD,
// where phonetically similar utterances from many users collapse onto
// few distinct plans:
//
//   - a sharded LRU answer cache with TTL, keyed by (normalized
//     transcript, dataset, solver, screen width), so repeated queries
//     are answered in microseconds;
//   - singleflight coalescing, so N concurrent identical queries plan
//     once and share the answer;
//   - admission control: a bounded worker pool with two FIFO wait
//     lanes (interactive beats batch), each waiter bounded by its own
//     planning budget — one that runs out while queued fails with a
//     deadline error (HTTP 504);
//   - a degradation ladder (internal/resilience) in place of a single
//     fallback hook: exact ILP planning, then greedy planning, then a
//     stale-but-fresh-enough cached answer, then a minimal single-plot
//     answer, each rung bounded by its share of the remaining deadline
//     budget and recorded in Answer.Source, metrics and the trace;
//   - per-stage circuit breakers that skip the expensive exact rung
//     outright after consecutive deadline misses blamed on one stage,
//     half-opening with bounded probes after a cooldown;
//   - per-client sessions with bounded lifetimes that carry state
//     across consecutive utterances;
//   - an allocation-light metrics registry (counters, gauges, latency
//     histograms) exported in Prometheus text format and as JSON;
//   - a deterministic fault-injection hook (resilience.Chaos) so tests
//     and muvebench -chaos can prove no injected fault escapes the
//     ladder.
//
// The engine is decoupled from the muve package: answers are opaque
// values produced by a caller-supplied Planner, so the same machinery
// can front any expensive request-shaped computation.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"muve/internal/obs"
	"muve/internal/resilience"
)

// ModeVoice is the Request.Mode value for spoken answers. The engine
// treats modes as opaque key qualifiers except for speak metrics, which
// count this one.
const ModeVoice = "voice"

// Request is one query to answer.
type Request struct {
	// Transcript is the raw natural-language input.
	Transcript string
	// Mode selects the answer modality ("" or "plot" for multiplots,
	// ModeVoice for spoken fact sets). The mode qualifies the cache key,
	// so one transcript's plot and voice answers never cross; planners
	// receive it through the Request and route accordingly.
	Mode string
	// SessionID, when non-empty, binds the request to a client session
	// (created on first use, expired after idle TTL).
	SessionID string
	// Refresh bypasses cache and session reuse, forcing a fresh plan
	// (the answer is still stored for others). It also disables the
	// ladder's stale rung: a refresh must never serve expired data.
	Refresh bool
	// Batch marks the request as background work: it waits in the batch
	// admission lane, which any interactive request overtakes.
	Batch bool
}

// Source says where an answer came from, cheapest first.
type Source string

const (
	// SourceSession: the session's previous answer matched.
	SourceSession Source = "session"
	// SourceCache: the sharded answer cache matched.
	SourceCache Source = "cache"
	// SourceCoalesced: piggybacked on a concurrent identical request.
	SourceCoalesced Source = "coalesced"
	// SourcePlanned: planned and executed by the primary planner.
	SourcePlanned Source = "planned"
	// SourceFallback: planned by the fallback after a deadline miss.
	SourceFallback Source = "fallback"
	// SourceHedged: the concurrent greedy hedge finished before the
	// exact solve did; the exact attempt was cancelled.
	SourceHedged Source = "hedged"
	// SourceStale: served an expired cache entry still inside the stale
	// window, because every planning rung above it failed.
	SourceStale Source = "stale"
	// SourceMinimal: served by the minimal last-resort planner.
	SourceMinimal Source = "minimal"
)

// Degradation-ladder rung names, in descent order. Each maps to a
// Source via rungSource.
const (
	rungExact   = "exact"
	rungGreedy  = "greedy"
	rungStale   = "stale"
	rungMinimal = "minimal"
	// rungHedged relabels an exact-rung answer won by the concurrent
	// greedy hedge (it is not a ladder rung of its own: the hedge races
	// inside the exact rung's budget).
	rungHedged = "hedged"
)

// exactOnlyStages lists breaker stages that never veto the greedy
// rung: the multiplot ILP's "solver" stage and the fact-set ILP's
// "speak" stage are touched only by the exact planning rung, and an
// "unknown" blame (a failure the trace could not attribute to any
// stage) says nothing about shared-stage health either. A breaker
// tripped on any other blamed stage (speech, nlq, progressive, viz,
// sqldb, ...) is shared by all planning rungs and skips greedy too.
var exactOnlyStages = []string{"solver", "speak", "unknown"}

// rungSource maps the rung that served an answer to its Source label.
func rungSource(rung string) Source {
	switch rung {
	case rungGreedy:
		return SourceFallback
	case rungHedged:
		return SourceHedged
	case rungStale:
		return SourceStale
	case rungMinimal:
		return SourceMinimal
	}
	return SourcePlanned
}

// Response is the engine's answer envelope.
type Response struct {
	// Value is what the Planner returned.
	Value any
	// Source says which layer produced Value.
	Source Source
	// Elapsed is end-to-end time inside the engine.
	Elapsed time.Duration
	// Key is the cache key the request normalized to.
	Key string
}

// Planner computes an answer. It must honor ctx cancellation; when it
// returns an error wrapping context.DeadlineExceeded the engine
// degrades to the fallback planner (if configured). sess is non-nil
// when the request carries a session ID; planners may keep incremental
// state there across a session's utterances.
type Planner func(ctx context.Context, req Request, sess *Session) (any, error)

// Config assembles an Engine. Planner is required; everything else
// has serving-grade defaults.
type Config struct {
	// Planner computes answers on cache misses.
	Planner Planner
	// Fallback, when non-nil, is the ladder's greedy rung: tried (with
	// FallbackGrace budget) after Planner fails — e.g. greedy planning
	// when ILP runs over. Its answer is cached like any other.
	Fallback Planner
	// FallbackGrace is the fallback's time budget (default 2s).
	FallbackGrace time.Duration
	// Minimal, when non-nil, is the ladder's last resort: a planner
	// cheap enough to essentially never fail (e.g. a single-plot answer
	// over one candidate), tried when every richer rung has failed.
	Minimal Planner
	// MinimalGrace is the minimal planner's time budget (default 500ms).
	MinimalGrace time.Duration
	// StaleFor, when > 0, enables the ladder's stale rung: an expired
	// cache entry up to StaleFor past its TTL may be served when both
	// planners have failed. 0 disables the rung.
	StaleFor time.Duration
	// MaxInFlight bounds concurrently executing planner calls; excess
	// requests queue for a slot (default 32, <= 0 uses default).
	MaxInFlight int
	// Hedge enables the hedged exact rung: if the exact solve has not
	// finished by the windowed p90 of recent planning time, the greedy
	// Fallback starts concurrently and the first finisher wins (the
	// loser is cancelled). Requires Fallback; answers won by the hedge
	// are labeled SourceHedged and counted in muve_hedge_total{outcome}.
	//
	// At most max(MaxInFlight/4, 1) hedges run at once. A hedge runs a
	// second planner under the same admission slot, so without a bound
	// a hedging storm could double the planning work in flight. A hedge
	// that finds no token is denied (the exact solve just continues
	// alone) and counted as muve_hedge_total{outcome="denied"}.
	Hedge bool
	// BreakerThreshold trips a stage's circuit breaker after this many
	// consecutive blamed deadline misses (default 3; negative disables
	// breakers entirely).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// half-opening for probes (default 5s).
	BreakerCooldown time.Duration
	// Chaos, when non-nil, is propagated into planning contexts so
	// instrumented pipeline stages inject deterministic faults — tests
	// and muvebench -chaos only.
	Chaos *resilience.Chaos
	// Timeout bounds one planning attempt (default 10s).
	Timeout time.Duration
	// CacheEntries sizes the answer cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// CacheTTL expires cached answers (default 5m; <= 0 means never,
	// appropriate for immutable demo datasets).
	CacheTTL time.Duration
	// Dataset, Solver and WidthPx qualify the cache key so one process
	// serving several configurations never crosses answers.
	Dataset string
	Solver  string
	WidthPx int
	// Metrics, when non-nil, is the registry to record into (so
	// several engines can share one); nil allocates a fresh one.
	Metrics *Metrics
	// BreakerNotify, when non-nil, observes every breaker state change
	// in addition to the metrics gauges — muveserver points it at the
	// incident flight recorder so an opening breaker captures a bundle.
	BreakerNotify func(stage string, to resilience.BreakerState)
	// Logger, when non-nil, receives engine-level events (fallback
	// degradations, planner errors) tagged with the request ID from
	// the logging middleware. Nil disables engine logging.
	Logger *log.Logger
}

// Engine is the concurrent serving core. Create with NewEngine; all
// methods are safe for concurrent use.
type Engine struct {
	planner       Planner
	fallback      Planner
	minimal       Planner
	fallbackGrace time.Duration
	minimalGrace  time.Duration
	timeout       time.Duration
	keySuffix     string
	// sessionMaxAge bounds how old a session's remembered answer may be
	// and still be served (the cache TTL; 0 = unbounded).
	sessionMaxAge time.Duration

	cache     *Cache
	flight    flightGroup
	sessions  *SessionStore
	admission *resilience.Admission
	ladder    *resilience.Ladder
	breakers  *resilience.BreakerSet
	chaos     *resilience.Chaos
	metrics   *Metrics
	logger    *log.Logger

	// svcTime is the sliding-window planning service time (cache misses
	// only): its 1m p90 is the hedge trigger delay.
	svcTime *obs.Windowed

	// hedge enables the hedged exact rung; hedgeTokens is the token
	// bucket bounding concurrent hedge attempts.
	hedge       bool
	hedgeTokens chan struct{}
	// setup is the resolved serving setup, rendered once (Setup).
	setup string

	// baseCtx is the root of every planning context; Close cancels it
	// so in-flight solves observe shutdown. draining gates new plans;
	// plansActive counts plan calls currently executing.
	baseCtx     context.Context
	baseCancel  context.CancelFunc
	draining    atomic.Bool
	plansActive atomic.Int64
}

// ErrNoPlanner reports a Config without a Planner.
var ErrNoPlanner = errors.New("serve: Config.Planner is required")

// NewEngine validates cfg and builds the engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Planner == nil {
		return nil, ErrNoPlanner
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 32
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.FallbackGrace <= 0 {
		cfg.FallbackGrace = 2 * time.Second
	}
	if cfg.MinimalGrace <= 0 {
		cfg.MinimalGrace = 500 * time.Millisecond
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = 5 * time.Minute
	}
	// Session reuse is bounded by the same TTL as the shared cache: a
	// session must never serve an answer the cache would already have
	// expired. A negative TTL means never expire, for both.
	sessionMaxAge := cfg.CacheTTL
	if sessionMaxAge < 0 {
		sessionMaxAge = 0
	}
	m := cfg.Metrics
	if m == nil {
		m = &Metrics{}
	}
	cache := NewCache(cfg.CacheEntries, cfg.CacheTTL)
	if cfg.StaleFor > 0 {
		cache.SetStaleWindow(cfg.StaleFor)
	}
	// Sliding planning-latency window: 5s slots covering >1m, so the
	// 1m p90 service time behind the hedge delay is always live.
	e := &Engine{svcTime: obs.NewWindowed(5*time.Second, 16)}
	e.baseCtx, e.baseCancel = context.WithCancel(context.Background())
	admission := resilience.NewAdmission(resilience.AdmissionConfig{
		Capacity:  cfg.MaxInFlight,
		OnSojourn: func(p resilience.Priority, d time.Duration) { m.Sojourn[p].Observe(d) },
		OnDepth:   func(p resilience.Priority, depth int) { m.QueueDepth[p].Set(int64(depth)) },
	})
	var breakers *resilience.BreakerSet
	if cfg.BreakerThreshold >= 0 {
		breakers = resilience.NewBreakerSet(resilience.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
			OnChange: func(stage string, to resilience.BreakerState) {
				m.BreakerState.With(stage).Set(int64(to))
				if to == resilience.Open {
					m.BreakerTrips.With(stage).Inc()
				}
				if cfg.BreakerNotify != nil {
					cfg.BreakerNotify(stage, to)
				}
			},
		})
	}
	rungs := []resilience.Rung{{Name: rungExact, Max: cfg.Timeout}}
	if cfg.Fallback != nil {
		rungs = append(rungs, resilience.Rung{Name: rungGreedy, Max: cfg.FallbackGrace})
	}
	if cfg.StaleFor > 0 {
		rungs = append(rungs, resilience.Rung{Name: rungStale})
	}
	if cfg.Minimal != nil {
		rungs = append(rungs, resilience.Rung{Name: rungMinimal, Max: cfg.MinimalGrace})
	}
	e.planner = cfg.Planner
	e.fallback = cfg.Fallback
	e.minimal = cfg.Minimal
	e.fallbackGrace = cfg.FallbackGrace
	e.minimalGrace = cfg.MinimalGrace
	e.timeout = cfg.Timeout
	e.keySuffix = "\x00" + cfg.Dataset + "\x00" + cfg.Solver + "\x00" + strconv.Itoa(cfg.WidthPx)
	e.sessionMaxAge = sessionMaxAge
	e.cache = cache
	e.sessions = NewSessionStore(0, 0)
	e.admission = admission
	e.ladder = resilience.NewLadder(rungs...)
	e.breakers = breakers
	e.chaos = cfg.Chaos
	e.metrics = m
	e.logger = cfg.Logger
	e.hedge = cfg.Hedge && cfg.Fallback != nil
	if e.hedge {
		n := max(cfg.MaxInFlight/4, 1)
		e.hedgeTokens = make(chan struct{}, n)
		for i := 0; i < n; i++ {
			e.hedgeTokens <- struct{}{}
		}
	}
	e.setup = e.describeSetup(cfg)
	return e, nil
}

// describeSetup renders the serving setup NewEngine resolved from cfg:
// the ladder's rungs in descent order, the hedge and its derived token
// count, and the stale window.
func (e *Engine) describeSetup(cfg Config) string {
	var rungs []string
	for _, r := range e.ladder.Rungs() {
		rungs = append(rungs, r.Name)
	}
	hedge := "off"
	if e.hedge {
		hedge = fmt.Sprintf("on, %d tokens", cap(e.hedgeTokens))
	}
	stale := "off"
	if cfg.StaleFor > 0 {
		stale = cfg.StaleFor.String()
	}
	return fmt.Sprintf("ladder %s; hedge %s; stale window %s",
		strings.Join(rungs, " > "), hedge, stale)
}

// Setup describes the resolved serving setup in one line, for the
// startup log: ladder rungs, hedge tokens and stale window as the
// engine applies them, defaults filled in.
func (e *Engine) Setup() string { return e.setup }

// Metrics exposes the engine's registry (for mounting its handlers).
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Breakers exposes the per-stage circuit breakers (nil when disabled),
// for status endpoints and tests.
func (e *Engine) Breakers() *resilience.BreakerSet { return e.breakers }

// Cache exposes the answer cache (for stats endpoints and tests).
func (e *Engine) Cache() *Cache { return e.cache }

// Sessions exposes the session store.
func (e *Engine) Sessions() *SessionStore { return e.sessions }

// ErrDraining reports a planning request refused because the engine is
// shutting down. Cheap paths (cache, session, stale snapshot entries)
// still serve; servers should map it to HTTP 503.
var ErrDraining = errors.New("serve: engine is draining")

// Drain puts the engine into lame-duck mode: new planning is refused
// with ErrDraining while in-flight plans run down and cache/session
// hits keep serving. Part of the crash-only shutdown sequence —
// Drain, wait out the drain deadline, then Close.
func (e *Engine) Drain() { e.draining.Store(true) }

// Draining reports lame-duck mode.
func (e *Engine) Draining() bool { return e.draining.Load() }

// Close drains the engine and cancels every in-flight planning
// context, so solves still running when the drain deadline expires
// observe cancellation instead of running headless past process exit.
// Returns the number of plans that were still in flight.
func (e *Engine) Close() int {
	e.Drain()
	n := int(e.plansActive.Load())
	e.baseCancel()
	if n > 0 {
		e.metrics.DrainCancelled.Add(uint64(n))
	}
	return n
}

// hedgeDelay is the hedge trigger: the windowed p90 of recent planning
// time (falling back to a quarter of the exact budget while the window
// is thin), clamped so the hedge neither fires on the heels of the
// request nor waits past the point where it could still help.
func (e *Engine) hedgeDelay() time.Duration {
	st := e.svcTime.Window(time.Minute)
	d := st.Quantile(0.90)
	if st.Count < 8 || d <= 0 {
		d = e.timeout / 4
	}
	if min := 5 * time.Millisecond; d < min {
		d = min
	}
	if max := e.timeout / 2; d > max {
		d = max
	}
	return d
}

// Key normalizes a transcript into this engine's cache key: voice
// transcripts differ in case and incidental whitespace without
// differing in meaning, so both are folded before the configuration
// qualifiers are appended.
func (e *Engine) Key(transcript string) string {
	return strings.Join(strings.Fields(strings.ToLower(transcript)), " ") + e.keySuffix
}

// KeyFor is Key qualified by the request's answer mode: voice and plot
// answers for one transcript are distinct cache entries. The default
// plot mode ("" or "plot") adds no qualifier, so existing keys are
// unchanged.
func (e *Engine) KeyFor(req Request) string {
	k := e.Key(req.Transcript)
	if req.Mode != "" && req.Mode != "plot" {
		k += "\x00mode=" + req.Mode
	}
	return k
}

// Do answers one request through the serving stack: session reuse,
// then the shared cache, then coalesced planning under the worker
// pool. It returns ctx's error if the caller gives up first; planning
// already in progress continues so its answer still lands in the cache.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	e.metrics.Requests.Inc()
	e.metrics.InFlight.Inc()
	defer func() {
		e.metrics.InFlight.Dec()
		e.metrics.EndToEnd.Observe(time.Since(start))
	}()

	if req.Mode == ModeVoice {
		e.metrics.Speak[SpeakRequests].Inc()
	}
	key := e.KeyFor(req)
	sess := e.sessions.Get(req.SessionID)

	if !req.Refresh {
		if sess != nil {
			if v, ok := sess.reuse(key, e.sessionMaxAge, start); ok {
				e.metrics.Lookups[LookupSession].Inc()
				return &Response{Value: v, Source: SourceSession, Elapsed: time.Since(start), Key: key}, nil
			}
		}
		if v, ok := e.cache.Get(key); ok {
			e.metrics.Lookups[LookupCache].Inc()
			if sess != nil {
				sess.remember(key, v, start)
			}
			return &Response{Value: v, Source: SourceCache, Elapsed: time.Since(start), Key: key}, nil
		}
		e.metrics.Lookups[LookupMiss].Inc()
	}

	v, shared, err := e.flight.do(ctx, key, func() (any, error) {
		return e.plan(ctx, req, sess)
	})
	if err != nil {
		e.metrics.Errors.Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			e.metrics.Timeouts.Inc()
		}
		var ex *resilience.ExhaustedError
		if errors.As(err, &ex) {
			e.metrics.Exhausted.Inc()
		}
		return nil, err
	}
	src := SourcePlanned
	if pv, ok := v.(plannedValue); ok {
		src = pv.source
		v = pv.value
	}
	if shared {
		src = SourceCoalesced
		e.metrics.Coalesced.Inc()
	}
	if sess != nil {
		sess.remember(key, v, time.Now())
	}
	return &Response{Value: v, Source: src, Elapsed: time.Since(start), Key: key}, nil
}

// plannedValue carries the serving rung's Source through the flight
// group (coalesced followers see the leader's value, not its Source).
type plannedValue struct {
	value  any
	source Source
}

// blame names the pipeline stage responsible for a planning failure:
// the stage the trace was in when it happened, or "unknown" without a
// trace.
func blame(tr *obs.Trace) string {
	if stage := tr.LastStage(); stage != "" {
		return stage
	}
	return "unknown"
}

// breakerFailure classifies an exact-rung error for the circuit
// breakers: deadline misses and injected faults indicate an unhealthy
// stage; anything else (a malformed query, say) says nothing about the
// pipeline and must not trip a breaker.
func breakerFailure(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, resilience.ErrInjected)
}

// plan is the leader path: acquire an admission slot, then walk the
// degradation ladder — exact planner, greedy fallback, stale cached
// answer, minimal planner — under one detached deadline budget, and
// publish the answer to the cache. It runs detached from any single
// request's cancellation: the answer benefits every coalesced waiter
// and future cache hits, so one impatient client must not abort it.
// callerCtx is consulted only for identity — the leader's trace and
// request ID carry through so planning spans are recorded (coalesced
// followers contribute no spans of their own).
func (e *Engine) plan(callerCtx context.Context, req Request, sess *Session) (any, error) {
	if e.draining.Load() {
		return nil, ErrDraining
	}
	e.plansActive.Add(1)
	defer e.plansActive.Add(-1)
	tr := obs.FromContext(callerCtx)
	reqID := RequestID(callerCtx)
	key := e.KeyFor(req)

	// The total budget is the sum of the configured rungs' shares; each
	// rung is then capped at its own Max during the descent, so a rung
	// that fails fast leaves its unused budget to the ones below.
	total := e.timeout
	if e.fallback != nil {
		total += e.fallbackGrace
	}
	if e.minimal != nil {
		total += e.minimalGrace
	}
	// Detached from the caller (one impatient client must not abort
	// planning that benefits every coalesced waiter) but rooted in the
	// engine's base context, so Close cancels in-flight solves.
	planCtx, cancel := context.WithTimeout(e.baseCtx, total)
	defer cancel()
	if tr != nil {
		planCtx = obs.WithTrace(planCtx, tr)
	}
	if e.chaos != nil {
		planCtx = resilience.WithChaos(planCtx, e.chaos)
	}

	prio := resilience.Interactive
	if req.Batch {
		prio = resilience.Batch
	}
	release, err := e.admission.Acquire(planCtx, prio)
	if err != nil {
		if e.logger != nil {
			e.logger.Printf("plan %s: admission: %v", reqID, err)
		}
		return nil, err
	}
	defer release()

	planStart := time.Now()
	var blamed string // stage blamed for the exact rung's failure
	var hedgedWin bool
	mode := req.Mode
	if mode == "" {
		mode = "plot"
	}
	v, rung, outs, err := e.ladder.Descend(planCtx, func(actx context.Context, r resilience.Rung) (v any, err error) {
		// Each rung attempt runs under pprof labels so a CPU profile
		// decomposes by admission lane, answer mode and ladder rung; the
		// labeled context flows into the planners, whose own stage labels
		// nest inside, and worker pools they spawn inherit the set.
		pprof.Do(actx, pprof.Labels("lane", prio.String(), "mode", mode, "rung", r.Name), func(actx context.Context) {
			v, err = e.attemptRung(actx, r, req, sess, tr, key, &blamed, &hedgedWin)
		})
		return v, err
	})
	planDur := time.Since(planStart)
	e.metrics.Planning.Observe(planDur)
	e.svcTime.Observe(planDur)

	// Post-descent bookkeeping: contained panics, and the preserved
	// fallback blame semantics — when the exact rung failed and the
	// ladder had lower rungs to descend to, record which stage ran the
	// budget out (as a labeled counter and a mark on the trace).
	exactFailed := false
	for _, o := range outs {
		if o.Panicked {
			e.metrics.Panics.Inc()
			if e.logger != nil {
				e.logger.Printf("plan %s: rung %q panic contained: %v", reqID, o.Rung, o.Err)
			}
		}
		if o.Rung == rungExact && !o.Skipped {
			exactFailed = true
		}
	}
	if exactFailed && len(e.ladder.Rungs()) > 1 {
		if blamed == "" {
			blamed = "unknown"
		}
		e.metrics.Fallbacks.With(blamed).Inc()
		tr.Mark("fallback", obs.Str("blamed_stage", blamed))
		if e.logger != nil {
			e.logger.Printf("plan %s: exact rung failed in stage %q after %s, descending",
				reqID, blamed, time.Since(planStart).Round(time.Millisecond))
		}
	}
	if err != nil {
		if e.logger != nil {
			e.logger.Printf("plan %s: %v", reqID, err)
		}
		return nil, err
	}
	if rung == rungExact && hedgedWin {
		rung = rungHedged
	}
	ladder := modePlot
	if req.Mode == ModeVoice {
		ladder = modeVoice
	}
	e.metrics.Ladder[ladder].With(rung).Inc()
	if tr != nil && rung != rungExact {
		tr.Mark("ladder", obs.Str("rung", rung))
	}
	// Stale answers came from the cache; re-publishing would refresh
	// their TTL and let expired data circulate indefinitely.
	if rung != rungStale {
		e.cache.Put(key, v)
	}
	return plannedValue{value: v, source: rungSource(rung)}, nil
}

// settleExact records the exact attempt's outcome with the circuit
// breakers: a deadline/injected failure charges the blamed stage, any
// other failure returns probes without charging, success closes.
func (e *Engine) settleExact(tr *obs.Trace, blamed *string, v any, err error) (any, error) {
	switch {
	case err == nil:
		e.breakers.Result("", true)
	case breakerFailure(err):
		*blamed = blame(tr)
		e.breakers.Result(*blamed, false)
	default:
		*blamed = blame(tr)
		e.breakers.Result("", false) // returns probes, charges nobody
	}
	return v, err
}

// attemptRung executes one degradation-ladder rung. blamed receives
// the stage charged for an exact-rung failure (for breaker accounting
// and the fallback blame counters); hedged is set when the greedy
// hedge beat the exact solve.
func (e *Engine) attemptRung(actx context.Context, r resilience.Rung, req Request, sess *Session, tr *obs.Trace, key string, blamed *string, hedged *bool) (any, error) {
	switch r.Name {
	case rungExact:
		if vetoStage, ok := e.breakers.Allow(); !ok {
			return nil, &resilience.SkipError{Reason: "breaker-open:" + vetoStage}
		}
		if e.hedge {
			return e.attemptHedged(actx, req, sess, tr, blamed, hedged)
		}
		settled := false
		defer func() {
			if !settled { // the planner panicked out of this frame
				*blamed = blame(tr)
				e.breakers.Result(*blamed, false)
			}
		}()
		v, err := e.planner(actx, req, sess)
		settled = true
		return e.settleExact(tr, blamed, v, err)
	case rungGreedy:
		// Breaker-aware rung ordering: when the stage that tripped is
		// one the fallback depends on too (anything but the exact-only
		// solver stages), greedy would fail the same way — skip every
		// planning rung and jump straight to stale/minimal. Read-only:
		// probe accounting stays with the exact rung's Allow/Result.
		if stage, open := e.breakers.OpenExcept(exactOnlyStages...); open {
			return nil, &resilience.SkipError{Reason: "breaker-open:" + stage}
		}
		return e.fallback(actx, req, sess)
	case rungStale:
		if req.Refresh {
			return nil, &resilience.SkipError{Reason: "refresh"}
		}
		if sv, age, ok := e.cache.GetStale(key); ok {
			if tr != nil {
				tr.Mark("stale", obs.Str("age", age.Round(time.Millisecond).String()))
			}
			return sv, nil
		}
		return nil, &resilience.SkipError{Reason: "no-stale-entry"}
	case rungMinimal:
		return e.minimal(actx, req, sess)
	}
	return nil, &resilience.SkipError{Reason: "unknown-rung"}
}

// attemptHedged is the hedged exact rung (the "tail at scale" move):
// the exact solve starts immediately; if it has not finished by the
// windowed p90 of recent planning time, the greedy fallback starts
// concurrently and the first success wins, cancelling the loser. Both
// attempts run in goroutines with their own panic containment (a panic
// there cannot unwind through the ladder's recover), surfacing as a
// plain error that never charges a breaker. Breaker accounting: an
// exact finish settles as usual; a hedge win settles neutrally — the
// cancelled exact attempt proved nothing about stage health.
func (e *Engine) attemptHedged(actx context.Context, req Request, sess *Session, tr *obs.Trace, blamed *string, hedged *bool) (any, error) {
	type result struct {
		v   any
		err error
	}
	run := func(ctx context.Context, plan Planner) chan result {
		ch := make(chan result, 1)
		go func() {
			var r result
			defer func() {
				if p := recover(); p != nil {
					r = result{err: fmt.Errorf("serve: hedged attempt panic contained: %v", p)}
				}
				ch <- r
			}()
			r.v, r.err = plan(ctx, req, sess)
		}()
		return ch
	}

	exCtx, exCancel := context.WithCancel(actx)
	defer exCancel()
	exc := run(exCtx, e.planner)

	trigger := time.NewTimer(e.hedgeDelay())
	defer trigger.Stop()
	select {
	case r := <-exc:
		return e.settleExact(tr, blamed, r.v, r.err)
	case <-trigger.C:
	}

	// Hedge point: race the greedy fallback against the exact solve —
	// but only with a hedge token in hand. The hedge is a second planner
	// under the SAME admission slot, so the token bucket bounds how many
	// hedges run at once. No token: the exact solve just continues
	// alone, which is the pre-hedge behavior.
	select {
	case <-e.hedgeTokens:
	default:
		e.metrics.Hedge[HedgeDenied].Inc()
		if tr != nil {
			tr.Mark("hedge", obs.Str("trigger", "denied"))
		}
		r := <-exc
		return e.settleExact(tr, blamed, r.v, r.err)
	}
	if tr != nil {
		tr.Mark("hedge", obs.Str("trigger", "p90"))
	}
	hCtx, hCancel := context.WithCancel(actx)
	defer hCancel()
	// The wrapper returns the token inside the hedge goroutine (panic
	// included), so it comes back exactly when the hedge attempt truly
	// stops running — not when this frame returns while a cancelled
	// hedge is still winding down.
	hc := run(hCtx, func(ctx context.Context, req Request, sess *Session) (any, error) {
		defer func() { e.hedgeTokens <- struct{}{} }()
		return e.fallback(ctx, req, sess)
	})

	var exErr error
	for exc != nil || hc != nil {
		select {
		case r := <-exc:
			if r.err == nil {
				hCancel()
				e.metrics.Hedge[HedgeExact].Inc()
				return e.settleExact(tr, blamed, r.v, nil)
			}
			exErr = r.err
			exc = nil
		case r := <-hc:
			if r.err == nil {
				exCancel()
				e.metrics.Hedge[HedgeWon].Inc()
				*hedged = true
				// Neutral settle: the exact attempt never finished.
				e.breakers.Result("", false)
				return r.v, nil
			}
			hc = nil
		}
	}
	e.metrics.Hedge[HedgeFailed].Inc()
	return e.settleExact(tr, blamed, nil, exErr)
}
