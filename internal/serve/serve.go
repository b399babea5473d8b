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
//   - a degradation ladder in place of a single fallback hook: exact
//     ILP planning (optionally hedged by a concurrent greedy plan),
//     then greedy planning, then a stale-but-fresh-enough cached
//     answer, then a minimal single-plot answer. NewEngine lists the
//     configured rungs once; one descent tries them in order, each
//     capped at its own share of the planning budget, contains and
//     counts a planner panic where it happens, and records the serving
//     rung in Answer.Source, metrics and the trace;
//   - one circuit breaker (resilience.Breaker) on the exact rung that
//     skips it outright after consecutive deadline misses, injected
//     faults or panics, hedged or not, half-opening for one probe after
//     a cooldown;
//   - per-client sessions with bounded lifetimes that carry state
//     across consecutive utterances;
//   - an allocation-light metrics registry (counters, gauges, latency
//     histograms) exported in Prometheus text format and as JSON;
//   - a seeded fault-injection hook (resilience.Chaos) so tests and
//     muvebench -chaos can prove no injected fault escapes the ladder
//     and every injected panic is contained.
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

// rungExact names the ladder's first rung; rungHedged relabels an
// exact-rung answer won by the concurrent greedy hedge (not a rung of
// its own: the hedge races inside the exact rung's budget).
const (
	rungExact  = "exact"
	rungHedged = "hedged"
)

// rung is one step of the degradation ladder. NewEngine lists the
// configured rungs once, best answer first; the descent, the planning
// budget and Setup all read that one list.
type rung struct {
	name string
	// source labels the answers this rung serves.
	source Source
	// share caps one attempt of the rung. A request's planning budget
	// is the sum of the shares, so each rung gets its whole share
	// however fast or slow the rungs above it failed. 0 leaves the
	// attempt uncapped (the stale lookup, which plans nothing).
	share time.Duration
	// try answers at this rung, declines it with a skip reason, or fails.
	try func(ctx context.Context, d *descent) (v any, skip string, err error)
}

// descent is one request's walk down the ladder.
type descent struct {
	req   Request
	sess  *Session
	tr    *obs.Trace
	reqID string
	key   string
	start time.Time
	// lane and mode label each attempt for pprof, beside the rung.
	lane, mode string
	// hedged is set when the greedy hedge answered for the exact rung.
	hedged bool
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
	// BreakerThreshold trips the exact rung's circuit breaker after
	// this many consecutive deadline misses, whatever stage they are
	// blamed on (default 3; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker skips the exact
	// rung before half-opening for a probe (default 5s).
	BreakerCooldown time.Duration
	// Chaos, when non-nil, is propagated into planning contexts so
	// instrumented pipeline stages inject seeded faults — tests and
	// muvebench -chaos only.
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
	// serving several configurations never crosses answers
	// (muve.System.NewEngine fills them in from the System).
	Dataset string
	Solver  string
	WidthPx int
	// Metrics, when non-nil, is the registry to record into (so
	// several engines can share one); nil allocates a fresh one.
	Metrics *Metrics
	// BreakerNotify, when non-nil, observes every breaker state change
	// in addition to the metrics gauge — muveserver points it at the
	// incident flight recorder so an opening breaker captures a bundle.
	BreakerNotify func(to resilience.BreakerState)
	// Logger, when non-nil, receives engine-level events (fallback
	// degradations, planner errors) tagged with the request ID from
	// the logging middleware. Nil disables engine logging.
	Logger *log.Logger
}

// Engine is the concurrent serving core. Create with NewEngine; all
// methods are safe for concurrent use.
type Engine struct {
	planner   Planner
	fallback  Planner
	timeout   time.Duration
	keySuffix string
	// sessionMaxAge bounds how old a session's remembered answer may be
	// and still be served (the cache TTL; 0 = unbounded).
	sessionMaxAge time.Duration

	cache     *Cache
	flight    flightGroup
	sessions  *SessionStore
	admission *resilience.Admission
	breaker   *resilience.Breaker
	chaos     *resilience.Chaos
	metrics   *Metrics
	logger    *log.Logger

	// rungs is the degradation ladder in descent order; budget, the sum
	// of their shares, bounds one request's planning.
	rungs  []rung
	budget time.Duration

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
	var breaker *resilience.Breaker
	if cfg.BreakerThreshold >= 0 {
		breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
			OnChange: func(to resilience.BreakerState) {
				m.BreakerState.Set(int64(to))
				if to == resilience.Open {
					m.BreakerTrips.Inc()
				}
				if cfg.BreakerNotify != nil {
					cfg.BreakerNotify(to)
				}
			},
		})
	}
	e.rungs = []rung{{rungExact, SourcePlanned, cfg.Timeout, e.tryExact}}
	if cfg.Fallback != nil {
		e.rungs = append(e.rungs, rung{"greedy", SourceFallback, cfg.FallbackGrace, e.planning("greedy", cfg.Fallback)})
	}
	if cfg.StaleFor > 0 {
		e.rungs = append(e.rungs, rung{"stale", SourceStale, 0, e.tryStale})
	}
	if cfg.Minimal != nil {
		e.rungs = append(e.rungs, rung{"minimal", SourceMinimal, cfg.MinimalGrace, e.planning("minimal", cfg.Minimal)})
	}
	for _, r := range e.rungs {
		e.budget += r.share
	}
	e.planner = cfg.Planner
	e.fallback = cfg.Fallback
	e.timeout = cfg.Timeout
	e.keySuffix = "\x00" + cfg.Dataset + "\x00" + cfg.Solver + "\x00" + strconv.Itoa(cfg.WidthPx)
	e.sessionMaxAge = sessionMaxAge
	e.cache = cache
	e.sessions = NewSessionStore(0, 0)
	e.admission = admission
	e.breaker = breaker
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
	for _, r := range e.rungs {
		rungs = append(rungs, r.name)
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

// Cache exposes the answer cache (for stats endpoints and tests).
func (e *Engine) Cache() *Cache { return e.cache }

// Sessions exposes the session store.
func (e *Engine) Sessions() *SessionStore { return e.sessions }

// ErrDraining reports a planning request refused because the engine is
// shutting down. Cheap paths (cache, session, stale snapshot entries)
// still serve; servers should map it to HTTP 503.
var ErrDraining = errors.New("serve: engine is draining")

// ExhaustedError reports that every rung of the degradation ladder was
// skipped or failed: the request cannot be answered, even degraded.
// StatusOf maps it to HTTP 503.
type ExhaustedError struct {
	// Steps says what happened at each rung, in descent order, e.g.
	// "exact: skipped (breaker-open)" or "greedy: " + the rung's error.
	Steps []string
	// Err is the last attempted rung's error (nil when every rung was
	// skipped).
	Err error
}

// Error summarizes the descent.
func (e *ExhaustedError) Error() string {
	return "resilience: ladder exhausted [" + strings.Join(e.Steps, "; ") + "]"
}

// Unwrap returns the last attempted rung's error, so errors.Is(err,
// context.DeadlineExceeded) sees through the ladder.
func (e *ExhaustedError) Unwrap() error { return e.Err }

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
		var ex *ExhaustedError
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

// plan is the leader path: acquire an admission slot, then descend the
// degradation ladder under one detached deadline budget, and publish
// the answer to the cache. It runs detached from any single request's
// cancellation: the answer benefits every coalesced waiter and future
// cache hits, so one impatient client must not abort it. callerCtx is
// consulted only for identity — the leader's trace and request ID
// carry through so planning spans are recorded (coalesced followers
// contribute no spans of their own).
func (e *Engine) plan(callerCtx context.Context, req Request, sess *Session) (any, error) {
	if e.draining.Load() {
		return nil, ErrDraining
	}
	e.plansActive.Add(1)
	defer e.plansActive.Add(-1)
	tr := obs.FromContext(callerCtx)
	reqID := RequestID(callerCtx)
	key := e.KeyFor(req)

	// Detached from the caller (one impatient client must not abort
	// planning that benefits every coalesced waiter) but rooted in the
	// engine's base context, so Close cancels in-flight solves.
	planCtx, cancel := context.WithTimeout(e.baseCtx, e.budget)
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

	mode := req.Mode
	if mode == "" {
		mode = "plot"
	}
	d := &descent{req: req, sess: sess, tr: tr, reqID: reqID, key: key,
		start: time.Now(), lane: prio.String(), mode: mode}
	v, r, err := e.descend(planCtx, d)
	planDur := time.Since(d.start)
	e.metrics.Planning.Observe(planDur)
	e.svcTime.Observe(planDur)
	if err != nil {
		if e.logger != nil {
			e.logger.Printf("plan %s: %v", reqID, err)
		}
		return nil, err
	}
	if d.hedged {
		r.name, r.source = rungHedged, SourceHedged
	}
	ladder := modePlot
	if req.Mode == ModeVoice {
		ladder = modeVoice
	}
	e.metrics.Ladder[ladder].With(r.name).Inc()
	if tr != nil && r.name != rungExact {
		tr.Mark("ladder", obs.Str("rung", r.name))
	}
	// Stale answers came from the cache; re-publishing would refresh
	// their TTL and let expired data circulate indefinitely.
	if r.source != SourceStale {
		e.cache.Put(key, v)
	}
	return plannedValue{value: v, source: r.source}, nil
}

// descend walks the ladder best rung first and returns the first
// answer with the rung that served it. Each attempt runs under its
// rung's share of the budget and under pprof labels, so a CPU profile
// decomposes by admission lane, answer mode and rung (the planners'
// own stage labels nest inside, and worker pools they spawn inherit
// the set). Every skip and failure is written into the ExhaustedError
// returned when no rung answers. When ctx itself ends mid-descent
// (Close, or the budget ran out between rungs) its error is returned
// and no lower rung is tried.
func (e *Engine) descend(ctx context.Context, d *descent) (any, rung, error) {
	ex := &ExhaustedError{}
	for _, r := range e.rungs {
		if err := ctx.Err(); err != nil {
			return nil, rung{}, err
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if r.share > 0 {
			actx, cancel = context.WithTimeout(ctx, r.share)
		}
		var v any
		var skip string
		var err error
		pprof.Do(actx, pprof.Labels("lane", d.lane, "mode", d.mode, "rung", r.name), func(actx context.Context) {
			v, skip, err = r.try(actx, d)
		})
		cancel()
		switch {
		case skip != "":
			ex.Steps = append(ex.Steps, r.name+": skipped ("+skip+")")
		case err != nil:
			ex.Steps = append(ex.Steps, r.name+": "+err.Error())
			ex.Err = err
		default:
			return v, r, nil
		}
	}
	return nil, rung{}, ex
}

// errPanicked marks a planner panic that call contained.
var errPanicked = errors.New("panicked")

// call runs planner p for the named rung and contains a panic where it
// happens: the panic is counted, logged and returned as the rung's
// error.
func (e *Engine) call(ctx context.Context, d *descent, name string, p Planner) (v any, err error) {
	defer func() {
		if pv := recover(); pv != nil {
			v, err = nil, fmt.Errorf("resilience: rung %q %w: %v", name, errPanicked, pv)
			e.metrics.Panics.Inc()
			if e.logger != nil {
				e.logger.Printf("plan %s: rung %q panic contained: %v", d.reqID, name, err)
			}
		}
	}()
	return p(ctx, d.req, d.sess)
}

// planning is the try of a rung that just runs planner p.
func (e *Engine) planning(name string, p Planner) func(context.Context, *descent) (any, string, error) {
	return func(ctx context.Context, d *descent) (any, string, error) {
		v, err := e.call(ctx, d, name, p)
		return v, "", err
	}
}

// tryExact is the exact rung: skipped while the breaker is open,
// otherwise the planner — raced against the greedy hedge when hedging
// is on — settled with the breaker. A failure with lower rungs to
// descend to is blamed on the stage it happened in (a labeled counter,
// a trace mark and a log line).
func (e *Engine) tryExact(ctx context.Context, d *descent) (any, string, error) {
	if !e.breaker.Allow() {
		return nil, "breaker-open", nil
	}
	var v any
	var err error
	if e.hedge {
		v, err = e.tryHedged(ctx, d)
	} else {
		v, err = e.settleExact(e.call(ctx, d, rungExact, e.planner))
	}
	if err != nil && len(e.rungs) > 1 {
		blamed := blame(d.tr)
		e.metrics.Fallbacks.With(blamed).Inc()
		d.tr.Mark("fallback", obs.Str("blamed_stage", blamed))
		if e.logger != nil {
			e.logger.Printf("plan %s: exact rung failed in stage %q after %s, descending",
				d.reqID, blamed, time.Since(d.start).Round(time.Millisecond))
		}
	}
	return v, "", err
}

// tryStale serves an expired cache entry still inside the stale window.
// A refresh skips it: it must never serve expired data.
func (e *Engine) tryStale(_ context.Context, d *descent) (any, string, error) {
	if d.req.Refresh {
		return nil, "refresh", nil
	}
	v, age, ok := e.cache.GetStale(d.key)
	if !ok {
		return nil, "no-stale-entry", nil
	}
	d.tr.Mark("stale", obs.Str("age", age.Round(time.Millisecond).String()))
	return v, "", nil
}

// settleExact records a finished exact attempt with the circuit
// breaker. A deadline miss, an injected fault or a contained panic
// says the rung is unhealthy and extends the breaker's streak; any
// other failure (a malformed query, say) says nothing about the
// pipeline and returns the probe without charging; success closes.
func (e *Engine) settleExact(v any, err error) (any, error) {
	switch {
	case err == nil:
		e.breaker.Result(true)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, resilience.ErrInjected), errors.Is(err, errPanicked):
		e.breaker.Result(false)
	default:
		e.breaker.Release()
	}
	return v, err
}

// tryHedged is the hedged exact attempt (the "tail at scale" move):
// the exact solve starts immediately; if it has not finished by the
// windowed p90 of recent planning time, the greedy fallback starts
// concurrently and the first success wins, cancelling the loser. Both
// attempts run through call, so a panic in either is contained and
// counted as on the unhedged path. Breaker accounting: an exact attempt
// that finished settles as it would unhedged, its panic included, even
// when the hedge wins afterwards; only a hedge win over a still-running
// exact attempt settles neutrally — the cancelled attempt proved
// nothing about the rung's health.
func (e *Engine) tryHedged(ctx context.Context, d *descent) (any, error) {
	type result struct {
		v   any
		err error
	}
	run := func(ctx context.Context, name string, plan Planner) chan result {
		ch := make(chan result, 1)
		go func() {
			v, err := e.call(ctx, d, name, plan)
			ch <- result{v, err}
		}()
		return ch
	}

	exCtx, exCancel := context.WithCancel(ctx)
	defer exCancel()
	exc := run(exCtx, rungExact, e.planner)

	trigger := time.NewTimer(e.hedgeDelay())
	defer trigger.Stop()
	select {
	case r := <-exc:
		return e.settleExact(r.v, r.err)
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
		d.tr.Mark("hedge", obs.Str("trigger", "denied"))
		r := <-exc
		return e.settleExact(r.v, r.err)
	}
	d.tr.Mark("hedge", obs.Str("trigger", "p90"))
	hCtx, hCancel := context.WithCancel(ctx)
	defer hCancel()
	// The wrapper returns the token inside the hedge goroutine (panic
	// included), so it comes back exactly when the hedge attempt truly
	// stops running — not when this frame returns while a cancelled
	// hedge is still winding down.
	hc := run(hCtx, rungHedged, func(ctx context.Context, req Request, sess *Session) (any, error) {
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
				return e.settleExact(r.v, nil)
			}
			exErr = r.err
			exc = nil
		case r := <-hc:
			if r.err == nil {
				exCancel()
				e.metrics.Hedge[HedgeWon].Inc()
				d.hedged = true
				if exc == nil {
					e.settleExact(nil, exErr)
				} else {
					e.breaker.Release()
				}
				return r.v, nil
			}
			hc = nil
		}
	}
	e.metrics.Hedge[HedgeFailed].Inc()
	return e.settleExact(nil, exErr)
}
