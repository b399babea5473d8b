package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"muve"
	"muve/internal/core"
	"muve/internal/nlq"
	"muve/internal/serve"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
	"muve/internal/workload"
)

// workloadSpec is one seeded utterance workload. Each exists so that one
// layer does most of the work in it and almost none in another.
type workloadSpec struct {
	name    string
	dataset workload.Dataset
	rows    int
	solver  muve.SolverKind
	mode    muve.AnswerMode
	// widthPx is the planned screen width; 0 keeps the default phone
	// screen.
	widthPx int
	// maxPreds bounds the equality predicates per utterance.
	maxPreds int
	// cycle asks every distinct utterance in a seeded order, pass after
	// pass, instead of fresh draws (see utterances).
	cycle bool
	// served routes requests through serve.Engine.Do in an open loop
	// instead of calling the System in a closed loop.
	served bool
	// rounds is how many times the untraced run asks its utterances (a
	// served run replays its arrivals on a fresh engine). Each
	// utterance's latency is its fastest answer, so a burst of
	// interference from the host moves a percentile only if it hits that
	// utterance in every round.
	rounds int
}

// workloads lists the benchmark's workloads.
var workloads = []workloadSpec{
	// Greedy plot answers over the largest table: scanning dominates.
	{name: "flights-scan", dataset: workload.Flights, rows: 1_200_000, solver: muve.SolverGreedy, widthPx: 1024, maxPreds: 3, rounds: 2},
	// ILP plot answers over a small table: the solver dominates. Every
	// one-predicate question, because the solver's time concentrates in
	// the few dozen one-predicate COUNT questions (the only ones whose
	// plots leave room for several bars on a phone).
	{name: "nyc311-ilp", dataset: workload.NYC311, rows: 20_000, solver: muve.SolverILP, maxPreds: 1, cycle: true, rounds: 2},
	// Greedy voice answers: the only workload through internal/speak and
	// the row-at-a-time merge executor.
	{name: "dob-voice", dataset: workload.DOB, rows: 120_000, solver: muve.SolverGreedy, mode: muve.ModeVoice, maxPreds: 3, rounds: 8},
	// Open-loop Zipf traffic through the serving engine: cache hits,
	// misses and evictions.
	{name: "nyc311-served", dataset: workload.NYC311, rows: 20_000, solver: muve.SolverGreedy, widthPx: 1024, maxPreds: 3, served: true, rounds: 6},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// options are a run's settings. Only seed, duration, traced and spansDir
// come from the command line; tests shrink the rest.
type options struct {
	seed     int64
	duration time.Duration
	traced   bool
	spansDir string

	// rowScale multiplies every workload's table size.
	rowScale float64
	// Set-up runs at least setups times and then again until
	// setupBudget is spent (at most maxSetups runs); setup_s is the
	// median, so a quick set-up gets more samples.
	setups      int
	setupBudget time.Duration
	// warmup is the number of untimed utterances answered before timing.
	warmup int

	// Served workload: distinct utterances in the Zipf pool and answer
	// cache entries.
	pool     int
	cacheCap int
}

// dataSeed fixes the generated tables: the --seed varies the utterances
// only, so set-up is the same work in every run.
const dataSeed = 1

// maxSetups caps the set-up repetitions.
const maxSetups = 25

func defaultOptions() options {
	return options{
		rowScale:    1,
		setups:      3,
		setupBudget: 2 * time.Second,
		warmup:      8,
		pool:        4096,
		cacheCap:    1024,
	}
}

// refuseModeled stops a run whose set-up keeps aggregate sketches: their
// answers are approximate, so timings would not be performance evidence.
// The benchmark never sets a scan throttle or speech noise; a noisy
// transcript fails the answer check instead.
func refuseModeled(e *env) error {
	if r := e.db.SketchRate(); r != 0 {
		return fmt.Errorf("refusing to run: the database keeps sketches at rate %v", r)
	}
	return nil
}

// env is everything set-up builds.
type env struct {
	spec   workloadSpec
	db     *sqldb.DB
	table  *sqldb.Table
	sys    *muve.System
	engine *serve.Engine
	screen core.Screen
	model  usermodel.TimeModel
	// ilpTimeout is the System's ILP budget (the muve default).
	ilpTimeout time.Duration
	// tracer, when non-nil, receives spans from the served workload's
	// composing planner.
	tracer *tracer
	// compose, when set, makes the served planner compose answers from
	// outside instead of calling Ask.
	compose func(ctx context.Context, text string) (*muve.Answer, error)
}

// setup builds the table, catalog, System and, for the served workload,
// the Engine.
func setup(w workloadSpec, o options) (*env, error) {
	rows := int(float64(w.rows) * o.rowScale)
	if rows < 100 {
		rows = 100
	}
	tbl, err := workload.Build(w.dataset, rows, dataSeed)
	if err != nil {
		return nil, err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	opts := []muve.Option{muve.WithSolver(w.solver), muve.WithAnswerMode(w.mode)}
	if w.widthPx > 0 {
		opts = append(opts, muve.WithWidth(w.widthPx))
	}
	sys, err := muve.New(db, tbl.Name, opts...)
	if err != nil {
		return nil, err
	}
	e := &env{
		spec:       w,
		db:         db,
		table:      tbl,
		sys:        sys,
		screen:     core.DefaultScreen(),
		model:      usermodel.DefaultModel(),
		ilpTimeout: time.Second,
	}
	if w.widthPx > 0 {
		e.screen.WidthPx = w.widthPx
	}
	if w.served {
		if e.engine, err = newEngine(e, o); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// newEngine wires the System into a serve.Engine the way muveserver does
// for the greedy solver: the planner answers through AskContext, a
// single-candidate System is the minimal rung, and the remaining
// settings are muveserver's flag defaults.
func newEngine(e *env, o options) (*serve.Engine, error) {
	minimalSys, err := muve.New(e.db, e.table.Name,
		muve.WithSolver(muve.SolverGreedy),
		muve.WithWidth(e.spec.widthPx),
		muve.WithK(1),
		muve.WithMaxCandidates(1))
	if err != nil {
		return nil, err
	}
	planner := func(ctx context.Context, req serve.Request, _ *serve.Session) (any, error) {
		if e.compose != nil {
			return e.compose(ctx, req.Transcript)
		}
		return e.sys.AskContext(ctx, req.Transcript)
	}
	minimal := func(ctx context.Context, req serve.Request, _ *serve.Session) (any, error) {
		return minimalSys.AskContext(ctx, req.Transcript)
	}
	return serve.NewEngine(serve.Config{
		Planner:          planner,
		Minimal:          minimal,
		MaxInFlight:      32,
		Timeout:          10 * time.Second,
		CacheEntries:     o.cacheCap,
		CacheTTL:         5 * time.Minute,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		Dataset:          e.table.Name,
		Solver:           "greedy",
		WidthPx:          e.spec.widthPx,
	})
}

// setupTimed runs set-up o.setups times, keeping the last environment,
// and returns the median set-up time in seconds and the live heap after
// the final set-up in MiB.
func setupTimed(w workloadSpec, o options) (*env, float64, float64, error) {
	var (
		e     *env
		times []float64
		total time.Duration
	)
	for i := 0; i < max(o.setups, 1) || (total < o.setupBudget && i < maxSetups); i++ {
		e = nil
		runtime.GC()
		start := time.Now()
		var err error
		e, err = setup(w, o)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return e, median(times), float64(ms.HeapAlloc) / (1 << 20), nil
}

// runWorkload sets up, measures and checks one run.
func runWorkload(w workloadSpec, o options) (*result, error) {
	e, setupS, heapMB, err := setupTimed(w, o)
	if err != nil {
		return nil, err
	}
	if err := refuseModeled(e); err != nil {
		return nil, err
	}
	var res *result
	switch {
	case o.traced && w.served:
		res, err = runServedTraced(e, o)
	case o.traced:
		res, err = runClosedTraced(e, o)
	default:
		// Created after heap_mb is read, so its keys do not show there.
		cal := newCalibrator()
		cal.burst()
		if w.served {
			res, err = runServed(e, o, cal)
		} else {
			res, err = runClosed(e, o, cal)
		}
		if err == nil {
			res.notes = append(res.notes, fmt.Sprintf("host factor=%.4f jobs=%d raw setup_s=%.5f", cal.factor(), len(cal.times), setupS))
			res.set("setup_s", "s", setupS/cal.factor())
			res.set("heap_mb", "MiB", heapMB)
		}
	}
	if err != nil {
		return nil, err
	}
	if o.traced && o.spansDir != "" && e.tracer != nil {
		if err := e.tracer.write(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ask answers one utterance through the System's entry point for the
// workload's modality, rendering plot answers to SVG as a client would.
func (e *env) ask(ctx context.Context, text string) (*muve.Answer, string, error) {
	if e.spec.mode == muve.ModeVoice {
		ans, err := e.sys.AskVoiceContext(ctx, text)
		return ans, "", err
	}
	ans, err := e.sys.AskContext(ctx, text)
	if err != nil {
		return nil, "", err
	}
	return ans, ans.SVG(), nil
}

// newPipeline builds an NLQ pipeline over the System's catalog with the
// System's defaults (20 phonetic alternatives, 20 candidates).
func newPipeline(sys *muve.System) *nlq.Pipeline {
	p := nlq.NewPipeline(sys.Catalog())
	p.Generator.K = 20
	p.Generator.MaxCandidates = 20
	return p
}
