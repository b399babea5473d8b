// Command muvebench regenerates the paper's evaluation: every table and
// figure of Section 9 plus the Section 4 user-study artifacts, printed as
// text tables whose rows mirror the paper's plot series.
//
// Usage:
//
//	muvebench [flags] [experiment...]
//	  -fast        run at reduced scale (seconds instead of minutes)
//	  -seed n      experiment seed (default 1)
//	  -list        list experiment ids and exit
//
// With no positional arguments every experiment runs in paper order.
// Otherwise pass ids such as "fig6 table1".
//
// Trace mode runs single queries through the full traced pipeline
// instead of the experiment suite and prints the per-stage latency
// breakdown (speech → phonetic → nlq → solver → progressive → viz):
//
//	muvebench -trace [-trace-query "..."] [-trace-solver ilp]
//	          [-trace-runs 5] [-trace-chrome trace.json]
//
// -trace-chrome additionally writes the runs as Chrome trace_event
// JSON loadable in chrome://tracing or ui.perfetto.dev.
//
// Chaos mode drives the serving engine's degradation ladder under
// deterministic fault injection and fails (non-zero exit) if any
// injected fault escapes — i.e. a request that neither returns an
// answer nor fast-fails with 503, or a panic that reaches the caller:
//
//	muvebench -chaos "solver:lat=3s@0.4,err=0.2;nlq:panic=0.05" \
//	          [-chaos-seed 7] [-chaos-requests 200] [-chaos-json out.json]
//
// Every fifth request asks for a voice answer, so the run covers the
// plot and the voice ladder of the engine muveserver serves
// (System.NewEngine). The summary reports the ladder-rung distribution
// (planned, fallback, stale, minimal, cache, coalesced) per mode so
// degradation rates are tracked alongside latency, plus retry/hedge/
// drain counters. When the spec
// includes the reserved "http" stage, requests run over real HTTP
// through the transport-chaos middleware (slow/partial writes, resets,
// garbage), and damage without the X-Chaos-Transport marker counts as
// an escape. The run ends with a drain exercise: the engine must shed
// new planning work with 503 while draining, and cancelled in-flight
// solves are reported.
//
// Overload mode calibrates the serving stack's peak goodput with a
// closed loop, then ramps an open-loop arrival process to 2x that
// capacity — transport chaos on the wire, X-Muve-Deadline on every
// request, one plain retry per 503 — and fails (non-zero exit)
// unless zero faults escape, answered interactive p99 stays under
// -overload-sla at 2x, and goodput at 2x retains at least 70% of the
// calibrated peak:
//
//	muvebench -overload [-overload-step 1.5s] [-overload-sla 1.5s] \
//	          [-overload-chaos "http:partial=0.05,..."] \
//	          [-overload-json BENCH_overload.json]
//
// SLO mode replays a workload through the serving engine while the SLO
// engine evaluates latency objectives over sliding windows, then prints
// the windowed-latency table, fast/slow burn rates, any burn-rate trips
// and the incident bundles the flight recorder captured for them:
//
//	muvebench -slo "e2e:p95<500ms;solver:p99<250ms" \
//	          [-slo-chaos "solver:lat=3s@0.5"] [-slo-requests 200] \
//	          [-slo-burn 14.4] [-slo-expect-incidents 1] \
//	          [-slo-json out.json] [-slo-cpuprofile cpu.pprof]
//
// -slo-expect-incidents N fails the run (non-zero exit) unless at least
// N incident bundles were captured — `make slo-smoke` uses a
// deliberately tight objective under chaos to prove the trip→capture
// path end to end. A request that neither answers nor sheds with 503
// fails the run too. -slo-cpuprofile writes a replay-wide CPU profile
// whose samples carry the stage/lane/mode/rung pprof labels (inspect
// with `go tool pprof -tags`).
//
// Voice mode plans every utterance with the exact fact-set ILP and the
// greedy fallback over the same candidates and fails (non-zero exit) if
// greedy ever achieves a strictly better objective than a provably
// optimal exact selection:
//
//	muvebench -voice [-voice-utterances 12] [-voice-words 40] \
//	          [-voice-json out.json]
//
// Warm-start mode replays a voice session — a base query plus
// follow-up utterances that each tweak one predicate — through
// incremental ILP planning twice, cold and warm-started from the
// previous utterance's multiplot, and fails (non-zero exit) unless the
// warm arm reaches the cold arm's final cost in less solver time at
// equal or better cost:
//
//	muvebench -warmstart [-warmstart-utterances 6] \
//	          [-warmstart-budget 400ms] [-warmstart-json out.json]
//
// Scaling mode measures the branch-and-bound solver's parallel
// efficiency: it solves a fixed set of hard correlated-knapsack
// instances at each requested worker count, prints the scaling table,
// and fails (non-zero exit) if any arm proves a different optimum or —
// on multi-core hosts — a multi-worker arm is slower than sequential:
//
//	muvebench -scaling [-scaling-workers 1,2,4,8] [-scaling-json out.json]
//
// "max" in -scaling-workers stands for GOMAXPROCS. The run raises
// GOMAXPROCS to the widest requested arm so every arm is recorded even
// on single-core runners (where the slower-than-sequential gate is
// skipped); `make bench-smoke` runs "1,2,4" and writes
// BENCH_solver.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"muve"
	"muve/internal/bench"
	"muve/internal/obs"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "muvebench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fastFlag = flag.Bool("fast", false, "run at reduced scale")
		seedFlag = flag.Int64("seed", 1, "experiment seed")
		listFlag = flag.Bool("list", false, "list experiment ids and exit")
		csvDir   = flag.String("csvdir", "", "also write <experiment>.csv files into this directory (re-executes each experiment)")

		traceFlag   = flag.Bool("trace", false, "trace single queries through the pipeline instead of running experiments")
		traceQuery  = flag.String("trace-query", "how many noise complaints in brooklin", "query for -trace mode")
		traceSolver = flag.String("trace-solver", "ilp", "planner for -trace mode: greedy|ilp|ilp-inc")
		traceRuns   = flag.Int("trace-runs", 5, "repetitions in -trace mode")
		traceChrome = flag.String("trace-chrome", "", "also write Chrome trace_event JSON to this file")

		chaosFlag     = flag.String("chaos", "", "run the chaos harness with this fault spec (stage:lat=DUR[@P],err=P,panic=P;...) instead of experiments")
		chaosSeed     = flag.Int64("chaos-seed", 1, "fault-injection seed for -chaos mode")
		chaosRequests = flag.Int("chaos-requests", 200, "requests to issue in -chaos mode")
		chaosWorkers  = flag.Int("chaos-workers", 8, "concurrent clients in -chaos mode")
		chaosJSON     = flag.String("chaos-json", "", "write the -chaos summary as JSON to this file")

		overloadFlag  = flag.Bool("overload", false, "run the overload ramp harness instead of experiments: calibrate goodput, ramp arrivals to 2x capacity, gate on zero escapes, bounded interactive p99, and >=70% goodput retention")
		overloadStep  = flag.Duration("overload-step", 1500*time.Millisecond, "duration of the calibration phase and each ramp step in -overload mode")
		overloadSLA   = flag.Duration("overload-sla", 1500*time.Millisecond, "interactive p99 gate at 2x load in -overload mode")
		overloadChaos = flag.String("overload-chaos", "http:partial=0.05,garbage=0.05;solver:lat=150ms@0.2", "fault spec injected during the -overload ramp (same grammar as -chaos; empty disables)")
		overloadJSON  = flag.String("overload-json", "", "write the -overload summary as JSON to this file")

		voiceFlag  = flag.Bool("voice", false, "benchmark the voice fact-set planners (exact ILP vs greedy) instead of running experiments; greedy beating a provably optimal exact objective fails the run")
		voiceUtts  = flag.Int("voice-utterances", 12, "utterances to plan in -voice mode")
		voiceWords = flag.Int("voice-words", 0, "spoken word budget in -voice mode (0 = default 40)")
		voiceJSON  = flag.String("voice-json", "", "write the -voice summary as JSON to this file")

		warmFlag   = flag.Bool("warmstart", false, "replay a voice session cold vs warm-started instead of running experiments")
		warmUtts   = flag.Int("warmstart-utterances", 6, "session length in -warmstart mode")
		warmBudget = flag.Duration("warmstart-budget", 400*time.Millisecond, "per-utterance planning budget in -warmstart mode")
		warmJSON   = flag.String("warmstart-json", "", "write the -warmstart summary as JSON to this file")

		sloSpec    = flag.String("slo", "", "run the SLO replay harness with these objectives (stage:pNN<dur[;...]) instead of experiments")
		sloChaos   = flag.String("slo-chaos", "", "fault spec injected during the -slo replay (same grammar as -chaos)")
		sloSeed    = flag.Int64("slo-seed", 1, "workload and fault seed for -slo mode")
		sloReqs    = flag.Int("slo-requests", 200, "requests to replay in -slo mode")
		sloWorkers = flag.Int("slo-workers", 8, "concurrent clients in -slo mode")
		sloBurn    = flag.Float64("slo-burn", 14.4, "burn-rate threshold tripping an objective in -slo mode")
		sloExpect  = flag.Int("slo-expect-incidents", 0, "fail unless the flight recorder captured at least this many incident bundles")
		sloJSON    = flag.String("slo-json", "", "write the -slo summary as JSON to this file")
		sloProfile = flag.String("slo-cpuprofile", "", "write a replay-wide CPU profile (stage-labeled samples) to this file")

		scalingFlag    = flag.Bool("scaling", false, "measure branch-and-bound scaling across worker counts instead of running experiments")
		scalingWorkers = flag.String("scaling-workers", "1,2,4,8", "comma-separated worker counts for -scaling mode (\"max\" = GOMAXPROCS)")
		scalingModels  = flag.Int("scaling-models", 4, "instances per arm in -scaling mode")
		scalingVars    = flag.Int("scaling-vars", 30, "binary variables per instance in -scaling mode")
		scalingCons    = flag.Int("scaling-cons", 4, "knapsack constraints per instance in -scaling mode")
		scalingJSON    = flag.String("scaling-json", "", "write the -scaling summary as JSON to this file")
	)
	flag.Parse()
	cfg := bench.Config{Fast: *fastFlag, Seed: *seedFlag}

	if *traceFlag {
		return runTrace(*traceQuery, *traceSolver, *traceRuns, *traceChrome, *seedFlag)
	}
	if *chaosFlag != "" {
		return runChaos(*chaosFlag, *chaosSeed, *chaosRequests, *chaosWorkers, *chaosJSON)
	}
	if *overloadFlag {
		return runOverload(*seedFlag, *overloadStep, *overloadSLA, *overloadChaos, *overloadJSON)
	}
	if *sloSpec != "" {
		return runSLO(*sloSpec, *sloChaos, *sloSeed, *sloReqs, *sloWorkers, *sloBurn, *sloExpect, *sloJSON, *sloProfile)
	}
	if *voiceFlag {
		return runVoice(*seedFlag, *voiceUtts, *voiceWords, *voiceJSON)
	}
	if *warmFlag {
		return runWarmstart(*seedFlag, *warmUtts, *warmBudget, *warmJSON)
	}
	if *scalingFlag {
		return runScaling(*scalingWorkers, *seedFlag, *scalingModels, *scalingVars, *scalingCons, *scalingJSON)
	}

	all := bench.Experiments()
	if *listFlag {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.ID, e.Name)
		}
		return nil
	}

	writeCSV := func(e bench.Experiment) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, e.ID+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return e.RunCSV(cfg, f)
	}

	ids := flag.Args()
	selected := all
	if len(ids) > 0 {
		byID := map[string]bench.Experiment{}
		for _, e := range all {
			byID[e.ID] = e
		}
		selected = nil
		for _, id := range ids {
			e, ok := byID[id]
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		fmt.Printf("==== %s ====\n\n", e.Name)
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			return err
		}
		if err := writeCSV(e); err != nil {
			return fmt.Errorf("writing CSV for %s: %w", e.ID, err)
		}
		fmt.Printf("\n(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runTrace answers one query `runs` times with tracing attached and
// prints the first run span-by-span plus a per-stage summary across all
// runs. It fails (non-zero exit) when the pipeline recorded no spans —
// that would mean the instrumentation came unwired.
func runTrace(query, solverName string, runs int, chromePath string, seed int64) error {
	solver, err := muve.ParseSolverKind(solverName)
	if err != nil {
		return err
	}
	if runs <= 0 {
		runs = 1
	}
	tbl, err := workload.Build(workload.NYC311, 20_000, seed)
	if err != nil {
		return err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	sys, err := muve.New(db, workload.NYC311.String(),
		muve.WithSolver(solver))
	if err != nil {
		return err
	}

	traces := make([]*obs.Trace, 0, runs)
	for i := 0; i < runs; i++ {
		tr := obs.NewTrace("ask")
		tr.ID = fmt.Sprintf("run-%d", i+1)
		ctx := obs.WithTrace(context.Background(), tr)
		if _, err := sys.AskContext(ctx, query); err != nil {
			return err
		}
		tr.Finish()
		traces = append(traces, tr)
	}
	for _, tr := range traces {
		if tr.Len() == 0 {
			return fmt.Errorf("trace %s recorded no spans — pipeline instrumentation is unwired", tr.ID)
		}
	}

	fmt.Printf("query: %q  solver: %s  runs: %d\n\n", query, solverName, runs)
	obs.WriteText(os.Stdout, traces[0])
	fmt.Printf("\nper-stage summary over %d runs:\n", runs)
	obs.WriteStageTable(os.Stdout, obs.StageSummary(traces))

	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obs.WriteChrome(f, traces); err != nil {
			return err
		}
		fmt.Printf("\nchrome trace written to %s (load in chrome://tracing or ui.perfetto.dev)\n", chromePath)
	}
	return nil
}
