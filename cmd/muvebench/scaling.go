package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"muve/internal/ilp"
)

// scalingObjEps is the cross-arm agreement tolerance: every worker
// count must prove the same optimal objective on every instance.
const scalingObjEps = 1e-9

// scalingSlowdownTolerance is how much slower than the sequential arm a
// multi-worker arm may run before the smoke fails — headroom for
// scheduler noise on loaded CI hosts, not a license for real overhead.
const scalingSlowdownTolerance = 1.2

// scalingReport is the machine-readable summary of a scaling run,
// written to -scaling-json (BENCH_solver.json in CI) so the solver's
// parallel efficiency is tracked next to the chaos and warm-start
// smokes.
type scalingReport struct {
	Seed int64 `json:"seed"`
	// NumCPU is the host's true core count; GOMAXPROCS is the value the
	// run executed under, raised to the widest requested arm so every
	// arm is recorded even on narrow hosts (see runScaling).
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Models     int          `json:"models"`
	Vars       int          `json:"vars"`
	Cons       int          `json:"cons"`
	Arms       []scalingArm `json:"arms"`
	Pass       bool         `json:"pass"`
}

// scalingArm is one worker count's measurement over the instance set.
type scalingArm struct {
	Workers      int     `json:"workers"`
	Millis       float64 `json:"millis"`
	Speedup      float64 `json:"speedup_vs_1"`
	Nodes        int     `json:"nodes"`
	Steals       int     `json:"steals"`
	SharedPrunes int     `json:"shared_prunes"`
	Objective    float64 `json:"objective_sum"`
}

// parseWorkerCounts parses the -scaling-workers list: comma-separated
// positive integers, with "max" standing for GOMAXPROCS. Duplicates
// (e.g. "1,max" on a single-core host) collapse to one arm.
func parseWorkerCounts(spec string) ([]int, error) {
	var out []int
	seen := map[int]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n := 0
		if part == "max" {
			n = runtime.GOMAXPROCS(0)
		} else {
			v, err := strconv.Atoi(part)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("bad worker count %q (want a positive integer or \"max\")", part)
			}
			n = v
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -scaling-workers list")
	}
	sort.Ints(out)
	return out, nil
}

// runScaling measures branch-and-bound wall time to proven optimality
// on hard correlated-knapsack instances (the BenchmarkILPParallel set)
// at each requested worker count, prints a scaling table, and fails
// (non-zero exit) when
//
//   - any arm proves a different optimal objective than the sequential
//     arm on any instance (the determinism contract),
//   - any arm's search ran on fewer workers than it requested, so the
//     process-wide worker budget can never silently shrink an arm, or
//   - on a multi-core host, a multi-worker arm runs more than
//     scalingSlowdownTolerance slower than the sequential arm — the
//     `make bench-smoke` gate that parallelism never costs latency.
//
// On a single-core host (NumCPU=1) the speedup check is skipped: there
// is nothing to scale onto, so the run only enforces agreement and
// reports overhead.
//
// GOMAXPROCS is raised to the widest requested arm for the run's
// duration, so a multi-worker arm is actually scheduled in parallel and
// gets recorded even when the process started narrow (CI runners
// default GOMAXPROCS to the cgroup quota) — previously "1,max" on such
// a host collapsed to a single workers=1 arm and BENCH_solver.json
// tracked nothing.
func runScaling(workersSpec string, seed int64, nModels, nVars, nCons int, jsonPath string) error {
	counts, err := parseWorkerCounts(workersSpec)
	if err != nil {
		return err
	}
	if widest := counts[len(counts)-1]; widest > runtime.GOMAXPROCS(0) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(widest))
	}
	if nModels < 1 {
		nModels = 1
	}
	models := make([]*ilp.Model, nModels)
	for i := range models {
		models[i] = ilp.HardRandomModel(seed+int64(i), nVars, nCons)
	}

	rep := scalingReport{
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Models:     nModels,
		Vars:       nVars,
		Cons:       nCons,
	}
	// Per-model objectives of the first arm, the agreement baseline.
	var baseObj []float64
	for armIdx, workers := range counts {
		arm := scalingArm{Workers: workers}
		start := time.Now()
		for mi, m := range models {
			sol, err := m.Solve(ilp.Options{Workers: workers})
			if err != nil {
				return err
			}
			if sol.Status != ilp.StatusOptimal {
				return fmt.Errorf("workers=%d model %d: status %v, want optimal", workers, mi, sol.Status)
			}
			if sol.Workers < workers {
				return fmt.Errorf("workers=%d model %d: the search ran on %d workers", workers, mi, sol.Workers)
			}
			arm.Nodes += sol.Nodes
			arm.Steals += sol.Steals
			arm.SharedPrunes += sol.SharedPrunes
			arm.Objective += sol.Objective
			if armIdx == 0 {
				baseObj = append(baseObj, sol.Objective)
			} else if math.Abs(sol.Objective-baseObj[mi]) > scalingObjEps {
				return fmt.Errorf("workers=%d model %d: objective %.12f disagrees with workers=%d objective %.12f",
					workers, mi, sol.Objective, counts[0], baseObj[mi])
			}
		}
		arm.Millis = float64(time.Since(start).Microseconds()) / 1000
		rep.Arms = append(rep.Arms, arm)
	}

	// Speedup is reported against the workers=1 arm when present,
	// otherwise against the first (slowest-provisioned) arm.
	base := rep.Arms[0].Millis
	for i := range rep.Arms {
		if rep.Arms[i].Workers == 1 {
			base = rep.Arms[i].Millis
			break
		}
	}
	for i := range rep.Arms {
		if rep.Arms[i].Millis > 0 {
			rep.Arms[i].Speedup = base / rep.Arms[i].Millis
		}
	}

	// The fail-if-slower gate needs both a sequential baseline and
	// physical cores to scale onto — GOMAXPROCS may have been raised
	// above NumCPU to record all arms, which makes multi-worker arms
	// legitimately slower (pure scheduling overhead), so the gate keys
	// on the true core count.
	haveSeq := false
	for _, a := range rep.Arms {
		if a.Workers == 1 {
			haveSeq = true
		}
	}
	rep.Pass = true
	var slow []string
	if haveSeq && rep.NumCPU > 1 {
		for _, a := range rep.Arms {
			if a.Workers > 1 && a.Millis > base*scalingSlowdownTolerance {
				rep.Pass = false
				slow = append(slow, fmt.Sprintf("workers=%d took %.1fms vs %.1fms sequential", a.Workers, a.Millis, base))
			}
		}
	}

	fmt.Printf("solver scaling: %d correlated knapsacks, %d vars x %d constraints, seed %d, %d cpus, GOMAXPROCS %d\n\n",
		nModels, nVars, nCons, rep.Seed, rep.NumCPU, rep.GOMAXPROCS)
	fmt.Printf("%-8s %10s %9s %10s %8s %14s\n", "workers", "time(ms)", "speedup", "nodes", "steals", "shared_prunes")
	for _, a := range rep.Arms {
		fmt.Printf("%-8d %10.1f %8.2fx %10d %8d %14d\n", a.Workers, a.Millis, a.Speedup, a.Nodes, a.Steals, a.SharedPrunes)
	}
	if rep.NumCPU == 1 {
		fmt.Println("\nsingle-core host: speedup gate skipped, agreement and overhead still checked")
	}

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
		fmt.Printf("\nscaling report written to %s\n", jsonPath)
	}
	if !rep.Pass {
		return fmt.Errorf("parallel arm slower than sequential: %s", strings.Join(slow, "; "))
	}
	return nil
}
