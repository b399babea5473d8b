package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countOptima enumerates a pure-binary model and reports the optimal
// objective, the lexicographically smallest optimal assignment, and how
// many distinct assignments tie for the optimum within 1e-9.
func countOptima(m *Model) (best float64, bestX []float64, ties int) {
	n := len(m.vars)
	best = math.Inf(1)
	x := make([]float64, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if !m.feasible(x, 1e-9) {
				return
			}
			obj := m.evalObjective(x)
			switch {
			case obj < best-1e-9:
				best = obj
				bestX = append(bestX[:0], x...)
				ties = 1
			case obj <= best+1e-9:
				ties++
				if lexLess(x, bestX) {
					bestX = append(bestX[:0], x...)
				}
			}
			return
		}
		x[i] = 0
		rec(i + 1)
		x[i] = 1
		rec(i + 1)
	}
	rec(0)
	return best, bestX, ties
}

// TestSolveParallelDeterministicAcrossWorkerCounts is the parallel
// determinism property test: on the randomized corpus of
// TestSolveMatchesBruteForceOnRandomModels, Solve must return the
// identical optimal objective for Workers ∈ {1, 2, 8}, and — whenever
// the optimum is unique — the identical canonical incumbent. Run under
// -race this also exercises the work-stealing pool on tiny trees.
func TestSolveParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	withGOMAXPROCS(t, 8)
	workerCounts := []int{1, 2, 8}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		m := randomBinaryModel(rng)
		wantObj, wantX, ties := countOptima(m)
		feasible := !math.IsInf(wantObj, 1)
		for _, workers := range workerCounts {
			sol, err := m.Solve(Options{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if !feasible {
				if sol.Status != StatusInfeasible {
					t.Errorf("trial %d workers %d: status = %v, want infeasible", trial, workers, sol.Status)
				}
				continue
			}
			if sol.Status != StatusOptimal {
				t.Errorf("trial %d workers %d: status = %v, want optimal", trial, workers, sol.Status)
				continue
			}
			if math.Abs(sol.Objective-wantObj) > 1e-9 {
				t.Errorf("trial %d workers %d: objective = %v, want %v", trial, workers, sol.Objective, wantObj)
			}
			// A tree that ends in the seed phase ran on one goroutine.
			if sol.Workers != 1 && sol.Workers != workers {
				t.Errorf("trial %d: Solution.Workers = %d, want 1 or %d", trial, sol.Workers, workers)
			}
			if !m.feasible(sol.Values, 1e-6) {
				t.Errorf("trial %d workers %d: returned infeasible assignment", trial, workers)
			}
			if ties == 1 {
				for i := range wantX {
					if math.Abs(sol.Values[i]-wantX[i]) > 1e-6 {
						t.Errorf("trial %d workers %d: unique optimum but incumbent differs at var %d: got %v want %v",
							trial, workers, i, sol.Values, wantX)
						break
					}
				}
			}
		}
	}
}

// TestSolveParallelHardModelAgrees runs a model big enough to outlive
// the seed phase, so the worker pool (and its shared-incumbent pruning)
// actually executes, and checks the parallel objective against the
// sequential one.
func TestSolveParallelHardModelAgrees(t *testing.T) {
	withGOMAXPROCS(t, 8)
	m := HardRandomModel(7, 26, 3)
	seq, err := m.Solve(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Status != StatusOptimal {
		t.Fatalf("sequential status = %v", seq.Status)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := m.Solve(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Status != StatusOptimal {
			t.Fatalf("workers %d: status = %v", workers, par.Status)
		}
		if math.Abs(par.Objective-seq.Objective) > 1e-9 {
			t.Errorf("workers %d: objective = %v, sequential = %v", workers, par.Objective, seq.Objective)
		}
		if par.Nodes <= 0 || par.LPSolves <= 0 {
			t.Errorf("workers %d: counters not reported: %+v", workers, par)
		}
		if par.Workers != workers {
			t.Errorf("workers %d: Solution.Workers = %d", workers, par.Workers)
		}
	}
}

// TestSolveParallelDeadlineStillBounded checks the deadline stays exact
// across workers: a generous-tree model with a short deadline must stop
// near it instead of letting stragglers finish their subtrees.
func TestSolveParallelDeadlineStillBounded(t *testing.T) {
	m := HardRandomModel(11, 40, 4)
	warm := make([]float64, 40) // all-zero is feasible for <= knapsacks
	start := time.Now()
	sol, err := m.Solve(Options{
		Deadline:  start.Add(30 * time.Millisecond),
		WarmStart: warm,
		Workers:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("solve ran %v past a 30ms deadline", elapsed)
	}
	if sol.Values == nil {
		t.Fatal("warm-started solve returned no incumbent")
	}
}

// TestSimplexSteadyStateZeroAlloc pins the node re-solve hot path:
// once a worker's live tableau is warm, re-solving a node performs zero
// heap allocations.
func TestSimplexSteadyStateZeroAlloc(t *testing.T) {
	m := HardRandomModel(7, 26, 3)
	lp := newBoxLP(m)
	fixings := steadyStateFixings(m.NumVars())
	for _, f := range fixings {
		if _, _, st := lp.solve(f, time.Time{}); st != lpOptimal {
			t.Fatalf("warmup status = %v", st)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, st := lp.solve(fixings[i%len(fixings)], time.Time{}); st != lpOptimal {
			t.Fatalf("status = %v", st)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state node re-solve allocates %v objects per run, want 0", allocs)
	}
}

// steadyStateFixings returns a cycle of branch-and-bound style fixings
// over n binaries: the root, then prefixes fixed alternately to 0 and 1.
func steadyStateFixings(n int) [][]int8 {
	var out [][]int8
	for depth := 0; depth < 6; depth++ {
		f := make([]int8, n)
		for j := range f {
			f[j] = -1
			if j < depth {
				f[j] = int8((j + depth) % 2)
			}
		}
		out = append(out, f)
	}
	return out
}

// TestSolveWorkersDefaultsToGOMAXPROCS pins the Options.Workers zero
// value contract.
func TestSolveWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.AddConstraint([]Term{{a, 1}}, LE, 1)
	m.SetObjective([]Term{{a, -1}}, 0)
	sol, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Workers < 1 {
		t.Errorf("Workers = %d, want >= 1", sol.Workers)
	}
}

// TestSolveSeedOnlyTreeReportsOneWorker: a model solved at the root
// never starts the pool, so it reports the one goroutine that ran.
func TestSolveSeedOnlyTreeReportsOneWorker(t *testing.T) {
	withGOMAXPROCS(t, 8)
	m := NewModel()
	a := m.AddBinary("a")
	m.AddConstraint([]Term{{a, 1}}, LE, 1)
	m.SetObjective([]Term{{a, -1}}, 0)
	sol, err := m.Solve(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Workers != 1 {
		t.Errorf("status %v, Workers = %d; want optimal on 1 worker", sol.Status, sol.Workers)
	}
}

// TestSolveWorkerBudget pins the process-wide worker budget: helpers
// start only while every running Solve together holds at most
// GOMAXPROCS goroutines, every exit gives them back, and a lone solve
// still gets the whole machine.
func TestSolveWorkerBudget(t *testing.T) {
	const procs = 4
	withGOMAXPROCS(t, procs)
	if n := running.Load(); n != 0 {
		t.Fatalf("running = %d before the test, want 0", n)
	}

	t.Run("acquire", func(t *testing.T) {
		running.Add(1) // the calling Solve's own goroutine
		defer running.Add(-1)
		if got := acquireHelpers(8); got != procs-1 {
			t.Errorf("first acquire = %d, want %d", got, procs-1)
		}
		if got := acquireHelpers(8); got != 0 {
			t.Errorf("acquire on a full budget = %d, want 0", got)
		}
		running.Add(-(procs - 1))
		if got := acquireHelpers(1); got != 1 {
			t.Errorf("acquire after release = %d, want 1", got)
		}
		running.Add(-1)
	})

	t.Run("lone", func(t *testing.T) {
		sol, err := HardRandomModel(7, 26, 3).Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Workers != procs {
			t.Errorf("lone solve ran %d workers, want %d", sol.Workers, procs)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		// inFlight is raised for every solve before any starts and
		// lowered only after each returns, so running - inFlight never
		// undercounts the helpers held at the moment running is read.
		const solves = procs
		var inFlight atomic.Int64
		inFlight.Store(solves)
		done := make(chan struct{})
		var peak atomic.Int64
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				solvers := inFlight.Load()
				if h := running.Load() - solvers; h > peak.Load() {
					peak.Store(h)
				}
				runtime.Gosched()
			}
		}()
		var wg sync.WaitGroup
		for i := 0; i < solves; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				defer inFlight.Add(-1)
				sol, err := HardRandomModel(seed, 26, 3).Solve(Options{})
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
				} else if sol.Status != StatusOptimal {
					t.Errorf("seed %d: status %v, want optimal", seed, sol.Status)
				}
			}(int64(20 + i))
		}
		wg.Wait()
		close(done)
		// Unbudgeted, each solve would start procs-1 helpers of its own.
		if p := peak.Load(); p > procs-1 {
			t.Errorf("%d helpers ran at once across %d solves, want <= %d", p, solves, procs-1)
		}
	})

	infeasible := NewModel()
	var terms []Term
	for i := 0; i < 10; i++ {
		terms = append(terms, Term{infeasible.AddBinary("x"), 2})
	}
	infeasible.AddConstraint(terms, EQ, 9) // LP-feasible, but no even sum is 9
	infeasible.SetObjective(terms, 0)
	zero := make([]float64, 40) // all-zero is feasible for <= knapsacks
	for _, tc := range []struct {
		name     string
		m        *Model
		opt      Options
		deadline time.Duration
		want     Status
	}{
		{"optimal", HardRandomModel(7, 26, 3), Options{}, 0, StatusOptimal},
		{"deadline", HardRandomModel(11, 40, 4), Options{WarmStart: zero}, 50 * time.Millisecond, StatusFeasible},
		{"max-nodes", HardRandomModel(11, 40, 4), Options{WarmStart: zero, MaxNodes: 40}, 0, StatusFeasible},
		{"infeasible", infeasible, Options{}, 0, StatusInfeasible},
	} {
		if tc.deadline > 0 {
			tc.opt.Deadline = time.Now().Add(tc.deadline)
		}
		sol, err := tc.m.Solve(tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sol.Status != tc.want {
			t.Errorf("%s: status %v, want %v", tc.name, sol.Status, tc.want)
		}
		if sol.Workers < 2 {
			t.Errorf("%s: ran %d workers, want the pool to start", tc.name, sol.Workers)
		}
		if n := running.Load(); n != 0 {
			t.Errorf("%s: running = %d after Solve returned, want 0", tc.name, n)
		}
	}
}

// withGOMAXPROCS raises GOMAXPROCS to n for the test, so the worker
// budget admits n workers even on a smaller host.
func withGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// BenchmarkILPParallel measures wall time to optimality on hard
// correlated knapsacks at several worker counts, with GOMAXPROCS raised
// to the widest arm so the worker budget admits every arm. `make
// bench-smoke` runs the same instances through muvebench -scaling and
// fails when the multi-worker arm is slower than sequential (on
// multi-core hosts).
func BenchmarkILPParallel(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(8, runtime.GOMAXPROCS(0))))
	models := make([]*Model, 4)
	for i := range models {
		models[i] = HardRandomModel(int64(100+i), 30, 4)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, m := range models {
					sol, err := m.Solve(Options{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					if sol.Status != StatusOptimal {
						b.Fatalf("status = %v", sol.Status)
					}
				}
			}
		})
	}
}

// BenchmarkSimplexSteadyState tracks the zero-alloc node re-solve.
func BenchmarkSimplexSteadyState(b *testing.B) {
	m := HardRandomModel(7, 26, 3)
	lp := newBoxLP(m)
	fixings := steadyStateFixings(m.NumVars())
	for _, f := range fixings {
		lp.solve(f, time.Time{}) // warm the tableau
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.solve(fixings[i%len(fixings)], time.Time{})
	}
}
