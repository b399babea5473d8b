package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestILPSolverParallelismAgreesWithSequential checks the branch-and-
// bound pool, sized by GOMAXPROCS, cannot change the optimum: GOMAXPROCS
// 1 forces the sequential search, and wider settings prove the same
// cost on at most GOMAXPROCS workers.
func TestILPSolverParallelismAgreesWithSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInstance(rng, 14, DefaultScreen())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, stSeq, err := (&ILPSolver{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !stSeq.Optimal {
		t.Fatalf("sequential solve not optimal: %+v", stSeq)
	}
	if stSeq.Workers != 1 {
		t.Errorf("sequential Stats.Workers = %d, want 1", stSeq.Workers)
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		_, stPar, err := (&ILPSolver{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !stPar.Optimal {
			t.Fatalf("GOMAXPROCS %d: solve not optimal: %+v", procs, stPar)
		}
		if math.Abs(stPar.Cost-stSeq.Cost) > 1e-9 {
			t.Errorf("GOMAXPROCS %d: cost %v, sequential %v", procs, stPar.Cost, stSeq.Cost)
		}
		if stPar.Workers < 1 || stPar.Workers > procs {
			t.Errorf("GOMAXPROCS %d: Stats.Workers = %d", procs, stPar.Workers)
		}
	}
}

// TestIncrementalILPForwardsParallelism checks the incremental wrapper
// reports the worker count its sequences' solves ran with.
func TestIncrementalILPForwardsParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomInstance(rng, 10, DefaultScreen())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	inc := DefaultIncremental(500 * time.Millisecond)
	_, st, err := inc.Solve(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers < 1 || st.Workers > 2 {
		t.Errorf("Stats.Workers = %d, want 1 or 2", st.Workers)
	}
	if st.Sequences < 1 {
		t.Errorf("Sequences = %d, want >= 1", st.Sequences)
	}
}
