package core

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestILPSolverParallelismAgreesWithSequential checks the Parallelism
// knob is forwarded to branch-and-bound and cannot change the optimum.
func TestILPSolverParallelismAgreesWithSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInstance(rng, 14, DefaultScreen())
	seq := &ILPSolver{Parallelism: 1}
	_, stSeq, err := seq.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !stSeq.Optimal {
		t.Fatalf("sequential solve not optimal: %+v", stSeq)
	}
	if stSeq.Workers != 1 {
		t.Errorf("sequential Stats.Workers = %d, want 1", stSeq.Workers)
	}
	for _, workers := range []int{2, 8} {
		par := &ILPSolver{Parallelism: workers}
		_, stPar, err := par.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !stPar.Optimal {
			t.Fatalf("workers %d: solve not optimal: %+v", workers, stPar)
		}
		if math.Abs(stPar.Cost-stSeq.Cost) > 1e-9 {
			t.Errorf("workers %d: cost %v, sequential %v", workers, stPar.Cost, stSeq.Cost)
		}
		if stPar.Workers != workers {
			t.Errorf("workers %d: Stats.Workers = %d", workers, stPar.Workers)
		}
	}
}

// TestIncrementalILPForwardsParallelism checks the incremental wrapper
// hands its Parallelism to every sequence and reports it back.
func TestIncrementalILPForwardsParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomInstance(rng, 10, DefaultScreen())
	inc := DefaultIncremental(500 * time.Millisecond)
	inc.Parallelism = 2
	_, st, err := inc.Solve(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 {
		t.Errorf("Stats.Workers = %d, want 2", st.Workers)
	}
	if st.Sequences < 1 {
		t.Errorf("Sequences = %d, want >= 1", st.Sequences)
	}
}
