package core

import (
	"math/rand"
	"testing"
	"time"
)

// TestILPDebugSize is a diagnostic: it reports model dimensions and node
// throughput for the two-row instances. Skipped unless -v is wanted; kept
// as a cheap regression canary on model size.
func TestILPDebugSize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := randomInstance(rng, 4, Screen{WidthPx: 380, Rows: 2, PxPerBar: 48, PxPerChar: 7})
	s := &ILPSolver{}
	v, err := s.buildModel(in)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("vars=%d constraints=%d templates=%d", v.model.NumVars(), v.model.NumConstraints(), len(v.idx.groups))
	s2 := &ILPSolver{Timeout: 3 * time.Second}
	start := time.Now()
	_, st, err := s2.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("status optimal=%v nodes=%d in %v (%.0f nodes/s) cost=%v",
		st.Optimal, st.Nodes, time.Since(start), float64(st.Nodes)/time.Since(start).Seconds(), st.Cost)
	if v.model.NumVars() > 2000 {
		t.Errorf("model unexpectedly large: %d vars", v.model.NumVars())
	}
}
