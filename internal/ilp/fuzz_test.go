package ilp

import (
	"math"
	"testing"
)

// decodeBinaryModel reads a small pure-binary model from fuzz input:
// byte 0 picks 1–10 variables, byte 1 up to 5 constraints, then per
// constraint a sense, a rhs in [-3, 7] and one coefficient in [-5, 5]
// per variable, then the objective's coefficients in [-10, 10]. Missing
// bytes read as zero, so every input decodes.
func decodeBinaryModel(data []byte) *Model {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	m := NewModel()
	n := 1 + next()%10
	for i := 0; i < n; i++ {
		m.AddBinary("x")
	}
	for c := next() % 6; c > 0; c-- {
		sense := Sense(next() % 3)
		rhs := float64(next()%11 - 3)
		var terms []Term
		for i := 0; i < n; i++ {
			if k := next()%11 - 5; k != 0 {
				terms = append(terms, Term{VarID(i), float64(k)})
			}
		}
		m.AddConstraint(terms, sense, rhs)
	}
	obj := make([]Term, n)
	for i := range obj {
		obj[i] = Term{VarID(i), float64(next()%21 - 10)}
	}
	m.SetObjective(obj, 0)
	return m
}

// FuzzSolveAgainstBruteForce checks branch and bound over the live dual
// simplex against enumeration of every 0/1 assignment: same status, the
// same optimum, and a returned assignment that satisfies the model.
func FuzzSolveAgainstBruteForce(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 1, 1, 1, 10, 10, 10})
	f.Add([]byte{9, 5, 2, 5, 1, 6, 2, 9, 0, 5, 3, 7, 1, 1, 4, 3, 8, 0, 10, 2, 6})
	f.Add([]byte{4, 2, 1, 9, 10, 0, 10, 0, 2, 3, 5, 5, 5, 5, 0, 20, 0, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeBinaryModel(data)
		want, _, feasible := bruteForceBinary(m)
		for _, workers := range []int{1, 2} {
			sol, err := m.Solve(Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !feasible {
				if sol.Status != StatusInfeasible {
					t.Fatalf("workers %d: status = %v, want infeasible", workers, sol.Status)
				}
				continue
			}
			if sol.Status != StatusOptimal {
				t.Fatalf("workers %d: status = %v, want optimal %v", workers, sol.Status, want)
			}
			if math.Abs(sol.Objective-want) > 1e-6 {
				t.Fatalf("workers %d: objective = %v, want %v", workers, sol.Objective, want)
			}
			if !m.feasible(sol.Values, 1e-6) {
				t.Fatalf("workers %d: returned infeasible assignment %v", workers, sol.Values)
			}
		}
	})
}
