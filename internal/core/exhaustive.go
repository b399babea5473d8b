package core

import (
	"fmt"
	"time"
)

// ExhaustiveSolver enumerates every multiplot constructible from prefix-
// colored plot candidates (the space Theorem 2 proves sufficient) and
// returns a cost-minimal one. Exponential in the number of templates; it
// exists as the ground-truth reference for testing the ILP and greedy
// solvers on small instances.
type ExhaustiveSolver struct {
	// MaxStates aborts enumeration beyond this many visited states
	// (safety net; 0 means 5 million).
	MaxStates int
}

// Name identifies the solver in experiment output.
func (e *ExhaustiveSolver) Name() string { return "Exhaustive" }

// Solve enumerates all feasible multiplots.
func (e *ExhaustiveSolver) Solve(in *Instance) (Multiplot, Stats, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return Multiplot{}, Stats{}, err
	}
	maxStates := e.MaxStates
	if maxStates == 0 {
		maxStates = 5_000_000
	}
	g := &GreedySolver{}
	colored := g.coloredCandidates(in)
	// Bucket options by template for one-choice-per-template enumeration;
	// one template's options are contiguous.
	var byTemplate [][]coloredPlot
	for i := 0; i < len(colored); {
		j := i + 1
		for j < len(colored) && colored[j].id == colored[i].id {
			j++
		}
		byTemplate = append(byTemplate, colored[i:j])
		i = j
	}
	screenW := in.Screen.WidthUnits()
	rows := in.Screen.Rows

	best := Multiplot{}
	bestCost := in.Cost(best)
	states := 0
	rowUsed := make([]int, rows)
	current := make([][]Plot, rows)

	var rec func(ti int) error
	rec = func(ti int) error {
		states++
		if states > maxStates {
			return fmt.Errorf("core: exhaustive search exceeded %d states; use a smaller instance", maxStates)
		}
		if ti == len(byTemplate) {
			m := Multiplot{}
			for _, r := range current {
				if len(r) > 0 {
					m.Rows = append(m.Rows, append([]Plot(nil), r...))
				}
			}
			if c := in.Cost(m); c < bestCost {
				bestCost = c
				best = m
			}
			return nil
		}
		// Option 1: skip this template.
		if err := rec(ti + 1); err != nil {
			return err
		}
		// Option 2: place one of its colored versions in some row.
		for _, c := range byTemplate[ti] {
			for r := 0; r < rows; r++ {
				if rowUsed[r]+c.width > screenW {
					continue
				}
				rowUsed[r] += c.width
				current[r] = append(current[r], c.materialize())
				if err := rec(ti + 1); err != nil {
					return err
				}
				current[r] = current[r][:len(current[r])-1]
				rowUsed[r] -= c.width
				if rows > 1 && len(current[r]) == 0 {
					// Symmetric rows: placing the first plot of a fresh
					// multiplot into row 2 instead of row 1 yields the
					// same cost; prune the duplicate branch.
					break
				}
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return Multiplot{}, Stats{}, err
	}
	return best, Stats{
		Duration: time.Since(start),
		Optimal:  true,
		Cost:     bestCost,
		Nodes:    states,
	}, nil
}
