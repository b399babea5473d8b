package core

import (
	"context"
	"time"
)

// IncrementalILP implements incremental optimization (Section 5.4): the
// optimization time is divided into sequences of exponentially increasing
// duration k*b^i, and after each sequence the current best visualization
// is emitted. Users therefore see a first multiplot early, refined as the
// solver proves more.
type IncrementalILP struct {
	// K is the duration of the first sequence (the paper's experiments use
	// k = 62.5ms).
	K time.Duration
	// B is the growth factor between sequences (the paper uses b = 2).
	B float64
	// TotalBudget bounds overall optimization time.
	TotalBudget time.Duration
	// MaxBarsPerPlot is forwarded to the underlying ILP solver.
	MaxBarsPerPlot int
	// Hint, when non-nil, warm-starts the first sequence with a prior
	// multiplot (typically the previous utterance's answer in a voice
	// session); see ILPSolver.Hint for the remapping semantics. Later
	// sequences are always seeded with the best multiplot found so far,
	// so no sequence re-proves the incumbent the last one already paid
	// for. The first sequence is always seeded with the greedy
	// solution too, so the answer never costs more than greedy's.
	// Stats.WarmStart reports how the first sequence's hint fared.
	Hint *Multiplot
	// Ctx, when non-nil, stops refinement between sequences: the best
	// multiplot found so far is returned (anytime semantics), matching
	// what a budget expiry would do. Nil means only TotalBudget stops
	// the run.
	Ctx context.Context
}

// DefaultIncremental returns the paper's experimental configuration:
// k = 62.5ms, b = 2 (Section 9.4).
func DefaultIncremental(budget time.Duration) *IncrementalILP {
	return &IncrementalILP{K: 62500 * time.Microsecond, B: 2, TotalBudget: budget}
}

// Name identifies the solver in experiment output.
func (s *IncrementalILP) Name() string { return "ILP-Inc" }

// Update is one emitted visualization of an incremental run.
type Update struct {
	Multiplot Multiplot
	// Elapsed is the optimization time when this version appeared.
	Elapsed time.Duration
	// Cost under the instance model.
	Cost float64
	// Final marks the last update (optimum proven or budget exhausted).
	Final bool
}

// Solve runs the incremental scheme and returns the final multiplot. The
// emit callback, when non-nil, receives every intermediate visualization
// in order; this is how the progressive-presentation layer animates
// refinements.
func (s *IncrementalILP) Solve(in *Instance, emit func(Update)) (Multiplot, Stats, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return Multiplot{}, Stats{}, err
	}
	k := s.K
	if k <= 0 {
		k = 62500 * time.Microsecond
	}
	b := s.B
	if b <= 1 {
		b = 2
	}
	budget := s.TotalBudget
	if budget <= 0 {
		budget = time.Second
	}

	var best Multiplot
	bestCost := in.Cost(best)
	haveBest := false
	updates := 0

	// The k·bⁱ schedule is tracked separately from the per-sequence
	// timeout: clamping a sequence to the remaining budget must not feed
	// the clamped value back into the geometric growth, or one clamp
	// would corrupt every later sequence length.
	sched := k
	var finalStats Stats
	var warmRes WarmStartResult
	sequences := 0
	// Counters accumulate across sequences: each inner solve restarts the
	// search, and observability wants the total work, not the last slice.
	var nodes, lpSolves, simplexIters, incumbents, steals, sharedPrunes int
	for {
		if s.Ctx != nil && s.Ctx.Err() != nil {
			break
		}
		elapsed := time.Since(start)
		if elapsed >= budget {
			break
		}
		seq := sched
		if remaining := budget - elapsed; seq > remaining {
			seq = remaining
			// A near-zero final sliver cannot improve on what a full
			// sequence already found; skip it rather than burn a model
			// build on it. With nothing found yet, even a sliver beats
			// returning empty, so only skip once a best exists.
			if haveBest && seq < k/4 {
				break
			}
		}
		// Seed each sequence with the best multiplot so far, so no
		// sequence re-proves the incumbent the previous one already paid
		// for. The first sequence takes the caller's cross-utterance hint,
		// if any, and always the greedy floor, so even a starved first
		// sequence never ends worse than greedy.
		inner := &ILPSolver{Timeout: seq, MaxBarsPerPlot: s.MaxBarsPerPlot, Ctx: s.Ctx, Hint: s.Hint, WarmStart: !haveBest}
		if haveBest {
			prev := best
			inner.Hint = &prev
		}
		m, st, err := inner.Solve(in)
		if err != nil {
			return Multiplot{}, Stats{}, err
		}
		if sequences == 0 {
			warmRes = st.WarmStart
		}
		sequences++
		nodes += st.Nodes
		lpSolves += st.LPSolves
		simplexIters += st.SimplexIters
		incumbents += st.Incumbents
		steals += st.Steals
		sharedPrunes += st.SharedPrunes
		improved := !haveBest || st.Cost < bestCost-1e-9
		if improved {
			best, bestCost, haveBest = m, st.Cost, true
			updates++
			if emit != nil {
				emit(Update{Multiplot: m, Elapsed: time.Since(start), Cost: st.Cost, Final: false})
			}
		}
		finalStats = st
		if st.Optimal {
			break
		}
		sched = time.Duration(float64(sched) * b)
	}
	total := time.Since(start)
	if emit != nil {
		emit(Update{Multiplot: best, Elapsed: total, Cost: bestCost, Final: true})
	}
	return best, Stats{
		Duration:     total,
		TimedOut:     !finalStats.Optimal,
		Optimal:      finalStats.Optimal,
		Cost:         bestCost,
		Nodes:        nodes,
		LPSolves:     lpSolves,
		SimplexIters: simplexIters,
		Incumbents:   incumbents,
		Workers:      finalStats.Workers,
		Steals:       steals,
		SharedPrunes: sharedPrunes,
		Sequences:    sequences,
		WarmStart:    warmRes,
	}, nil
}
