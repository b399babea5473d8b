package speak

import (
	"muve/internal/core"
	"muve/internal/usermodel"
)

// CostModel estimates expected listening effort for a spoken answer, in
// milliseconds — the audio counterpart of usermodel.TimeModel and the
// objective both planners in this package minimize.
//
// The structure mirrors Section 4.2 of the MUVE paper with the visual
// quantities transposed to audio: bars become spoken words, plots become
// facts, and highlighting becomes direct answering. Direct value facts
// are spoken first, so a listener whose interpretation is answered
// directly hears half of the direct material in expectation; a listener
// whose interpretation is only covered by a scoped range fact listens
// through all direct facts and then half of the rest; a listener whose
// interpretation the answer skips entirely pays the re-ask penalty.
type CostModel struct {
	// CW is the listening cost per spoken word.
	CW float64
	// CF is the orientation cost per fact (parsing what the fact is
	// about before its value lands).
	CF float64
	// DM is the penalty when the user's interpretation is not covered
	// and the query must be re-asked.
	DM float64
	// Base is a fixed per-answer overhead (speech synthesis lead-in).
	// Constant across fact sets, so it never influences optimization.
	Base float64
}

// wordsPerBar calibrates the transposition from the visual model: one
// bar's worth of visual scanning corresponds to about three spoken words
// (label plus value).
const wordsPerBar = 3

// FromTimeModel derives a listening-cost model from a (possibly
// calibrated) visual time model: reading one bar maps to hearing
// wordsPerBar words, understanding one plot maps to orienting in one
// fact at half the plot cost (a fact frames a single statement, a plot a
// whole axis), and the miss penalty — re-speaking the query — is the
// same in both modalities.
func FromTimeModel(m usermodel.TimeModel) CostModel {
	return CostModel{CW: m.CB / wordsPerBar, CF: m.CP / 2, DM: m.DM, Base: m.Base}
}

// DefaultCost returns the calibration used throughout the experiments,
// derived from the paper's visual user-study model.
func DefaultCost() CostModel { return FromTimeModel(usermodel.DefaultModel()) }

// Valid mirrors usermodel.TimeModel.Valid: positive listening costs
// strictly below the miss penalty, the assumption behind the greedy
// heuristic's usefulness.
func (c CostModel) Valid() bool {
	return c.CW > 0 && c.CF > 0 && c.DM > c.CF && c.DM > c.CW
}

// DDirect is the expected time until a directly answered listener hears
// their value: half of the direct words and facts in expectation
// (analogue of TimeModel.DR).
func (c CostModel) DDirect(wD, nD int) float64 {
	return float64(wD)*c.CW/2 + float64(nD)*c.CF/2
}

// DScoped is the expected time until a scope-covered listener has heard
// their envelope: all direct material first, then half of the remainder
// (analogue of TimeModel.DV).
func (c CostModel) DScoped(w, wD, n, nD int) float64 {
	return 2*c.DDirect(wD, nD) + float64(w-wD)*c.CW/2 + float64(n-nD)*c.CF/2
}

// Expected is the expected listening effort given the probabilities that
// the user's interpretation is answered directly (rD) or scope-covered
// (rS), over an answer with w words (wD direct) in n facts (nD direct).
// The remainder probability pays the miss penalty. This is the objective
// the speak planners minimize.
func (c CostModel) Expected(rD, rS float64, w, wD, n, nD int) float64 {
	rM := 1 - rD - rS
	return rD*c.DDirect(wD, nD) + rS*c.DScoped(w, wD, n, nD) + rM*c.DM
}

// EmptyCost is the cost of saying nothing: the interpretation is
// uncovered with probability one.
func (c CostModel) EmptyCost() float64 { return c.DM }

// Cost evaluates a fact set against an instance: each candidate
// contributes its probability-weighted direct, scoped, or miss cost.
// This is the exact objective (no linearization), used to score both
// planners' outputs and to verify that greedy never beats the ILP.
func (c CostModel) Cost(in *core.Instance, fs FactSet) float64 {
	w, wD, n, nD := fs.Totals()
	states := fs.States(len(in.Candidates))
	rD, rS := 0.0, 0.0
	for i, cand := range in.Candidates {
		switch states[i] {
		case CoverDirect:
			rD += cand.Prob
		case CoverScoped:
			rS += cand.Prob
		}
	}
	return c.Expected(rD, rS, w, wD, n, nD)
}
