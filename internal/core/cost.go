package core

// Cost evaluates the expected user disambiguation time of a multiplot under
// the instance's time model (Section 4.2):
//
//	r_R*D_R + r_V*D_V + r_M*D_M
//
// where r_R, r_V, r_M are the total probabilities of candidates whose
// results are highlighted, visible un-highlighted, or missing, and the D
// components depend only on the bar/plot counts. Both solvers, the
// exhaustive reference, and the experiments all score multiplots through
// this one function, so their costs are directly comparable.
func (in *Instance) Cost(m Multiplot) float64 {
	b, bR, p, pR := m.Counts()
	return in.costOf(m.QueryStates(len(in.Candidates)), b, bR, p, pR)
}

// costOf is Cost from a multiplot's query states and counts. Greedy's
// trial costs call it directly, so they equal Cost bit for bit.
func (in *Instance) costOf(states []QueryState, b, bR, p, pR int) float64 {
	rR, rV := in.probCovered(states)
	cost := in.Model.Expected(rR, rV, b, bR, p, pR)
	if in.ProcCostWeight > 0 {
		cost += in.ProcCostWeight * in.processingCost(states)
	}
	return cost
}

// Savings is C(empty) - C(m) (paper Definition 6): how much expected user
// time the multiplot saves compared to showing nothing.
func (in *Instance) Savings(m Multiplot) float64 {
	return in.Model.EmptyCost() - in.Cost(m)
}

// processingCost returns the minimal total cost of processing groups that
// cover every displayed query, approximated greedily (set cover): the
// exact minimum is itself NP-hard, and the estimate only breaks ties among
// near-equal multiplots.
func (in *Instance) processingCost(states []QueryState) float64 {
	cost, _ := in.groupCover(states)
	return cost
}

// groupCover greedily picks processing groups covering every displayed
// query, returning the total cost and the chosen group indices. The ILP
// warm start uses the same cover to seed its group variables.
func (in *Instance) groupCover(states []QueryState) (float64, []int) {
	if len(in.Groups) == 0 {
		return 0, nil
	}
	need := make(map[int]bool)
	for qi, st := range states {
		if st != StateMissing {
			need[qi] = true
		}
	}
	total := 0.0
	var chosen []int
	for len(need) > 0 {
		best := -1
		bestDensity := 0.0
		for gi, g := range in.Groups {
			cover := 0
			for _, qi := range g.Queries {
				if need[qi] {
					cover++
				}
			}
			if cover == 0 {
				continue
			}
			density := float64(cover) / (g.Cost + 1e-12)
			if density > bestDensity {
				bestDensity = density
				best = gi
			}
		}
		if best == -1 {
			// Some displayed query is in no group: it must be executed
			// standalone. Charge the maximum group cost as a conservative
			// stand-in and drop it from the cover set.
			maxCost := 0.0
			for _, g := range in.Groups {
				if g.Cost > maxCost {
					maxCost = g.Cost
				}
			}
			total += maxCost * float64(len(need))
			break
		}
		chosen = append(chosen, best)
		total += in.Groups[best].Cost
		for _, qi := range in.Groups[best].Queries {
			delete(need, qi)
		}
	}
	return total, chosen
}

// ProbCovered returns (rR, rV): total probability highlighted and visible.
func (in *Instance) ProbCovered(m Multiplot) (rR, rV float64) {
	return in.probCovered(m.QueryStates(len(in.Candidates)))
}

// probCovered sums highlighted and visible probability in candidate
// order.
func (in *Instance) probCovered(states []QueryState) (rR, rV float64) {
	for i, st := range states {
		switch st {
		case StateHighlighted:
			rR += in.Candidates[i].Prob
		case StateVisible:
			rV += in.Candidates[i].Prob
		}
	}
	return
}
