package core

import (
	"context"
	"fmt"
	"time"

	"muve/internal/sqldb"
)

// GreedySolver implements the fast heuristic of Section 6: generate
// candidate plots (Algorithm 2), color the k most likely results per plot
// (Algorithm 3, justified by Theorem 2), pick plots by greedy submodular
// maximization under per-row width knapsack constraints (Algorithm 4,
// following Yu et al.), and polish away redundant results.
type GreedySolver struct {
	// MaxBarsPerPlot caps bars in one plot; 0 derives the cap from the
	// screen width.
	MaxBarsPerPlot int
	// SkipPolish disables the final cleanup step (ablation).
	SkipPolish bool
	// PlainGain selects items by plain marginal gain (the cardinality-
	// constrained Nemhauser variant the paper mentions for fixed plot
	// widths). When false, the default, items are selected by
	// marginal-gain/width density (the knapsack-aware rule of Yu et al.).
	PlainGain bool
	// Ctx, when non-nil, lets callers cancel a solve between phases and
	// between greedy selection rounds. Nil means never cancelled.
	Ctx context.Context
}

// ctxErr reports the solver context's cancellation state.
func (g *GreedySolver) ctxErr() error {
	if g.Ctx == nil {
		return nil
	}
	return g.Ctx.Err()
}

// Name identifies the solver in experiment output.
func (g *GreedySolver) Name() string { return "Greedy" }

// Stats reports how a solve went.
type Stats struct {
	// Duration is wall-clock optimization time.
	Duration time.Duration
	// TimedOut reports whether a deadline cut the search short.
	TimedOut bool
	// Optimal reports whether the result is provably optimal (ILP only).
	Optimal bool
	// Cost is the expected disambiguation cost of the returned multiplot.
	Cost float64
	// Nodes counts branch-and-bound nodes (ILP only).
	Nodes int
	// LPSolves counts LP relaxations solved (ILP only).
	LPSolves int
	// SimplexIters totals simplex iterations across relaxations (ILP only).
	SimplexIters int
	// Incumbents counts incumbent-solution updates during search (ILP only).
	Incumbents int
	// Workers is the number of branch-and-bound subtree workers the
	// search ran with (ILP only).
	Workers int
	// Steals counts work-stealing load-balance events (ILP only).
	Steals int
	// SharedPrunes counts subtrees pruned against an incumbent found by a
	// different worker (ILP only).
	SharedPrunes int
	// Rounds counts greedy selection rounds, i.e. plots placed (greedy only).
	Rounds int
	// Sequences counts the k·bⁱ sequences an incremental run executed
	// (IncrementalILP only).
	Sequences int
	// WarmStart classifies how the solver's warm-start hint fared: WarmHit,
	// WarmPartial, WarmInfeasible or WarmNone. Empty for solvers without a
	// hint surface (greedy) and for solves given no hint.
	WarmStart WarmStartResult
	// Scan totals the shared-scan executor's data-path work for the
	// answer: table passes, rows covered, candidate aggregates answered
	// (including grouped candidates' output groups and multi-aggregate
	// accumulator tuples), predicate sharing, and sketch activity.
	// Solvers leave it zero; the presentation layer fills it in after
	// execution.
	Scan sqldb.ScanStats
}

// Solve runs the greedy algorithm (Algorithm 1). The deadline is ignored:
// greedy always finishes fast, which is exactly its selling point.
func (g *GreedySolver) Solve(in *Instance) (Multiplot, Stats, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return Multiplot{}, Stats{}, err
	}
	// Phase 1+2: candidate plots with highlighting options.
	colored := g.coloredCandidates(in)
	if err := g.ctxErr(); err != nil {
		return Multiplot{}, Stats{}, err
	}
	// Phase 3: pick plots under the width knapsack.
	m, rounds := g.pickPlots(in, colored)
	if err := g.ctxErr(); err != nil {
		return Multiplot{}, Stats{}, err
	}
	// Phase 4: polish.
	if !g.SkipPolish {
		m = polish(in, m)
	}
	st := Stats{Duration: time.Since(start), Cost: in.Cost(m), Rounds: rounds}
	return m, st, nil
}

// coloredPlot is a fully specified plot candidate: a template, the top-n
// most likely compatible queries, and the top-k of those highlighted.
type coloredPlot struct {
	group *TemplateGroup
	id    int // the group's template ID
	n, k  int
	width int
}

// coloredCandidates generates Algorithms 2 and 3's output: for each
// template, prefix subsets of its queries by decreasing probability
// (Theorem 2 restricts attention to such prefixes), each with every
// highlight count k in [0, n]. Options of one template are contiguous,
// in ascending template-key order.
func (g *GreedySolver) coloredCandidates(in *Instance) []coloredPlot {
	groups := in.templates().groups
	screenW := in.Screen.WidthUnits()
	// maxBars is the widest prefix of group id that fits a row.
	maxBars := func(id int) (base, n int) {
		base = in.Screen.TitleUnits(len(groups[id].Template.Title))
		n = len(groups[id].Queries)
		if g.MaxBarsPerPlot > 0 && n > g.MaxBarsPerPlot {
			n = g.MaxBarsPerPlot
		}
		if n > screenW-base {
			n = max(screenW-base, 0) // wider prefixes cannot fit any row
		}
		return base, n
	}
	total := 0
	for id := range groups {
		_, n := maxBars(id)
		total += n * (n + 3) / 2 // prefixes 1..n, each with k in [0, n]
	}
	out := make([]coloredPlot, 0, total)
	for id := range groups {
		base, maxN := maxBars(id)
		for n := 1; n <= maxN; n++ {
			for k := 0; k <= n; k++ {
				out = append(out, coloredPlot{group: &groups[id], id: id, n: n, k: k, width: base + n})
			}
		}
	}
	return out
}

// materialize builds the concrete Plot for a colored candidate.
func (c coloredPlot) materialize() Plot {
	entries := make([]Entry, c.n)
	for i := 0; i < c.n; i++ {
		entries[i] = Entry{
			Query:       c.group.Queries[i],
			Label:       c.group.Labels[i],
			Highlighted: i < c.k,
		}
	}
	return Plot{Template: c.group.Template, Entries: nanEntries(entries)}
}

// trialCosts prices "the current multiplot plus one colored plot"
// without building it: it keeps the current multiplot's query states and
// counts, and evaluates a trial through Instance.costOf on a reused
// scratch copy of the states, so a trial equals Instance.Cost of the
// materialized multiplot bit for bit.
type trialCosts struct {
	in            *Instance
	states, trial []QueryState
	b, bR, p, pR  int
}

func newTrialCosts(in *Instance) *trialCosts {
	n := len(in.Candidates)
	return &trialCosts{in: in, states: make([]QueryState, n), trial: make([]QueryState, n)}
}

// apply raises the states of c's queries: highlighted for its top k,
// visible for the rest.
func apply(states []QueryState, c coloredPlot) {
	for i, qi := range c.group.Queries[:c.n] {
		s := StateVisible
		if i < c.k {
			s = StateHighlighted
		}
		if s > states[qi] {
			states[qi] = s
		}
	}
}

// plotCounts returns c's contribution to (b, bR, p, pR).
func plotCounts(c coloredPlot) (b, bR, p, pR int) {
	if c.k > 0 {
		pR = 1
	}
	return c.n, c.k, 1, pR
}

// cost is Instance.Cost of the current multiplot with c added.
func (t *trialCosts) cost(c coloredPlot) float64 {
	copy(t.trial, t.states)
	apply(t.trial, c)
	b, bR, p, pR := plotCounts(c)
	return t.in.costOf(t.trial, t.b+b, t.bR+bR, t.p+p, t.pR+pR)
}

// place adds c to the current multiplot.
func (t *trialCosts) place(c coloredPlot) {
	apply(t.states, c)
	b, bR, p, pR := plotCounts(c)
	t.b, t.bR, t.p, t.pR = t.b+b, t.bR+bR, t.p+p, t.pR+pR
}

// scanCandidate evaluates one colored candidate against the current
// multiplot: the fullest row it still fits, its marginal gain, and its
// selection score. row == -1 means the candidate is inapplicable this
// round (template used, no row fits, or no positive gain).
func (g *GreedySolver) scanCandidate(in *Instance, c coloredPlot, usedTemplate []bool, rowUsed []int, trials *trialCosts, currentCost float64) (row int, score, gain float64) {
	if usedTemplate[c.id] {
		return -1, 0, 0
	}
	// Identical gain in every row; only the capacity differs. Try
	// the fullest row that still fits, which packs tightly.
	screenW := in.Screen.WidthUnits()
	row = -1
	for r, used := range rowUsed {
		if used+c.width <= screenW {
			if row == -1 || used > rowUsed[row] {
				row = r
			}
		}
	}
	if row == -1 {
		return -1, 0, 0
	}
	gain = currentCost - trials.cost(c)
	if gain <= 1e-12 {
		return -1, 0, 0
	}
	score = gain
	if !g.PlainGain {
		score = gain / float64(c.width)
	}
	return row, score, gain
}

// pickPlots is Algorithm 4: greedy maximization of the submodular cost-
// savings function over (plot, row) items subject to per-row width
// knapsacks, plus the consistency constraint that each template
// contributes at most one plot. The second return value is the number of
// selection rounds that placed a plot.
func (g *GreedySolver) pickPlots(in *Instance, colored []coloredPlot) (Multiplot, int) {
	rows := in.Screen.Rows
	rowUsed := make([]int, rows)
	usedTemplate := make([]bool, len(in.templates().groups))
	current := Multiplot{Rows: make([][]Plot, rows)}
	trials := newTrialCosts(in)
	currentCost := in.Cost(current)
	rounds := 0

	for {
		// Checkpoint between selection rounds: an abandoned request
		// stops burning CPU mid-solve instead of at the next phase.
		if g.ctxErr() != nil {
			break
		}
		// A candidate wins only if it beats the best so far by more
		// than 1e-12, so on a tie the earlier candidate is kept.
		bestIdx, bestRow := -1, -1
		var bestScore, bestGain float64
		for ci := range colored {
			row, score, gain := g.scanCandidate(in, colored[ci], usedTemplate, rowUsed, trials, currentCost)
			if row == -1 {
				continue
			}
			if score > bestScore+1e-12 || (bestIdx == -1 && score > 0) {
				bestIdx, bestRow, bestScore, bestGain = ci, row, score, gain
			}
		}
		if bestIdx == -1 {
			break
		}
		c := colored[bestIdx]
		current.Rows[bestRow] = append(current.Rows[bestRow], c.materialize())
		trials.place(c)
		rowUsed[bestRow] += c.width
		usedTemplate[c.id] = true
		currentCost -= bestGain
		rounds++
	}
	// Drop empty trailing rows for a tidy result.
	out := Multiplot{}
	for _, r := range current.Rows {
		if len(r) > 0 {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, rounds
}

// polish removes redundant results shown in several plots and refills the
// gaps with the most likely non-redundant compatible queries (the final
// step of Algorithm 1). Removing never hurts: duplicate bars add reading
// cost without adding coverage.
func polish(in *Instance, m Multiplot) Multiplot {
	idx := in.templates()
	type slot struct{ row, plot, entry int }
	best := make([]slot, len(in.Candidates)) // query -> winning occurrence
	for qi := range best {
		best[qi].row = -1 // not displayed
	}
	// Pass 1: choose, per query, the occurrence to keep (highlighted wins,
	// then earliest position).
	for ri, row := range m.Rows {
		for pi, pl := range row {
			for ei, e := range pl.Entries {
				cur := best[e.Query]
				if cur.row < 0 {
					best[e.Query] = slot{ri, pi, ei}
					continue
				}
				curHL := m.Rows[cur.row][cur.plot].Entries[cur.entry].Highlighted
				if e.Highlighted && !curHL {
					best[e.Query] = slot{ri, pi, ei}
				}
			}
		}
	}
	displayed := make([]bool, len(in.Candidates))
	for qi, s := range best {
		displayed[qi] = s.row >= 0
	}
	// Pass 2: rebuild plots, dropping losing duplicates and refilling.
	out := Multiplot{Rows: make([][]Plot, len(m.Rows))}
	for ri, row := range m.Rows {
		for pi, pl := range row {
			var entries []Entry
			removed := 0
			for ei, e := range pl.Entries {
				if best[e.Query] == (slot{ri, pi, ei}) {
					entries = append(entries, e)
				} else {
					removed++
				}
			}
			// Refill gaps with the most likely compatible queries not yet
			// displayed anywhere (width stays constant: one bar per gap).
			if removed > 0 {
				if id, ok := idx.byKey[pl.Template.Key]; ok {
					grp := &idx.groups[id]
					for gi, qi := range grp.Queries {
						if removed == 0 {
							break
						}
						if displayed[qi] {
							continue
						}
						entries = append(entries, Entry{
							Query: qi,
							Label: grp.Labels[gi],
						})
						displayed[qi] = true
						removed--
					}
				}
			}
			if len(entries) > 0 {
				out.Rows[ri] = append(out.Rows[ri], Plot{Template: pl.Template, Entries: nanEntries(entries)})
			}
		}
	}
	cleaned := Multiplot{}
	for _, r := range out.Rows {
		if len(r) > 0 {
			cleaned.Rows = append(cleaned.Rows, r)
		}
	}
	// Polishing must never worsen the multiplot; keep the original if the
	// refill heuristic backfired (possible when a refilled bar's plot-
	// context cost exceeds its probability gain).
	if in.Cost(cleaned) > in.Cost(m) {
		return m
	}
	return cleaned
}

// String renders a compact structural description, for logs and tests.
func (m Multiplot) String() string {
	s := ""
	for ri, row := range m.Rows {
		if ri > 0 {
			s += " // "
		}
		for pi, pl := range row {
			if pi > 0 {
				s += " | "
			}
			s += fmt.Sprintf("[%s: %d bars, %d red]", pl.Template.Title, len(pl.Entries), pl.RedBars())
		}
	}
	if s == "" {
		return "[empty]"
	}
	return s
}
