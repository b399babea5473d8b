// Package core implements the paper's primary contribution: the multiplot
// selection problem and its two solvers.
//
// Given candidate queries with probabilities (produced by the text-to-
// multi-SQL layer), a screen width, and a row budget, the planner picks
//
//   - which query-group plots to show (each covering queries that
//     instantiate a common template with one placeholder),
//   - which query results appear as bars inside each plot, and
//   - which bars are highlighted in red,
//
// so that the expected user disambiguation time — per the Section 4 user
// model — is minimal. The problem is NP-hard (paper Theorem 5); the
// package provides the integer-programming solver (Section 5, exact up to
// its deadline), the greedy heuristic (Section 6, built on submodular
// maximization), an exhaustive solver for small instances (testing), and
// anytime incremental optimization (Section 5.4).
package core

import (
	"fmt"
	"math"
	"sync"

	"muve/internal/sqldb"
	"muve/internal/usermodel"
)

// Candidate is one possible interpretation of the voice input: a query and
// the probability that it matches the user's intent (paper Definition 1).
type Candidate struct {
	Query sqldb.Query
	Prob  float64
}

// Screen describes the output surface. Widths are measured in pixels and
// converted to abstract "bar units" (the paper normalizes bar width to 1).
type Screen struct {
	// WidthPx is the horizontal resolution.
	WidthPx int
	// Rows is the number of plot rows ("we use plots of equal height and
	// limit the number of rows, in accordance with the vertical screen
	// resolution").
	Rows int
	// PxPerBar is the rendered width of one bar, including padding.
	PxPerBar int
	// PxPerChar approximates title text width, determining the minimal
	// plot width m(p) "determined for instance by the plot title".
	PxPerChar int
}

// Common device resolutions used in the paper's evaluation ("ranging from
// phones over tablets to typical computer screens"; the iPhone is the
// default).
const (
	PhoneWidthPx   = 375
	TabletWidthPx  = 768
	LaptopWidthPx  = 1440
	DesktopWidthPx = 1920
)

// DefaultScreen returns the paper's default setting: one row at iPhone
// resolution.
func DefaultScreen() Screen {
	return Screen{WidthPx: PhoneWidthPx, Rows: 1, PxPerBar: 48, PxPerChar: 7}
}

// WidthUnits converts the pixel width into whole bar units.
func (s Screen) WidthUnits() int {
	if s.PxPerBar <= 0 {
		return 0
	}
	return s.WidthPx / s.PxPerBar
}

// TitleUnits returns the base width W_i of a plot whose title has the
// given length, in bar units (rounded up; at least one).
func (s Screen) TitleUnits(titleLen int) int {
	if s.PxPerBar <= 0 {
		return 1
	}
	u := (titleLen*s.PxPerChar + s.PxPerBar - 1) / s.PxPerBar
	if u < 1 {
		u = 1
	}
	return u
}

// Validate checks the screen for usability.
func (s Screen) Validate() error {
	if s.Rows < 1 {
		return fmt.Errorf("core: screen needs at least one row, got %d", s.Rows)
	}
	if s.PxPerBar <= 0 || s.PxPerChar <= 0 {
		return fmt.Errorf("core: screen needs positive px-per-bar and px-per-char")
	}
	if s.WidthUnits() < 2 {
		return fmt.Errorf("core: screen width %dpx fits no plot (%d bar units)", s.WidthPx, s.WidthUnits())
	}
	return nil
}

// ProcessingGroup describes a set of candidate queries that the execution
// layer can answer with one merged query, together with the optimizer's
// cost estimate for that merged query. The processing-cost-aware ILP
// variant (Section 8.1) uses groups to bound or penalize execution
// overheads during plot selection.
type ProcessingGroup struct {
	// Queries are indices into Instance.Candidates.
	Queries []int
	// Cost is the estimated execution cost of processing the group.
	Cost float64
}

// Instance is one multiplot selection problem (paper Definition 5).
//
// Candidates must not change once a solver (or TemplateGroups) has seen
// the instance: the template grouping is built from them on first use
// and kept for every later solve. Build a new Instance for a new
// candidate set. An Instance must not be copied after first use.
type Instance struct {
	Candidates []Candidate
	Screen     Screen
	Model      usermodel.TimeModel

	// Groups optionally enables processing-cost-aware planning: when
	// non-empty, a query may only be displayed if at least one group
	// containing it is processed.
	Groups []ProcessingGroup
	// ProcCostBound, when > 0, constrains total processing cost of the
	// selected groups (ILP solver only).
	ProcCostBound float64
	// ProcCostWeight, when > 0, adds weighted processing cost to the
	// objective so ties in disambiguation cost break toward cheaper plans.
	ProcCostWeight float64

	tmplOnce sync.Once
	tmpl     *templateIndex
}

// Validate checks instance consistency.
func (in *Instance) Validate() error {
	if len(in.Candidates) == 0 {
		return fmt.Errorf("core: instance has no candidate queries")
	}
	if err := in.Screen.Validate(); err != nil {
		return err
	}
	if !in.Model.Valid() {
		return fmt.Errorf("core: time model violates Assumption 1 (reading costs must be below the miss penalty)")
	}
	sum := 0.0
	for i, c := range in.Candidates {
		if c.Prob < 0 {
			return fmt.Errorf("core: candidate %d has negative probability", i)
		}
		if len(c.Query.Aggs) != 1 {
			return fmt.Errorf("core: candidate %d must have exactly one aggregate (got %d)", i, len(c.Query.Aggs))
		}
		sum += c.Prob
	}
	if sum > 1+1e-6 {
		return fmt.Errorf("core: candidate probabilities sum to %v > 1", sum)
	}
	for gi, g := range in.Groups {
		for _, qi := range g.Queries {
			if qi < 0 || qi >= len(in.Candidates) {
				return fmt.Errorf("core: group %d references candidate %d out of range", gi, qi)
			}
		}
	}
	return nil
}

// Entry is one bar of a plot: a candidate query's result.
type Entry struct {
	// Query indexes Instance.Candidates.
	Query int
	// Label is the x-axis label: the concrete substitution of the
	// template's placeholder for this query.
	Label string
	// Highlighted marks the bar red.
	Highlighted bool
	// Value is the query result, filled in after execution (NaN before).
	Value float64
	// Approximate marks values computed from a data sample.
	Approximate bool
}

// Plot is a query-group plot (paper Definition 2): results of queries
// instantiating one template, a subset highlighted.
type Plot struct {
	Template Template
	Entries  []Entry
}

// Width returns the plot's width in bar units for the given screen:
// max(title width, bars).
func (p Plot) Width(s Screen) int {
	w := s.TitleUnits(len(p.Template.Title))
	return w + len(p.Entries)
}

// RedBars counts highlighted entries.
func (p Plot) RedBars() int {
	n := 0
	for _, e := range p.Entries {
		if e.Highlighted {
			n++
		}
	}
	return n
}

// Multiplot is the planner's output: plots structured into rows (paper
// Definition 3).
type Multiplot struct {
	Rows [][]Plot
}

// Plots returns all plots in row-major order.
func (m Multiplot) Plots() []Plot {
	var out []Plot
	for _, r := range m.Rows {
		out = append(out, r...)
	}
	return out
}

// NumPlots returns the total number of plots.
func (m Multiplot) NumPlots() int {
	n := 0
	for _, r := range m.Rows {
		n += len(r)
	}
	return n
}

// Counts returns (b, bR, p, pR): bars, red bars, plots, and plots with at
// least one red bar — the quantities the time model consumes.
func (m Multiplot) Counts() (b, bR, p, pR int) {
	for _, row := range m.Rows {
		for _, pl := range row {
			p++
			b += len(pl.Entries)
			r := pl.RedBars()
			bR += r
			if r > 0 {
				pR++
			}
		}
	}
	return
}

// QueryState classifies a candidate's visibility in the multiplot.
type QueryState uint8

const (
	// StateMissing means the query result is not shown.
	StateMissing QueryState = iota
	// StateVisible means the result is shown but not highlighted.
	StateVisible
	// StateHighlighted means the result is shown with red markup.
	StateHighlighted
)

// QueryStates returns the visibility state of every candidate. A query
// shown several times takes its best state (highlighted beats visible).
func (m Multiplot) QueryStates(numCandidates int) []QueryState {
	st := make([]QueryState, numCandidates)
	for _, row := range m.Rows {
		for _, pl := range row {
			for _, e := range pl.Entries {
				if e.Query < 0 || e.Query >= numCandidates {
					continue
				}
				s := StateVisible
				if e.Highlighted {
					s = StateHighlighted
				}
				if s > st[e.Query] {
					st[e.Query] = s
				}
			}
		}
	}
	return st
}

// FitsScreen reports whether the multiplot respects the dimension
// constraints: at most Screen.Rows rows and per-row width within the
// screen width.
func (m Multiplot) FitsScreen(s Screen) bool {
	if len(m.Rows) > s.Rows {
		return false
	}
	w := s.WidthUnits()
	for _, row := range m.Rows {
		total := 0
		for _, pl := range row {
			total += pl.Width(s)
		}
		if total > w {
			return false
		}
	}
	return true
}

// Layout converts the multiplot to the user model's abstract layout, with
// the target marked when the correct candidate index is given (use -1 for
// no target).
func (m Multiplot) Layout(correct int) usermodel.Layout {
	var l usermodel.Layout
	for _, row := range m.Rows {
		for _, pl := range row {
			// The user-model layout convention places highlighted bars at
			// indices [0, RedBars); reorder entries accordingly.
			red := 0
			for _, e := range pl.Entries {
				if e.Highlighted {
					red++
				}
			}
			pla := usermodel.NewPlotLayout(len(pl.Entries), red)
			ri, vi := 0, red
			for _, e := range pl.Entries {
				idx := vi
				if e.Highlighted {
					idx = ri
					ri++
				} else {
					vi++
				}
				if e.Query == correct && correct >= 0 {
					pla.TargetBar = idx
				}
			}
			l.Plots = append(l.Plots, pla)
		}
	}
	return l
}

// nanEntries initializes entry values to NaN until execution fills them.
func nanEntries(entries []Entry) []Entry {
	for i := range entries {
		entries[i].Value = math.NaN()
	}
	return entries
}
