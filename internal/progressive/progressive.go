// Package progressive implements MUVE's presentation strategies (paper
// Section 8.2 and Figure 5): the default all-at-once presentation, the
// processing-cost-aware ILP variant, incremental optimization (ILP-Inc),
// incremental plotting (Inc-Plot), and approximate processing with fixed
// (App-1%, App-5%) or dynamically chosen (App-D) sample rates. A run
// produces a trace of timestamped visualization events from which the
// experiments derive F-Time (time until the correct result is first
// visible), T-Time (time until the final multiplot), interactivity-
// threshold misses, and the relative error of initial approximations.
package progressive

import (
	"context"
	"fmt"
	"math"
	"time"

	"muve/internal/core"
	"muve/internal/merge"
	"muve/internal/obs"
	"muve/internal/resilience"
	"muve/internal/sqldb"
)

// Session is one voice-query answering task.
type Session struct {
	DB       *sqldb.DB
	Instance *core.Instance
	// Correct indexes the candidate representing the user's true intent,
	// or -1 when unknown (F-Time is then left zero).
	Correct int
	// SampleSeed keeps approximate runs reproducible.
	SampleSeed uint64
	// Ctx, when non-nil, cancels the presentation: methods checkpoint
	// between planning and each execution round, and forward the
	// context into the solvers. Nil means run to completion.
	Ctx context.Context

	// scanStats accumulates shared-scan work across every execution
	// round of the presentation; finishTrace copies it onto the trace.
	scanStats sqldb.ScanStats
}

// Context returns the session context, defaulting to Background.
func (s *Session) Context() context.Context {
	if s.Ctx == nil {
		return context.Background()
	}
	return s.Ctx
}

// Event is one visualization shown to the user.
type Event struct {
	At          time.Duration
	Multiplot   core.Multiplot
	Approximate bool
}

// Trace is the full output of presenting one query.
type Trace struct {
	Events []Event
	// FTime is the time until the correct query's result was first
	// visible, at least as an approximation; zero when it never was (or
	// Correct was unknown).
	FTime time.Duration
	// TTime is the time until the final visualization.
	TTime time.Duration
	// InitialRelError is the mean relative error of the first event's bar
	// values against the final exact values (zero for exact-first
	// methods).
	InitialRelError float64
	// Updates counts visualization changes after the first paint — the
	// churn that hurts clarity ratings in the paper's second user study.
	Updates int
	// EarlyStop records why refinement stopped before exhausting its
	// budget: "optimal" (optimum proven), "cancelled" (context), or ""
	// when the method simply ran to completion / spent the full budget.
	EarlyStop string
	// SampleRate is the sample rate of the first emitted visualization:
	// 1 for exact-first methods, the approximation rate for App-* runs.
	SampleRate float64
	// Solver is the planning call's own report — optimality, timeout,
	// branch-and-bound effort, and how a warm-start hint fared — for
	// the methods that plan once (the Default methods and ILP-Inc);
	// zero for the rest.
	Solver core.Stats
	// Scan totals the shared-scan executor's work across all execution
	// rounds: table passes, rows covered, candidates answered, predicate
	// sharing, and sketch activity.
	Scan sqldb.ScanStats
}

// Method is one presentation strategy.
type Method interface {
	Name() string
	Present(s *Session) (*Trace, error)
}

// recordSolverStats attaches one planning call's counters to a "solver"
// span: which planner ran, the achieved cost, and — for ILP-backed
// planners — the internal search effort (branch-and-bound nodes, LP
// relaxations, simplex iterations, incumbent updates). All setters are
// nil-safe, so untraced sessions pay only the nil check.
func recordSolverStats(sp *obs.Span, name string, st core.Stats) {
	sp.SetStr("solver", name).
		SetFloat("cost", st.Cost).
		SetBool("optimal", st.Optimal).
		SetBool("timed_out", st.TimedOut)
	if st.Rounds > 0 {
		sp.SetInt("rounds", int64(st.Rounds))
	}
	if st.LPSolves > 0 {
		sp.SetInt("bb_nodes", int64(st.Nodes)).
			SetInt("lp_solves", int64(st.LPSolves)).
			SetInt("simplex_iters", int64(st.SimplexIters)).
			SetInt("incumbents", int64(st.Incumbents))
	}
	if st.Workers > 0 {
		sp.SetInt("workers", int64(st.Workers)).
			SetInt("steals", int64(st.Steals)).
			SetInt("shared_prunes", int64(st.SharedPrunes))
	}
	if st.Sequences > 0 {
		sp.SetInt("sequences", int64(st.Sequences))
	}
	if st.WarmStart != "" {
		sp.SetStr("warm_start", string(st.WarmStart))
	}
}

// planner computes a multiplot for an instance under ctx.
type planner func(ctx context.Context, in *core.Instance) (core.Multiplot, core.Stats, error)

// greedy is the paper's greedy planner. A fresh solver per call keeps
// every method that uses it safe to share across concurrent sessions.
func greedy(ctx context.Context, in *core.Instance) (core.Multiplot, core.Stats, error) {
	g := &core.GreedySolver{Ctx: ctx}
	return g.Solve(in)
}

// plan runs one presentation's planning call under a "solver" span: it
// injects the "solver" chaos fault, runs p under the solver's pprof
// stage label, and records p's stats on the span under name. Every
// Present plans through it, so solver faults reach every method.
func plan(s *Session, name string, p planner) (core.Multiplot, core.Stats, error) {
	sp := obs.StartSpan(s.Context(), "solver")
	if err := resilience.Inject(s.Context(), "solver"); err != nil {
		sp.SetErr(err).End()
		return core.Multiplot{}, core.Stats{}, err
	}
	var (
		m   core.Multiplot
		st  core.Stats
		err error
	)
	obs.Do(s.Context(), "solver", func(ctx context.Context) {
		m, st, err = p(ctx, s.Instance)
	})
	if err != nil {
		sp.SetErr(err).End()
		return core.Multiplot{}, core.Stats{}, err
	}
	recordSolverStats(sp, name, st)
	sp.End()
	return m, st, nil
}

// updateSpan opens a "progressive.update" child span for one
// visualization update: its duration covers the query execution that
// produced the update, and its attrs record which update it was (0 is
// the first paint) and at what sample rate it ran. Nil-safe like every
// span, so untraced sessions pay only the nil check.
func updateSpan(s *Session, idx int, rate float64) *obs.Span {
	return obs.StartSpan(s.Context(), "progressive.update").
		SetInt("update", int64(idx)).
		SetFloat("sample_rate", rate)
}

// displayedQueries collects the candidate queries a multiplot shows,
// deduplicated, with a candidate-index → query-position map.
func displayedQueries(s *Session, m core.Multiplot) ([]sqldb.Query, map[int]int) {
	var queries []sqldb.Query
	pos := make(map[int]int)
	for _, row := range m.Rows {
		for _, pl := range row {
			for _, e := range pl.Entries {
				if _, ok := pos[e.Query]; !ok {
					pos[e.Query] = len(queries)
					queries = append(queries, s.Instance.Candidates[e.Query].Query)
				}
			}
		}
	}
	return queries, pos
}

// applyResults writes computed values back into a copy of the multiplot.
func applyResults(m core.Multiplot, pos map[int]int, res map[int]merge.Result, approx bool) core.Multiplot {
	out := core.Multiplot{Rows: make([][]core.Plot, len(m.Rows))}
	for ri, row := range m.Rows {
		for _, pl := range row {
			np := core.Plot{Template: pl.Template, Entries: append([]core.Entry(nil), pl.Entries...)}
			for ei := range np.Entries {
				r := res[pos[np.Entries[ei].Query]]
				if r.Valid {
					np.Entries[ei].Value = r.Value
				} else {
					np.Entries[ei].Value = math.NaN()
				}
				np.Entries[ei].Approximate = approx
			}
			out.Rows[ri] = append(out.Rows[ri], np)
		}
	}
	return out
}

// recordScanStats attaches one execution round's shared-scan counters to
// its "scan" span and folds them into the session total.
func recordScanStats(s *Session, sp *obs.Span, st sqldb.ScanStats, rate float64) {
	s.scanStats.Add(st)
	merge.AnnotateScan(sp, st, rate)
}

// fillValues executes the multiplot's queries through the shared-scan
// executor — every displayed candidate aggregate from one table pass —
// and writes results into the entries. sampleRate in (0,1) makes all
// values approximate.
func fillValues(s *Session, m core.Multiplot, sampleRate float64) (core.Multiplot, error) {
	// Cancellation checkpoint: execution is the expensive half of a
	// presentation round, so an abandoned request stops here.
	if err := s.Context().Err(); err != nil {
		return m, err
	}
	queries, pos := displayedQueries(s, m)
	if len(queries) == 0 {
		return m, nil
	}
	plan := merge.BuildSharedPlan(queries)
	sp := obs.StartSpan(s.Context(), "scan")
	var (
		res map[int]merge.Result
		st  sqldb.ScanStats
		err error
	)
	obs.Do(s.Context(), "scan", func(ctx context.Context) {
		res, st, err = plan.Execute(s.DB, sampleRate, s.SampleSeed)
	})
	if err != nil {
		sp.SetErr(err).End()
		return m, fmt.Errorf("progressive: executing multiplot queries: %w", err)
	}
	effRate := 1.0
	if sampleRate > 0 && sampleRate < 1 {
		effRate = sampleRate
	}
	recordScanStats(s, sp, st, effRate)
	sp.End()
	return applyResults(m, pos, res, effRate < 1), nil
}

// fillValuesSketch answers the multiplot entirely from precomputed
// aggregate sketches — no table pass at steady state. ok is false when
// any displayed candidate cannot be sketched; the caller then falls back
// to a real (sampled or exact) scan.
func fillValuesSketch(s *Session, m core.Multiplot) (core.Multiplot, bool) {
	if err := s.Context().Err(); err != nil {
		return m, false
	}
	queries, pos := displayedQueries(s, m)
	if len(queries) == 0 {
		return m, false
	}
	plan := merge.BuildSharedPlan(queries)
	sp := obs.StartSpan(s.Context(), "scan").SetBool("sketch", true)
	var (
		res map[int]merge.Result
		st  sqldb.ScanStats
		ok  bool
	)
	obs.Do(s.Context(), "scan", func(ctx context.Context) {
		res, st, ok = plan.ExecuteSketch(s.DB)
	})
	if !ok {
		sp.SetBool("noop", true).End()
		return m, false
	}
	recordScanStats(s, sp, st, s.DB.SketchRate())
	sp.End()
	return applyResults(m, pos, res, true), true
}

// finishTrace derives FTime/TTime/Updates/InitialRelError from events.
func finishTrace(s *Session, events []Event) *Trace {
	tr := &Trace{Events: events, Scan: s.scanStats}
	if len(events) == 0 {
		return tr
	}
	tr.TTime = events[len(events)-1].At
	tr.Updates = len(events) - 1
	if s.Correct >= 0 {
		for _, ev := range events {
			if visibleIn(ev.Multiplot, s.Correct) {
				tr.FTime = ev.At
				break
			}
		}
	}
	tr.InitialRelError = relError(events[0].Multiplot, events[len(events)-1].Multiplot)
	return tr
}

// visibleIn reports whether candidate qi's result is shown with a value.
func visibleIn(m core.Multiplot, qi int) bool {
	for _, row := range m.Rows {
		for _, pl := range row {
			for _, e := range pl.Entries {
				if e.Query == qi && !math.IsNaN(e.Value) {
					return true
				}
			}
		}
	}
	return false
}

// relError is the mean relative error of bar values in `first` against the
// same bars in `final`. Bars absent from the first visualization do not
// contribute (the metric follows Figure 10: error "of the initial
// visualization").
func relError(first, final core.Multiplot) float64 {
	finalVal := make(map[int]float64)
	for _, row := range final.Rows {
		for _, pl := range row {
			for _, e := range pl.Entries {
				if !math.IsNaN(e.Value) {
					finalVal[e.Query] = e.Value
				}
			}
		}
	}
	var sum float64
	var n int
	for _, row := range first.Rows {
		for _, pl := range row {
			for _, e := range pl.Entries {
				exact, ok := finalVal[e.Query]
				if !ok || math.IsNaN(e.Value) {
					continue
				}
				denom := math.Abs(exact)
				if denom < 1 {
					denom = 1
				}
				sum += math.Abs(e.Value-exact) / denom
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Default is the baseline presentation: plan with the given solver, run
// all queries (merged), show one final multiplot. With a GreedySolver this
// is the paper's "Greedy" method; with a processing-cost-aware ILP it is
// "ILP".
type Default struct {
	planner planner
	name    string
}

// NewGreedyDefault builds the paper's "Greedy" method.
func NewGreedyDefault() *Default {
	return &Default{name: "Greedy", planner: greedy}
}

// NewILPDefault builds the paper's "ILP" method: default presentation with
// ILP optimization that integrates processing cost into the objective.
func NewILPDefault(timeout time.Duration) *Default {
	return NewILPWarm(timeout, nil)
}

// NewILPWarm builds the "ILP" method with an optional prior-multiplot
// warm-start hint (the previous utterance's answer in a voice session);
// a nil hint is NewILPDefault. The greedy seed stays on either way, so
// a stale or disjoint hint never makes the answer worse than greedy.
func NewILPWarm(timeout time.Duration, hint *core.Multiplot) *Default {
	return &Default{name: "ILP", planner: func(ctx context.Context, in *core.Instance) (core.Multiplot, core.Stats, error) {
		s := &core.ILPSolver{Timeout: timeout, WarmStart: true, Hint: hint, Ctx: ctx}
		return s.Solve(in)
	}}
}

// Name identifies the method.
func (d *Default) Name() string { return d.name }

// Present runs the default strategy.
func (d *Default) Present(s *Session) (*Trace, error) {
	start := time.Now()
	m, st, err := plan(s, d.name, d.planner)
	if err != nil {
		return nil, err
	}
	var events []Event
	// Sketch-first: when the DB keeps aggregate sketches and every
	// displayed candidate resolves from one, paint an instant
	// approximate multiplot before the exact fill touches the table.
	if sk := s.DB.SketchRate(); sk > 0 {
		usp := updateSpan(s, 0, sk).SetBool("sketch", true)
		if skm, ok := fillValuesSketch(s, m); ok {
			usp.End()
			events = append(events, Event{At: time.Since(start), Multiplot: skm, Approximate: true})
		} else {
			usp.SetBool("noop", true).End()
		}
	}
	usp := updateSpan(s, len(events), 1)
	filled, err := fillValues(s, m, 0)
	if err != nil {
		usp.SetErr(err).End()
		return nil, err
	}
	usp.End()
	events = append(events, Event{At: time.Since(start), Multiplot: filled})
	tr := finishTrace(s, events)
	tr.SampleRate = 1
	tr.Solver = st
	if st.Optimal {
		tr.EarlyStop = "optimal"
	}
	return tr, nil
}

// IncPlot is incremental plotting: "generates single plots sequentially.
// After each newly generated plot, the visualization is updated." Plots
// are generated in decreasing order of covered probability so the likely
// results appear first.
type IncPlot struct{}

// Name identifies the method.
func (IncPlot) Name() string { return "Inc-Plot" }

// Present runs incremental plotting.
func (IncPlot) Present(s *Session) (*Trace, error) {
	start := time.Now()
	m, _, err := plan(s, "Greedy", greedy)
	if err != nil {
		return nil, err
	}
	// Order plots by covered probability mass.
	type ref struct {
		row, idx int
		mass     float64
	}
	var refs []ref
	for ri, row := range m.Rows {
		for pi, pl := range row {
			mass := 0.0
			for _, e := range pl.Entries {
				mass += s.Instance.Candidates[e.Query].Prob
			}
			refs = append(refs, ref{row: ri, idx: pi, mass: mass})
		}
	}
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j].mass > refs[j-1].mass; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
	shown := core.Multiplot{Rows: make([][]core.Plot, len(m.Rows))}
	var events []Event
	for ui, rf := range refs {
		pl := m.Rows[rf.row][rf.idx]
		one := core.Multiplot{Rows: [][]core.Plot{{pl}}}
		usp := updateSpan(s, ui, 1)
		filled, err := fillValues(s, one, 0)
		if err != nil {
			usp.SetErr(err).End()
			return nil, err
		}
		usp.End()
		shown.Rows[rf.row] = append(shown.Rows[rf.row], filled.Rows[0][0])
		snapshot := core.Multiplot{}
		for _, r := range shown.Rows {
			if len(r) > 0 {
				snapshot.Rows = append(snapshot.Rows, append([]core.Plot(nil), r...))
			}
		}
		events = append(events, Event{At: time.Since(start), Multiplot: snapshot})
	}
	if len(events) == 0 {
		events = []Event{{At: time.Since(start)}}
	}
	tr := finishTrace(s, events)
	tr.SampleRate = 1
	return tr, nil
}

// Approx presents an approximate multiplot computed on a data sample
// first, then replaces it with the exact one ("while users consider the
// approximate visualization, processing continues in the background on the
// full data set").
type Approx struct {
	// Rate is the fixed sample rate (e.g. 0.01 for App-1%); when 0 the
	// rate is chosen dynamically per TargetCost (App-D).
	Rate float64
	// TargetCost is the optimizer-cost budget App-D aims the sampled pass
	// at (cost units; see sqldb's cost model).
	TargetCost float64
	name       string
}

// NewApprox builds App-<rate> (paper: App-1%%, App-5%%).
func NewApprox(rate float64) *Approx {
	return &Approx{Rate: rate, name: fmt.Sprintf("App-%g%%", rate*100)}
}

// NewApproxDynamic builds App-D, which "dynamically estimates the sample
// size to use in order to meet the current interactivity threshold".
func NewApproxDynamic(targetCost float64) *Approx {
	return &Approx{TargetCost: targetCost, name: "App-D"}
}

// Name identifies the method.
func (a *Approx) Name() string { return a.name }

// Present runs approximate-first presentation.
func (a *Approx) Present(s *Session) (*Trace, error) {
	start := time.Now()
	m, _, err := plan(s, "Greedy", greedy)
	if err != nil {
		return nil, err
	}
	rate := a.Rate
	if rate <= 0 {
		rate = a.dynamicRate(s, m)
	}
	var events []Event
	if rate < 1 {
		// Sketch-first: when every displayed candidate resolves from a
		// precomputed aggregate sketch, the first paint costs no table
		// pass at all; otherwise fall back to the sampled shared scan.
		if sk := s.DB.SketchRate(); sk > 0 {
			usp := updateSpan(s, 0, sk).SetBool("sketch", true)
			if skm, ok := fillValuesSketch(s, m); ok {
				usp.End()
				events = append(events, Event{At: time.Since(start), Multiplot: skm, Approximate: true})
				rate = sk // the first paint's effective rate
			} else {
				usp.SetBool("noop", true).End()
			}
		}
		if len(events) == 0 {
			usp := updateSpan(s, 0, rate)
			approxM, err := fillValues(s, m, rate)
			if err != nil {
				usp.SetErr(err).End()
				return nil, err
			}
			usp.End()
			events = append(events, Event{At: time.Since(start), Multiplot: approxM, Approximate: true})
		}
	}
	usp := updateSpan(s, len(events), 1)
	exact, err := fillValues(s, m, 0)
	if err != nil {
		usp.SetErr(err).End()
		return nil, err
	}
	usp.End()
	events = append(events, Event{At: time.Since(start), Multiplot: exact})
	tr := finishTrace(s, events)
	tr.SampleRate = rate
	return tr, nil
}

// dynamicRate picks the largest sample rate whose estimated cost fits the
// target budget.
func (a *Approx) dynamicRate(s *Session, m core.Multiplot) float64 {
	target := a.TargetCost
	if target <= 0 {
		target = 2000
	}
	// Estimate full cost of the displayed queries via the merge plan.
	queries, _ := displayedQueries(s, m)
	if len(queries) == 0 {
		return 1
	}
	plan := merge.BuildPlan(s.DB, queries)
	full, err := plan.EstimatedCost(s.DB)
	if err != nil || full <= 0 {
		return 1
	}
	rate := target / full
	if rate >= 1 {
		return 1
	}
	if rate < 0.001 {
		rate = 0.001
	}
	return rate
}

// ILPInc wraps incremental ILP optimization (Section 5.4) as a
// presentation method: each improved multiplot is executed and shown,
// which "implies repeated processing" (the paper's explanation for its
// overhead on large data).
type ILPInc struct {
	// Budget bounds total optimization time (default 1s).
	Budget time.Duration
	// Hint, when non-nil, warm-starts the first sequence with a prior
	// multiplot (see core.IncrementalILP.Hint).
	Hint *core.Multiplot
}

// Name identifies the method.
func (ILPInc) Name() string { return "ILP-Inc" }

// Present runs incremental optimization with per-update execution.
func (i ILPInc) Present(s *Session) (*Trace, error) {
	start := time.Now()
	budget := i.Budget
	if budget <= 0 {
		budget = time.Second
	}
	inc := core.DefaultIncremental(budget)
	inc.Hint = i.Hint
	var events []Event
	// The solver span covers the full incremental run, interleaved
	// query execution included: that is what the user actually waits
	// for. An execution failure fails the run like a solver error.
	_, st, err := plan(s, inc.Name(), func(ctx context.Context, in *core.Instance) (core.Multiplot, core.Stats, error) {
		var execErr error
		inc.Ctx = ctx
		m, st, err := inc.Solve(in, func(u core.Update) {
			if execErr != nil {
				return
			}
			// One child span per improved multiplot the user sees; a
			// no-op final update (same multiplot again) ends its span
			// with noop=true and emits no event, keeping non-noop spans
			// 1:1 with events.
			usp := updateSpan(s, len(events), 1).SetBool("final", u.Final)
			filled, ferr := fillValues(s, u.Multiplot, 0)
			if ferr != nil {
				execErr = ferr
				usp.SetErr(ferr).End()
				return
			}
			if u.Final && len(events) > 0 && filled.String() == events[len(events)-1].Multiplot.String() {
				usp.SetBool("noop", true).End()
				return
			}
			events = append(events, Event{At: time.Since(start), Multiplot: filled})
			usp.End()
		})
		if err == nil {
			err = execErr
		}
		return m, st, err
	})
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		events = []Event{{At: time.Since(start)}}
	}
	tr := finishTrace(s, events)
	tr.SampleRate = 1
	tr.Solver = st
	switch {
	case st.Optimal:
		tr.EarlyStop = "optimal"
	case s.Ctx != nil && s.Ctx.Err() != nil:
		tr.EarlyStop = "cancelled"
	}
	return tr, nil
}

// StandardMethods returns the method set compared in Figures 9, 11 and 13,
// in paper order: Greedy, ILP, ILP-Inc, Inc-Plot, App-1%, App-5%, App-D.
func StandardMethods() []Method {
	return []Method{
		NewGreedyDefault(),
		NewILPDefault(time.Second),
		ILPInc{Budget: time.Second},
		IncPlot{},
		NewApprox(0.01),
		NewApprox(0.05),
		NewApproxDynamic(2000),
	}
}
