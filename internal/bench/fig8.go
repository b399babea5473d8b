package bench

import (
	"fmt"
	"io"
	"time"

	"muve/internal/core"
	"muve/internal/merge"
	"muve/internal/nlq"
	"muve/internal/sqldb"
	"muve/internal/stats"
	"muve/internal/workload"
)

// Fig8Point is one (method, bound) cell of Figure 8.
type Fig8Point struct {
	Method string
	// BoundFrac is the processing-cost bound as a fraction of the
	// unbounded plan's cost (0 = no bound / not applicable).
	BoundFrac float64
	// DisambCost is the user-model cost of the chosen multiplots.
	DisambCost stats.CI
	// ProcCost is the estimated execution cost of the displayed queries.
	ProcCost stats.CI
	// OptTime is the optimization time.
	OptTime stats.CI
}

// Fig8Result reproduces Figure 8: trading disambiguation cost against
// processing cost by tightening the ILP's processing-cost constraint
// (Section 9.3; 10 random queries, 900 px resolution), compared to
// ILP(D-Cost) and greedy which ignore processing cost.
type Fig8Result struct {
	Points  []Fig8Point
	Queries int
}

// RunFig8 executes the sweep.
func RunFig8(cfg Config) (*Fig8Result, error) {
	tbl, err := dataset(workload.NYC311, cfg.n(40_000, 2_000), cfg.Seed+311)
	if err != nil {
		return nil, err
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	cat := nlq.BuildCatalog(tbl, 0)
	gen := workload.NewQueryGen(tbl, cfg.rng(8))
	nQueries := cfg.n(10, 3)
	timeout := cfg.d(2*time.Second, 300*time.Millisecond)
	screen := screenWithWidth(900, 1)

	// Build shared instances with processing groups.
	type inst struct {
		in       *core.Instance
		planCost float64 // unbounded merged cost over all candidates
	}
	var instances []inst
	for len(instances) < nQueries {
		q := gen.Random(2)
		in, _, err := candidateSet(cat, q, cfg.n(20, 8), screen)
		if err != nil {
			return nil, err
		}
		queries := make([]sqldb.Query, len(in.Candidates))
		for i, c := range in.Candidates {
			queries[i] = c.Query
		}
		plan := merge.BuildPlan(db, queries)
		groups, err := plan.ProcessingGroups(db)
		if err != nil {
			return nil, err
		}
		in.Groups = groups
		full, err := plan.EstimatedCost(db)
		if err != nil {
			return nil, err
		}
		instances = append(instances, inst{in: in, planCost: full})
	}

	// procCostOf estimates processing cost of the displayed queries.
	procCostOf := func(in *core.Instance, m core.Multiplot) float64 {
		states := m.QueryStates(len(in.Candidates))
		var shown []sqldb.Query
		for qi, st := range states {
			if st != core.StateMissing {
				shown = append(shown, in.Candidates[qi].Query)
			}
		}
		if len(shown) == 0 {
			return 0
		}
		plan := merge.BuildPlan(db, shown)
		c, err := plan.EstimatedCost(db)
		if err != nil {
			return 0
		}
		return c
	}

	res := &Fig8Result{Queries: nQueries}
	type method struct {
		name      string
		boundFrac float64
	}
	methods := []method{{"Greedy", 0}, {"ILP(D-Cost)", 0}}
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	if cfg.Fast {
		fracs = []float64{0.3, 1.0}
	}
	for _, f := range fracs {
		methods = append(methods, method{"ILP(P-Cost)", f})
	}

	for _, m := range methods {
		var dCosts, pCosts, times []float64
		for _, it := range instances {
			// A fresh instance per method, so bounds don't leak across
			// methods.
			variant := func(groups []core.ProcessingGroup, bound float64) *core.Instance {
				return &core.Instance{Candidates: it.in.Candidates, Screen: it.in.Screen, Model: it.in.Model,
					Groups: groups, ProcCostBound: bound, ProcCostWeight: it.in.ProcCostWeight}
			}
			var mp core.Multiplot
			var st core.Stats
			var err error
			switch m.name {
			case "Greedy":
				g := &core.GreedySolver{}
				mp, st, err = g.Solve(variant(nil, 0))
			case "ILP(D-Cost)":
				s := &core.ILPSolver{Timeout: timeout, WarmStart: true}
				mp, st, err = s.Solve(variant(nil, 0))
			default:
				s := &core.ILPSolver{Timeout: timeout, WarmStart: true}
				mp, st, err = s.Solve(variant(it.in.Groups, m.boundFrac*it.planCost))
			}
			if err != nil {
				return nil, fmt.Errorf("bench: fig8 %s: %w", m.name, err)
			}
			// Score with the plain user model so methods are comparable.
			dCosts = append(dCosts, variant(nil, 0).Cost(mp))
			pCosts = append(pCosts, procCostOf(it.in, mp))
			times = append(times, float64(st.Duration.Microseconds())/1000)
		}
		res.Points = append(res.Points, Fig8Point{
			Method:     m.name,
			BoundFrac:  m.boundFrac,
			DisambCost: stats.ConfidenceInterval95(dCosts),
			ProcCost:   stats.ConfidenceInterval95(pCosts),
			OptTime:    stats.ConfidenceInterval95(times),
		})
	}
	return res, nil
}

// Print emits the Figure 8 series.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: disambiguation cost vs processing cost under processing-cost bounds (%d queries)\n\n", r.Queries)
	t := &table{header: []string{"method", "bound (frac of full)", "disamb. cost (ms)", "proc. cost (units)", "opt time (ms)"}}
	for _, p := range r.Points {
		bound := "-"
		if p.BoundFrac > 0 {
			bound = fmt.Sprintf("%.1f", p.BoundFrac)
		}
		t.add(p.Method, bound,
			fmtCI(p.DisambCost.Mean, p.DisambCost.Delta),
			fmtCI(p.ProcCost.Mean, p.ProcCost.Delta),
			fmtCI(p.OptTime.Mean, p.OptTime.Delta))
	}
	t.write(w)
}
