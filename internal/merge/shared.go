package merge

import (
	"fmt"

	"muve/internal/obs"
	"muve/internal/sqldb"
)

// The shared-scan plan generalizes query merging past its same-template
// limit. Classic merging (Plan) only batches candidates whose queries
// differ in a single predicate constant or aggregate; any other
// phonetically-similar candidate still pays its own table scan. A
// SharedPlan instead hands EVERY candidate on a table — regardless of
// aggregate function, column, predicate structure, GROUP BY shape, or
// aggregate count — to sqldb's shared-scan executor, which answers all
// of them in one pass. This subsumes the old same-template IN + GROUP
// BY merge path: a value-merged group is just several grouped
// candidates riding the same scan. A lone candidate rides a shared
// scan too: its typed, closure-free filter kernels beat the direct
// row-at-a-time executor even with nothing to share, and it reports
// ScanStats like every other scan.

// ScanGroup is the set of candidates one shared table pass answers.
type ScanGroup struct {
	// Table every member targets.
	Table string
	// Members indexes the planner's candidate list.
	Members []int
}

// SharedPlan assigns candidates to shared scans.
type SharedPlan struct {
	Scans []ScanGroup
	// Singles is always empty: every candidate, a table's only one
	// included, rides a shared scan. It remains for callers that add
	// direct executions to their scan counts.
	Singles []int

	queries []sqldb.Query
}

// BuildSharedPlan partitions candidates into per-table shared scans.
// Unlike BuildPlan there is no cost gate: a shared scan is never more
// expensive than the row-at-a-time alternative, because each distinct
// predicate is evaluated at most once and the table is read once total.
// Any query shape the engine executes — grouped, multi-aggregate, or
// plain scalar — joins its table's scan group, a group of one included.
func BuildSharedPlan(queries []sqldb.Query) SharedPlan {
	p := SharedPlan{queries: append([]sqldb.Query(nil), queries...)}
	byTable := make(map[string]int)
	for qi, q := range queries {
		gi, ok := byTable[q.Table]
		if !ok {
			gi = len(p.Scans)
			byTable[q.Table] = gi
			p.Scans = append(p.Scans, ScanGroup{Table: q.Table})
		}
		p.Scans[gi].Members = append(p.Scans[gi].Members, qi)
	}
	return p
}

// Candidates returns the number of candidate queries the plan covers.
func (p SharedPlan) Candidates() int { return len(p.queries) }

// ExecuteResults runs every scan group through the shared-scan executor,
// scattering full Results back to candidate indices. This is the
// general entry point: grouped and multi-aggregate candidates come back
// with their full row and column shape. A sampleRate in (0, 1) runs
// everything on the engine's deterministic sample; results are
// bit-identical to per-query execution either way.
func (p SharedPlan) ExecuteResults(db *sqldb.DB, sampleRate float64, sampleSeed uint64) (map[int]sqldb.Result, sqldb.ScanStats, error) {
	sampled := sampleRate > 0 && sampleRate < 1
	out := make(map[int]sqldb.Result, len(p.queries))
	var stats sqldb.ScanStats
	for _, g := range p.Scans {
		qs := make([]sqldb.Query, len(g.Members))
		for mi, qi := range g.Members {
			qs[mi] = p.queries[qi]
		}
		var (
			res []sqldb.Result
			st  sqldb.ScanStats
			err error
		)
		if sampled {
			res, st, err = db.ExecSharedResultsSampled(qs, sampleRate, sampleSeed)
		} else {
			res, st, err = db.ExecSharedResults(qs)
		}
		if err != nil {
			return nil, stats, fmt.Errorf("merge: shared scan over %q: %w", g.Table, err)
		}
		stats.Add(st)
		for mi, qi := range g.Members {
			out[qi] = res[mi]
		}
	}
	return out, stats, nil
}

// Execute is the scalar view of ExecuteResults for the multiplot
// candidate class (single ungrouped aggregates): one Result value per
// candidate index. It errors when a candidate's result is not scalar —
// callers with grouped or multi-aggregate candidates use
// ExecuteResults.
func (p SharedPlan) Execute(db *sqldb.DB, sampleRate float64, sampleSeed uint64) (map[int]Result, sqldb.ScanStats, error) {
	full, stats, err := p.ExecuteResults(db, sampleRate, sampleSeed)
	if err != nil {
		return nil, stats, err
	}
	out := make(map[int]Result, len(full))
	for qi, res := range full {
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			return nil, stats, fmt.Errorf("merge: candidate %q is not scalar (%dx%d); use ExecuteResults",
				p.queries[qi].SQL(), len(res.Rows), len(res.Cols))
		}
		out[qi] = toResult(res.Rows[0][0])
	}
	return out, stats, nil
}

// ExecuteSketch answers the whole plan from precomputed aggregate
// sketches, with zero scans at steady state. ok is false — and the map
// nil — unless every candidate resolves from a sketch; the caller then
// falls back to a real scan. Sketch answers equal what a sampled
// execution at the sketch rate would return, so callers treat a hit as
// an approximate first paint at db.SketchRate().
func (p SharedPlan) ExecuteSketch(db *sqldb.DB) (map[int]Result, sqldb.ScanStats, bool) {
	if db.SketchRate() == 0 || len(p.queries) == 0 {
		return nil, sqldb.ScanStats{}, false
	}
	out := make(map[int]Result, len(p.queries))
	var stats sqldb.ScanStats
	lookup := func(qi int) bool {
		v, st, ok := db.SketchLookup(p.queries[qi])
		if !ok {
			return false
		}
		stats.Add(st)
		out[qi] = toResult(v)
		return true
	}
	for _, g := range p.Scans {
		for _, qi := range g.Members {
			if !lookup(qi) {
				return nil, stats, false
			}
		}
	}
	return out, stats, true
}

// AnnotateScan attaches one execution round's shared-scan counters to its
// "scan" span; rate is the sample rate the values were computed at (1
// for exact). Every executor path — multiplot fills, sketch fills and
// voice renders — reports the same attributes through it.
func AnnotateScan(sp *obs.Span, st sqldb.ScanStats, rate float64) {
	sp.SetInt("candidates", st.Candidates).
		SetInt("scans", st.Scans).
		SetInt("rows", st.Rows).
		SetInt("batches", st.Batches).
		SetInt("preds", st.Predicates).
		SetInt("shared_preds", st.SharedPredicates).
		SetFloat("sample_rate", rate)
	if st.Workers > 0 {
		sp.SetInt("workers", st.Workers)
	}
	if st.Aggregates > 0 {
		sp.SetInt("aggs", st.Aggregates)
	}
	if st.Groups > 0 {
		sp.SetInt("groups", st.Groups)
	}
	if st.SketchHits > 0 {
		sp.SetInt("sketch_hits", st.SketchHits).
			SetInt("sketch_builds", st.SketchBuilds)
	}
}
