// Package merge implements MUVE's query merging (paper Section 8.1): the
// candidate queries shown in one multiplot are similar by construction, so
// MUVE "merges queries on the same table with similar predicates. For
// instance, it replaces multiple equality predicates on the same column by
// a corresponding IN condition while adding result columns for each
// aggregate of the merged queries." Merge decisions use the engine's
// optimizer cost model, as the original uses Postgres' estimates.
//
// BuildPlan and Plan.Execute are the §8.1 reproduction path — the
// Figure 7/8 experiments and examples/merging measure them — not a
// serving path: every System answer (plot values, spoken facts, trends)
// executes through BuildSharedPlan and the shared-scan executor, which
// subsumes these rewrites.
package merge

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"muve/internal/core"
	"muve/internal/sqldb"
)

// Result is one candidate query's computed value.
type Result struct {
	// Value is the numeric result; meaningful only when Valid.
	Value float64
	// Valid is false when the query's selection was empty and the
	// aggregate is NULL (SUM/AVG/MIN/MAX over no rows).
	Valid bool
}

// Group is a set of candidate queries answered by one merged query.
type Group struct {
	// Members indexes the planner's candidate list.
	Members []int
	// Merged is the rewritten query (IN + GROUP BY, or multi-aggregate).
	Merged sqldb.Query
	// KeyCol is the GROUP BY column for value-merged groups; empty for
	// aggregate-merged groups.
	KeyCol string
	// keys maps each member to its group-key value (value merge) or its
	// aggregate position (aggregate merge).
	keys []string
	aggs []int
}

// Plan is a complete execution plan for a candidate set.
type Plan struct {
	Groups  []Group
	Singles []int

	queries []sqldb.Query
}

// BuildPlan partitions the given candidate queries into merged groups and
// singletons. Merging happens only when the optimizer estimates the merged
// query to be cheaper than executing the members separately; with a nil
// db, cost checks are skipped and every structural merge is taken.
func BuildPlan(db *sqldb.DB, queries []sqldb.Query) Plan {
	p := Plan{queries: append([]sqldb.Query(nil), queries...)}
	assigned := make([]bool, len(queries))

	// Stage 1: value merges. Bucket by (table, aggregate, varying pred
	// column, remaining preds).
	buckets := make(map[string][]bucketEntry)
	var bucketOrder []string
	for qi, q := range queries {
		if len(q.Aggs) != 1 || len(q.GroupBy) > 0 {
			continue
		}
		for pi, pred := range q.Preds {
			if pred.Op != sqldb.OpEq {
				continue
			}
			key := valueMergeKey(q, pi)
			if _, ok := buckets[key]; !ok {
				bucketOrder = append(bucketOrder, key)
			}
			buckets[key] = append(buckets[key], bucketEntry{qi: qi, predIdx: pi})
		}
	}
	// Prefer larger buckets first (more sharing); deterministic order.
	sort.SliceStable(bucketOrder, func(i, j int) bool {
		a, b := buckets[bucketOrder[i]], buckets[bucketOrder[j]]
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return bucketOrder[i] < bucketOrder[j]
	})
	for _, key := range bucketOrder {
		var entries []bucketEntry
		seenVal := map[string]bool{}
		for _, e := range buckets[key] {
			if assigned[e.qi] {
				continue
			}
			v := queries[e.qi].Preds[e.predIdx].Values[0].String()
			if seenVal[v] {
				continue // identical predicate value: same query twice
			}
			seenVal[v] = true
			entries = append(entries, e)
		}
		if len(entries) < 2 {
			continue
		}
		g := buildValueGroup(queries, entries)
		if db != nil && !mergeBeneficial(db, g, queries) {
			continue
		}
		for _, e := range entries {
			assigned[e.qi] = true
		}
		p.Groups = append(p.Groups, g)
	}

	// Stage 2: aggregate merges among the rest — same table and identical
	// predicates, different aggregates; one scan computes all of them.
	aggBuckets := make(map[string][]int)
	var aggOrder []string
	for qi, q := range queries {
		if assigned[qi] || len(q.Aggs) != 1 || len(q.GroupBy) > 0 {
			continue
		}
		key := predsKey(q, -1) + "|tbl=" + q.Table
		if _, ok := aggBuckets[key]; !ok {
			aggOrder = append(aggOrder, key)
		}
		aggBuckets[key] = append(aggBuckets[key], qi)
	}
	sort.Strings(aggOrder)
	for _, key := range aggOrder {
		members := aggBuckets[key]
		if len(members) < 2 {
			continue
		}
		g := buildAggGroup(queries, members)
		if db != nil && !mergeBeneficial(db, g, queries) {
			continue
		}
		for _, qi := range members {
			assigned[qi] = true
		}
		p.Groups = append(p.Groups, g)
	}

	for qi := range queries {
		if !assigned[qi] {
			p.Singles = append(p.Singles, qi)
		}
	}
	return p
}

// valueMergeKey canonicalizes a query with predicate pi's value abstracted
// away: queries sharing this key merge via IN on that predicate's column.
func valueMergeKey(q sqldb.Query, pi int) string {
	return fmt.Sprintf("tbl=%s|agg=%s|col=%s|%s",
		q.Table, q.Aggs[0].String(), q.Preds[pi].Col, predsKey(q, pi))
}

// predsKey canonically serializes predicates, skipping index `skip`.
func predsKey(q sqldb.Query, skip int) string {
	var parts []string
	for i, p := range q.Preds {
		if i == skip {
			continue
		}
		parts = append(parts, p.String())
	}
	sort.Strings(parts)
	return "preds=" + strings.Join(parts, "&")
}

// bucketEntry locates one mergeable predicate of one query.
type bucketEntry struct {
	qi      int
	predIdx int
}

// buildValueGroup rewrites members into one IN + GROUP BY query.
func buildValueGroup(queries []sqldb.Query, entries []bucketEntry) Group {
	first := queries[entries[0].qi]
	keyCol := first.Preds[entries[0].predIdx].Col
	g := Group{KeyCol: keyCol}
	merged := first.Clone()
	var vals []sqldb.Value
	for _, e := range entries {
		v := queries[e.qi].Preds[e.predIdx].Values[0]
		vals = append(vals, v)
		g.Members = append(g.Members, e.qi)
		g.keys = append(g.keys, v.Display())
	}
	merged.Preds[entries[0].predIdx] = sqldb.Predicate{Col: keyCol, Op: sqldb.OpIn, Values: vals}
	merged.GroupBy = []string{keyCol}
	g.Merged = merged
	return g
}

// buildAggGroup rewrites members into one multi-aggregate query.
func buildAggGroup(queries []sqldb.Query, members []int) Group {
	g := Group{Members: append([]int(nil), members...)}
	merged := queries[members[0]].Clone()
	merged.Aggs = nil
	seen := map[string]int{}
	for _, qi := range members {
		a := queries[qi].Aggs[0]
		pos, ok := seen[a.String()]
		if !ok {
			pos = len(merged.Aggs)
			seen[a.String()] = pos
			merged.Aggs = append(merged.Aggs, a)
		}
		g.aggs = append(g.aggs, pos)
	}
	g.Merged = merged
	return g
}

// mergeBeneficial compares the optimizer's estimate for the merged query
// against the sum of the members' individual estimates.
func mergeBeneficial(db *sqldb.DB, g Group, queries []sqldb.Query) bool {
	mergedEst, err := db.EstimateCost(g.Merged)
	if err != nil {
		return false
	}
	sep := 0.0
	for _, qi := range g.Members {
		est, err := db.EstimateCost(queries[qi])
		if err != nil {
			return false
		}
		sep += est.TotalCost
	}
	return mergedEst.TotalCost < sep
}

// EstimatedCost returns the optimizer's estimate for executing the whole
// plan (merged groups plus singles).
func (p Plan) EstimatedCost(db *sqldb.DB) (float64, error) {
	total := 0.0
	for _, g := range p.Groups {
		est, err := db.EstimateCost(g.Merged)
		if err != nil {
			return 0, err
		}
		total += est.TotalCost
	}
	for _, qi := range p.Singles {
		est, err := db.EstimateCost(p.queries[qi])
		if err != nil {
			return 0, err
		}
		total += est.TotalCost
	}
	return total, nil
}

// Execute runs the plan through the row-at-a-time executor and scatters
// results back to candidate indices. A sampleRate in (0, 1) runs
// everything on the engine's deterministic sample (approximate
// processing); 0 or 1 runs exactly. It reproduces §8.1's merged
// execution for the experiments; answers use SharedPlan.Execute.
func (p Plan) Execute(db *sqldb.DB, sampleRate float64, sampleSeed uint64) (map[int]Result, error) {
	out := make(map[int]Result, len(p.queries))
	run := func(q sqldb.Query) (sqldb.Result, error) {
		if sampleRate > 0 && sampleRate < 1 {
			return db.ExecSampled(q, sampleRate, sampleSeed)
		}
		return db.Exec(q)
	}
	for _, g := range p.Groups {
		res, err := run(g.Merged)
		if err != nil {
			return nil, fmt.Errorf("merge: executing group: %w", err)
		}
		if g.KeyCol != "" {
			byKey := make(map[string]sqldb.Value, len(res.Rows))
			for _, row := range res.Rows {
				byKey[row[0].Display()] = row[1]
			}
			for mi, qi := range g.Members {
				v, ok := byKey[g.keys[mi]]
				if !ok {
					// Group absent: empty selection for that member.
					out[qi] = emptyAggregate(p.queries[qi].Aggs[0])
					continue
				}
				out[qi] = toResult(v)
			}
		} else {
			if len(res.Rows) != 1 {
				return nil, fmt.Errorf("merge: aggregate group returned %d rows", len(res.Rows))
			}
			for mi, qi := range g.Members {
				out[qi] = toResult(res.Rows[0][g.aggs[mi]])
			}
		}
	}
	for _, qi := range p.Singles {
		res, err := run(p.queries[qi])
		if err != nil {
			return nil, fmt.Errorf("merge: executing single query: %w", err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			return nil, fmt.Errorf("merge: single query returned unexpected shape")
		}
		out[qi] = toResult(res.Rows[0][0])
	}
	return out, nil
}

// toResult converts an engine value.
func toResult(v sqldb.Value) Result {
	if v.IsNull() {
		return Result{Value: math.NaN(), Valid: false}
	}
	return Result{Value: v.AsFloat(), Valid: true}
}

// emptyAggregate is the result of an aggregate over an empty selection.
func emptyAggregate(a sqldb.Aggregate) Result {
	if a.Func == sqldb.AggCount {
		return Result{Value: 0, Valid: true}
	}
	return Result{Value: math.NaN(), Valid: false}
}

// ProcessingGroups converts a plan into the planner's processing-group
// form for processing-cost-aware optimization (Section 8.1's ILP
// extension): one group per merged query and per single, each carrying its
// optimizer cost estimate.
func (p Plan) ProcessingGroups(db *sqldb.DB) ([]core.ProcessingGroup, error) {
	var out []core.ProcessingGroup
	for _, g := range p.Groups {
		est, err := db.EstimateCost(g.Merged)
		if err != nil {
			return nil, err
		}
		out = append(out, core.ProcessingGroup{
			Queries: append([]int(nil), g.Members...),
			Cost:    est.TotalCost,
		})
	}
	for _, qi := range p.Singles {
		est, err := db.EstimateCost(p.queries[qi])
		if err != nil {
			return nil, err
		}
		out = append(out, core.ProcessingGroup{Queries: []int{qi}, Cost: est.TotalCost})
	}
	return out, nil
}

// SeparateCost estimates executing every query individually, the baseline
// merging is compared against (Figure 7).
func SeparateCost(db *sqldb.DB, queries []sqldb.Query) (float64, error) {
	total := 0.0
	for _, q := range queries {
		est, err := db.EstimateCost(q)
		if err != nil {
			return 0, err
		}
		total += est.TotalCost
	}
	return total, nil
}

// ExecuteSeparatelyResults runs every query individually and returns
// full Results — the unmerged baseline for candidate sets that include
// grouped or multi-aggregate shapes.
func ExecuteSeparatelyResults(db *sqldb.DB, queries []sqldb.Query) (map[int]sqldb.Result, error) {
	out := make(map[int]sqldb.Result, len(queries))
	for qi, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			return nil, err
		}
		out[qi] = res
	}
	return out, nil
}

// ExecuteSeparately runs every query individually (the unmerged baseline).
func ExecuteSeparately(db *sqldb.DB, queries []sqldb.Query) (map[int]Result, error) {
	out := make(map[int]Result, len(queries))
	for qi, q := range queries {
		res, err := db.Exec(q)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			return nil, fmt.Errorf("merge: query %d returned unexpected shape", qi)
		}
		out[qi] = toResult(res.Rows[0][0])
	}
	return out, nil
}
