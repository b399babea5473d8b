package speak

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"muve/internal/core"
	"muve/internal/merge"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
	"muve/internal/workload"
)

// missingValue matches no row of any generated table, so a candidate
// filtering on it has an empty selection.
const missingValue = "Nowhere At All"

// renderInstance draws a random candidate set over tbl: one or two
// templates, each an aggregate over a string column's values (sometimes
// under a fixed second predicate), and sometimes a value no row has.
func renderInstance(rng *rand.Rand, tbl *sqldb.Table) *core.Instance {
	var strs, nums []*sqldb.Column
	for _, c := range tbl.Columns() {
		if c.Kind == sqldb.KindString {
			strs = append(strs, c)
		} else {
			nums = append(nums, c)
		}
	}
	var cands []core.Candidate
	total := 0.0
	add := func(sql string, p float64) {
		cands = append(cands, core.Candidate{Query: q(sql), Prob: p})
		total += p
	}
	for t, n := 0, 1+rng.Intn(2); t < n; t++ {
		num := nums[rng.Intn(len(nums))].Name
		agg := []string{"count(*)", "sum(" + num + ")", "avg(" + num + ")", "max(" + num + ")"}[rng.Intn(4)]
		col := strs[rng.Intn(len(strs))]
		where := ""
		if other := strs[rng.Intn(len(strs))]; other != col && rng.Intn(3) == 0 {
			vals := other.DistinctStrings()
			where = fmt.Sprintf(" AND %s = '%s'", other.Name, vals[rng.Intn(len(vals))])
		}
		vals := col.DistinctStrings()
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		vals = vals[:min(len(vals), 2+rng.Intn(3))]
		if rng.Intn(2) == 0 {
			// The empty selection is often the likeliest reading, so the
			// planners speak it directly.
			add(fmt.Sprintf("SELECT %s FROM %s WHERE %s = '%s'%s", agg, tbl.Name, col.Name, missingValue, where),
				1+rng.Float64())
		}
		for _, v := range vals {
			add(fmt.Sprintf("SELECT %s FROM %s WHERE %s = '%s'%s", agg, tbl.Name, col.Name, v, where), rng.Float64())
		}
	}
	for i := range cands {
		cands[i].Prob /= total * 1.02
	}
	return &core.Instance{Candidates: cands, Screen: core.DefaultScreen(), Model: usermodel.DefaultModel()}
}

// TestRenderMatchesRowAtATimeOracle renders seeded fact sets over DOB and
// NYC311 with both planners and checks that the transcript, its word
// count and its objective equal what phrase produces from values the
// row-at-a-time executor computes for every candidate separately.
func TestRenderMatchesRowAtATimeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	emptyCount, emptySumAvg := 0, 0
	for _, d := range []workload.Dataset{workload.DOB, workload.NYC311} {
		tbl, err := workload.Build(d, 3000, 5)
		if err != nil {
			t.Fatal(err)
		}
		db := sqldb.NewDB()
		db.Register(tbl)
		for i := 0; i < 40; i++ {
			in := renderInstance(rng, tbl)
			queries := make([]sqldb.Query, len(in.Candidates))
			for qi, c := range in.Candidates {
				queries[qi] = c.Query
			}
			oracle, err := merge.ExecuteSeparately(db, queries)
			if err != nil {
				t.Fatal(err)
			}
			for _, planner := range []interface {
				Solve(*core.Instance) (FactSet, core.Stats, error)
			}{
				&Greedy{},
				&Planner{Timeout: 50 * time.Millisecond, WarmStart: true},
			} {
				fs, _, err := planner.Solve(in)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s #%d %T", d, i, planner)
				va, err := Render(db, in, fs, CostModel{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var sentences []string
				for _, f := range fs.Facts {
					s := phrase(in, f, oracle)
					sentences = append(sentences, s)
					if f.Kind != FactValue || !strings.Contains(in.Candidates[f.Covers[0]].Query.SQL(), missingValue) {
						continue
					}
					switch fn := in.Candidates[f.Covers[0]].Query.Aggs[0].Func; fn {
					case sqldb.AggCount:
						emptyCount++
						if !strings.HasSuffix(s, " is 0.") {
							t.Errorf("%s: empty COUNT spoken as %q", name, s)
						}
					case sqldb.AggSum, sqldb.AggAvg:
						emptySumAvg++
						if !strings.HasSuffix(s, " has no result.") {
							t.Errorf("%s: empty %v spoken as %q", name, fn, s)
						}
					}
				}
				want := strings.Join(sentences, " ")
				if va.Transcript != want {
					t.Errorf("%s: transcript\n  %q\noracle\n  %q", name, va.Transcript, want)
				}
				if va.Words != len(strings.Fields(want)) {
					t.Errorf("%s: %d words, oracle %d", name, va.Words, len(strings.Fields(want)))
				}
				if obj := DefaultCost().Cost(in, fs); va.Objective != obj {
					t.Errorf("%s: objective %v, oracle %v", name, va.Objective, obj)
				}
			}
		}
	}
	if emptyCount == 0 || emptySumAvg == 0 {
		t.Errorf("empty selections spoken: %d COUNT, %d SUM/AVG; want both exercised", emptyCount, emptySumAvg)
	}
}
