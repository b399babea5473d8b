package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomScanTable builds a table with the column shapes MUVE queries
// touch: three dictionary-encoded string columns — cat (5 codes) and
// region (12), which DB.Register indexes, and store (200 uniform codes),
// which it does not — a small-domain int column and a float column.
func randomScanTable(t testing.TB, rng *rand.Rand, rows int) *Table {
	t.Helper()
	tbl, err := NewTable("sales",
		ColumnDef{Name: "cat", Kind: KindString},
		ColumnDef{Name: "region", Kind: KindString},
		ColumnDef{Name: "store", Kind: KindString},
		ColumnDef{Name: "qty", Kind: KindInt},
		ColumnDef{Name: "price", Kind: KindFloat},
	)
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"apples", "oranges", "bananas", "grapes", "melons"}
	for i := 0; i < rows; i++ {
		err := tbl.AppendRow(
			Str(cats[rng.Intn(len(cats))]),
			Str(fmt.Sprintf("region-%d", rng.Intn(12))),
			Str(fmt.Sprintf("store-%d", rng.Intn(200))),
			Int(int64(rng.Intn(10))),
			Float(math.Round(rng.Float64()*1000)/10),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// randomScanQuery draws a candidate in the shared-scan query class: one
// aggregate, no GROUP BY, 0–3 predicates, so one candidate can mix
// filters on indexed and unindexed columns. Constants are sometimes
// drawn outside the data domain so never-matching predicates are
// exercised.
func randomScanQuery(rng *rand.Rand) Query {
	aggs := []Aggregate{
		{Func: AggCount},
		{Func: AggCount, Col: "qty"},
		{Func: AggSum, Col: "price"},
		{Func: AggSum, Col: "qty"},
		{Func: AggAvg, Col: "price"},
		{Func: AggMin, Col: "price"},
		{Func: AggMax, Col: "qty"},
	}
	q := Query{Aggs: []Aggregate{aggs[rng.Intn(len(aggs))]}, Table: "sales"}
	cats := []string{"apples", "oranges", "bananas", "grapes", "melons", "kiwis"} // kiwis never occurs
	for np := rng.Intn(4); np > 0; np-- {
		switch rng.Intn(6) {
		case 0:
			q.Preds = append(q.Preds, Predicate{Col: "cat", Op: OpEq,
				Values: []Value{Str(cats[rng.Intn(len(cats))])}})
		case 1:
			vals := []Value{}
			for k := rng.Intn(3) + 2; k > 0; k-- {
				vals = append(vals, Str(fmt.Sprintf("region-%d", rng.Intn(15))))
			}
			q.Preds = append(q.Preds, Predicate{Col: "region", Op: OpIn, Values: vals})
		case 2:
			q.Preds = append(q.Preds, Predicate{Col: "store", Op: OpEq,
				Values: []Value{Str(fmt.Sprintf("store-%d", rng.Intn(210)))}})
		case 3:
			vals := []Value{}
			for k := rng.Intn(3) + 2; k > 0; k-- {
				vals = append(vals, Str(fmt.Sprintf("store-%d", rng.Intn(210))))
			}
			q.Preds = append(q.Preds, Predicate{Col: "store", Op: OpIn, Values: vals})
		case 4:
			q.Preds = append(q.Preds, Predicate{Col: "qty", Op: OpEq,
				Values: []Value{Int(int64(rng.Intn(12)))}})
		default:
			q.Preds = append(q.Preds, Predicate{Col: "price", Op: OpEq,
				Values: []Value{Float(math.Round(rng.Float64()*1000) / 10)}})
		}
	}
	return q
}

// sameValue demands bit-level agreement: Null matches only Null, and
// numeric results must have identical float64 bit patterns.
func sameValue(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
}

// TestSharedScanBitIdentical is the core correctness property of the
// shared-scan executor: for random tables and random candidate sets,
// every aggregate must be bit-identical to running each query alone
// through the row-at-a-time path — exact and sampled.
func TestSharedScanBitIdentical(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			rows := rng.Intn(3000)
			db := NewDB()
			db.Register(randomScanTable(t, rng, rows))

			nq := rng.Intn(24) + 1
			queries := make([]Query, nq)
			for i := range queries {
				queries[i] = randomScanQuery(rng)
			}

			// Exact: shared scan vs one Exec per query.
			shared, stats, err := db.ExecSharedResults(queries)
			if err != nil {
				t.Fatalf("ExecSharedResults: %v", err)
			}
			if stats.Scans != 1 || stats.Candidates != int64(nq) {
				t.Fatalf("stats = %+v, want 1 scan over %d candidates", stats, nq)
			}
			for i, q := range queries {
				res, err := db.Exec(q)
				if err != nil {
					t.Fatalf("Exec(%s): %v", q.SQL(), err)
				}
				want := res.Rows[0][0]
				if got := shared[i].Rows[0][0]; !sameValue(got, want) {
					t.Fatalf("exact mismatch on %s: shared=%v rowwise=%v", q.SQL(), got, want)
				}
			}

			// Sampled: same property under deterministic sampling.
			rate := 0.05 + rng.Float64()*0.9
			seed := rng.Uint64()
			sharedS, _, err := db.ExecSharedResultsSampled(queries, rate, seed)
			if err != nil {
				t.Fatalf("ExecSharedResultsSampled: %v", err)
			}
			for i, q := range queries {
				res, err := db.ExecSampled(q, rate, seed)
				if err != nil {
					t.Fatalf("ExecSampled(%s): %v", q.SQL(), err)
				}
				want := res.Rows[0][0]
				if got := sharedS[i].Rows[0][0]; !sameValue(got, want) {
					t.Fatalf("sampled (rate=%v) mismatch on %s: shared=%v rowwise=%v",
						rate, q.SQL(), got, want)
				}
			}
		})
	}
}

// TestSharedScanDedupsPredicates checks that repeated predicates across
// candidates are compiled and evaluated once.
func TestSharedScanDedupsPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := NewDB()
	db.Register(randomScanTable(t, rng, 500))
	pred := Predicate{Col: "cat", Op: OpEq, Values: []Value{Str("apples")}}
	queries := []Query{
		{Aggs: []Aggregate{{Func: AggCount}}, Table: "sales", Preds: []Predicate{pred}},
		{Aggs: []Aggregate{{Func: AggSum, Col: "price"}}, Table: "sales", Preds: []Predicate{pred}},
		{Aggs: []Aggregate{{Func: AggAvg, Col: "qty"}}, Table: "sales", Preds: []Predicate{pred}},
	}
	_, stats, err := db.ExecSharedResults(queries)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Predicates != 3 || stats.SharedPredicates != 1 {
		t.Fatalf("stats = %+v, want 3 predicate instances deduplicated to 1", stats)
	}

	// Filters are identified by meaning, not spelling: each group below
	// selects the same rows however it is written, so it shares one
	// bitmap.
	for _, spellings := range [][]Predicate{
		{
			pred,
			{Col: "cat", Op: OpIn, Values: []Value{Str("apples")}},
			{Col: "cat", Op: OpIn, Values: []Value{Str("apples"), Str("apples")}},
			{Col: "cat", Op: OpIn, Values: []Value{Str("apples"), Str("kiwis")}},
		},
		{
			{Col: "qty", Op: OpIn, Values: []Value{Int(4), Int(2)}},
			{Col: "qty", Op: OpIn, Values: []Value{Float(2), Int(4), Float(2.5)}},
		},
		{
			{Col: "price", Op: OpEq, Values: []Value{Float(0)}},
			{Col: "price", Op: OpIn, Values: []Value{Float(math.Copysign(0, -1)), Int(0)}},
		},
	} {
		var queries []Query
		for _, p := range spellings {
			queries = append(queries, Query{Aggs: []Aggregate{{Func: AggCount}}, Table: "sales", Preds: []Predicate{p}})
		}
		got, stats, err := db.ExecSharedResults(queries)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Predicates != int64(len(spellings)) || stats.SharedPredicates != 1 {
			t.Fatalf("%v: stats = %+v, want %d spellings of one predicate deduplicated to 1",
				spellings, stats, len(spellings))
		}
		for i, q := range queries {
			want, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameValue(got[i].Rows[0][0], want.Rows[0][0]) {
				t.Fatalf("%s: shared=%v rowwise=%v", q.SQL(), got[i].Rows[0][0], want.Rows[0][0])
			}
		}
	}
}

// TestSharedScanRejectsMixedTables checks the same-table precondition.
func TestSharedScanRejectsMixedTables(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := NewDB()
	db.Register(randomScanTable(t, rng, 10))
	_, _, err := db.ExecSharedResults([]Query{
		{Aggs: []Aggregate{{Func: AggCount}}, Table: "sales"},
		{Aggs: []Aggregate{{Func: AggCount}}, Table: "other"},
	})
	if err == nil {
		t.Fatal("expected error for queries spanning tables")
	}
}

// TestSketchMatchesSampledQuery: a sketch answer must be bit-identical
// to running the same query through ExecSampled at the sketch rate and
// seed — the sketch is a cache of that computation, not a new estimator.
func TestSketchMatchesSampledQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := NewDB()
	db.Register(randomScanTable(t, rng, 2500))
	db.EnableSketches(0.2)
	cats := []string{"apples", "oranges", "bananas", "grapes", "melons", "kiwis"}
	aggs := []Aggregate{{Func: AggCount}, {Func: AggSum, Col: "price"}, {Func: AggAvg, Col: "qty"}}
	builds := int64(0)
	for _, a := range aggs {
		for _, cat := range cats {
			q := Query{Aggs: []Aggregate{a}, Table: "sales",
				Preds: []Predicate{{Col: "cat", Op: OpEq, Values: []Value{Str(cat)}}}}
			got, stats, ok := db.SketchLookup(q)
			if !ok {
				t.Fatalf("SketchLookup(%s) not ok", q.SQL())
			}
			builds += stats.SketchBuilds
			res, err := db.ExecSampled(q, 0.2, sketchSeed)
			if err != nil {
				t.Fatal(err)
			}
			if want := res.Rows[0][0]; !sameValue(got, want) {
				t.Fatalf("sketch mismatch on %s: sketch=%v sampled=%v", q.SQL(), got, want)
			}
		}
	}
	// One build per aggregate template, shared across all constants.
	if builds != int64(len(aggs)) {
		t.Fatalf("got %d sketch builds, want %d (one per template)", builds, len(aggs))
	}
}

// TestSketchErrorBound: sketch first-paint estimates of COUNT and SUM
// must land within a loose relative-error bound of the exact answer on
// well-populated groups — the property the progressive first paint
// relies on for a useful approximate plot.
func TestSketchErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := NewDB()
	db.Register(randomScanTable(t, rng, 20000))
	db.EnableSketches(0.2)
	for _, cat := range []string{"apples", "oranges", "bananas", "grapes", "melons"} {
		for _, a := range []Aggregate{{Func: AggCount}, {Func: AggSum, Col: "price"}} {
			q := Query{Aggs: []Aggregate{a}, Table: "sales",
				Preds: []Predicate{{Col: "cat", Op: OpEq, Values: []Value{Str(cat)}}}}
			approx, _, ok := db.SketchLookup(q)
			if !ok {
				t.Fatalf("SketchLookup(%s) not ok", q.SQL())
			}
			res, err := db.Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			exact := res.Rows[0][0]
			relErr := math.Abs(approx.AsFloat()-exact.AsFloat()) / math.Abs(exact.AsFloat())
			// ~4000 sampled rows per group at rate 0.2; 20% is far
			// beyond any plausible sampling deviation and still tight
			// enough to catch scaling bugs (a missing 1/rate is 400%).
			if relErr > 0.20 {
				t.Fatalf("%s: sketch=%v exact=%v relative error %.3f > 0.20",
					q.SQL(), approx, exact, relErr)
			}
		}
	}
}

// TestSketchFollowsReplacedTable: a sketch belongs to the table it was
// built from. Registering a different table under the same name — same
// row count, so nothing about its size tells them apart — must rebuild
// on the next lookup, and the answer must be the new table's sampled
// answer. Between the two, repeat lookups are cache hits, and grouped
// lookups never alias sketch-owned rows (mutating a returned result
// must not corrupt the cache).
func TestSketchFollowsReplacedTable(t *testing.T) {
	scalar := Query{Aggs: []Aggregate{{Func: AggSum, Col: "price"}}, Table: "sales",
		Preds: []Predicate{{Col: "cat", Op: OpEq, Values: []Value{Str("apples")}}}}
	grouped := Query{Aggs: []Aggregate{{Func: AggCount}}, Table: "sales", GroupBy: []string{"region"},
		Preds: []Predicate{{Col: "cat", Op: OpEq, Values: []Value{Str("apples")}}}}
	db := NewDB()
	db.EnableSketches(0.5)
	for i, seed := range []int64{11, 12} {
		db.Register(randomScanTable(t, rand.New(rand.NewSource(seed)), 300))

		got, stats, ok := db.SketchLookup(scalar)
		if !ok || stats.SketchBuilds != 1 {
			t.Fatalf("table %d: first scalar lookup ok=%v stats=%+v, want one build", i, ok, stats)
		}
		want, err := db.ExecSampled(scalar, 0.5, sketchSeed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValue(got, want.Rows[0][0]) {
			t.Fatalf("table %d: sketch=%v, sampled query on the registered table=%v", i, got, want.Rows[0][0])
		}
		if _, stats, _ = db.SketchLookup(scalar); stats.SketchBuilds != 0 {
			t.Fatalf("table %d: repeat scalar lookup rebuilt: %+v", i, stats)
		}

		first, stats, ok := db.SketchLookupResult(grouped)
		if !ok || stats.SketchBuilds != 1 {
			t.Fatalf("table %d: first grouped lookup ok=%v stats=%+v, want one build", i, ok, stats)
		}
		wantRes, err := db.ExecSampled(grouped, 0.5, sketchSeed)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResultBits(first, wantRes); diff != "" {
			t.Fatalf("table %d: grouped sketch vs sampled query: %s", i, diff)
		}
		if len(first.Rows) > 0 {
			first.Rows[0][1] = Float(-1) // must not leak into the cache
		}
		second, stats, _ := db.SketchLookupResult(grouped)
		if stats.SketchBuilds != 0 {
			t.Fatalf("table %d: repeat grouped lookup rebuilt: %+v", i, stats)
		}
		if len(second.Rows) > 0 && second.Rows[0][1].AsFloat() == -1 {
			t.Fatal("sketch cache aliases returned rows")
		}
	}
}

// randomGroupedScanQuery draws a candidate from the generalized
// shared-scan query class: 1–3 aggregates, optionally grouped by a
// single dictionary column (the dense accumulator path), an int column
// or a composite key (the hashed fallback). Predicates reuse
// randomScanQuery's never-matching constants so empty groups and empty
// results are exercised.
func randomGroupedScanQuery(rng *rand.Rand) Query {
	q := randomScanQuery(rng)
	extras := []Aggregate{
		{Func: AggCount},
		{Func: AggSum, Col: "price"},
		{Func: AggAvg, Col: "qty"},
		{Func: AggMin, Col: "qty"},
		{Func: AggMax, Col: "price"},
	}
	for n := rng.Intn(3); n > 0; n-- {
		q.Aggs = append(q.Aggs, extras[rng.Intn(len(extras))])
	}
	switch rng.Intn(5) {
	case 0: // ungrouped — multi-aggregate scalar rows still ride along
	case 1:
		q.GroupBy = []string{"cat"} // low-cardinality dictionary codes
	case 2:
		q.GroupBy = []string{"region"} // higher-cardinality dictionary codes
	case 3:
		q.GroupBy = []string{"qty"} // int key: hashed fallback
	default:
		q.GroupBy = []string{"cat", "qty"} // composite key: hashed fallback
	}
	return q
}

// sameResultBits demands bit-level agreement on full result shapes:
// identical columns, row counts, row order, group keys, and float64 bit
// patterns for every aggregate cell.
func sameResultBits(a, b Result) string {
	if len(a.Cols) != len(b.Cols) {
		return fmt.Sprintf("cols %v vs %v", a.Cols, b.Cols)
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return fmt.Sprintf("col %d: %q vs %q", i, a.Cols[i], b.Cols[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Sprintf("row %d width %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if av.K != bv.K || av.S != bv.S || av.I != bv.I ||
				math.Float64bits(av.F) != math.Float64bits(bv.F) {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, av, bv)
			}
		}
	}
	return ""
}

// TestSharedScanGroupedBitIdentical extends the core shared-scan
// property to the full query class: random mixes of grouped,
// composite-key and multi-aggregate candidates must come back
// bit-identical — including group order — to executing each query alone,
// exact and sampled.
func TestSharedScanGroupedBitIdentical(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(5000 + trial)))
			rows := rng.Intn(3000)
			db := NewDB()
			db.Register(randomScanTable(t, rng, rows))

			nq := rng.Intn(24) + 1
			queries := make([]Query, nq)
			var wantAggs int64
			for i := range queries {
				queries[i] = randomGroupedScanQuery(rng)
				wantAggs += int64(len(queries[i].Aggs))
			}

			shared, stats, err := db.ExecSharedResults(queries)
			if err != nil {
				t.Fatalf("ExecSharedResults: %v", err)
			}
			if stats.Scans != 1 || stats.Candidates != int64(nq) {
				t.Fatalf("stats = %+v, want 1 scan over %d candidates", stats, nq)
			}
			if stats.Aggregates != wantAggs {
				t.Fatalf("stats.Aggregates = %d, want %d", stats.Aggregates, wantAggs)
			}
			var wantGroups int64
			for i, q := range queries {
				res, err := db.Exec(q)
				if err != nil {
					t.Fatalf("Exec(%s): %v", q.SQL(), err)
				}
				if len(q.GroupBy) > 0 {
					wantGroups += int64(len(res.Rows))
				}
				if diff := sameResultBits(shared[i], res); diff != "" {
					t.Fatalf("exact mismatch on %s: %s", q.SQL(), diff)
				}
			}
			if stats.Groups != wantGroups {
				t.Fatalf("stats.Groups = %d, want %d", stats.Groups, wantGroups)
			}

			rate := 0.05 + rng.Float64()*0.9
			seed := rng.Uint64()
			sharedS, _, err := db.ExecSharedResultsSampled(queries, rate, seed)
			if err != nil {
				t.Fatalf("ExecSharedResultsSampled: %v", err)
			}
			for i, q := range queries {
				res, err := db.ExecSampled(q, rate, seed)
				if err != nil {
					t.Fatalf("ExecSampled(%s): %v", q.SQL(), err)
				}
				if diff := sameResultBits(sharedS[i], res); diff != "" {
					t.Fatalf("sampled (rate=%v) mismatch on %s: %s", rate, q.SQL(), diff)
				}
			}
		})
	}
}

// TestGroupedSketchMatchesSampledQuery: a grouped sketch answer must be
// bit-identical — rows, order, and float bits — to ExecSampled at the
// sketch rate and seed, with one build covering every constant of the
// template, and absent constants answering with zero rows.
func TestGroupedSketchMatchesSampledQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := NewDB()
	db.Register(randomScanTable(t, rng, 2500))
	db.EnableSketches(0.2)
	cats := []string{"apples", "oranges", "bananas", "grapes", "melons", "kiwis"}
	aggs := []Aggregate{{Func: AggCount}, {Func: AggSum, Col: "price"}, {Func: AggAvg, Col: "qty"}}
	builds := int64(0)
	for _, a := range aggs {
		for _, cat := range cats {
			q := Query{Aggs: []Aggregate{a}, Table: "sales", GroupBy: []string{"region"},
				Preds: []Predicate{{Col: "cat", Op: OpEq, Values: []Value{Str(cat)}}}}
			got, stats, ok := db.SketchLookupResult(q)
			if !ok {
				t.Fatalf("SketchLookupResult(%s) not ok", q.SQL())
			}
			builds += stats.SketchBuilds
			want, err := db.ExecSampled(q, 0.2, sketchSeed)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameResultBits(got, want); diff != "" {
				t.Fatalf("grouped sketch mismatch on %s: %s", q.SQL(), diff)
			}
			if cat == "kiwis" && len(got.Rows) != 0 {
				t.Fatalf("absent constant returned %d rows", len(got.Rows))
			}
		}
	}
	// One build per (aggregate, group column) template, shared across
	// constants — the property that makes trend first paints free.
	if builds != int64(len(aggs)) {
		t.Fatalf("got %d sketch builds, want %d (one per template)", builds, len(aggs))
	}
	// Scalar lookups must still refuse grouped queries.
	q := Query{Aggs: []Aggregate{{Func: AggCount}}, Table: "sales", GroupBy: []string{"region"},
		Preds: []Predicate{{Col: "cat", Op: OpEq, Values: []Value{Str("apples")}}}}
	if _, _, ok := db.SketchLookup(q); ok {
		t.Fatal("scalar SketchLookup answered a grouped query")
	}
}
