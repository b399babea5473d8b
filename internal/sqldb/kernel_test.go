package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// kernelEdgeCases are candidate sets aimed at the shared scan's typed
// kernels: single-code equalities on one column (filled in one pass),
// int equality and IN, float IN, and one-candidate plans.
func kernelEdgeCases(tbl *Table) map[string][]Query {
	aggs := []Aggregate{
		{Func: AggCount},
		{Func: AggSum, Col: "price"},
		{Func: AggAvg, Col: "qty"},
		{Func: AggMin, Col: "price"},
		{Func: AggMax, Col: "qty"},
		{Func: AggCount, Col: "region"},
	}
	// Alternatives for one constant, as a phonetic candidate set has
	// them: a duplicate code spelled as a one-value IN, a constant absent
	// from the dictionary, then distinct codes.
	regions := []Predicate{
		{Col: "region", Op: OpEq, Values: []Value{Str("region-0")}},
		{Col: "region", Op: OpIn, Values: []Value{Str("region-0")}},
		{Col: "region", Op: OpEq, Values: []Value{Str("region-99")}},
	}
	for r := 1; r <= 6; r++ {
		regions = append(regions, Predicate{Col: "region", Op: OpEq, Values: []Value{Str(fmt.Sprintf("region-%d", r))}})
	}
	one := func(i int, preds ...Predicate) Query {
		return Query{Aggs: []Aggregate{aggs[i%len(aggs)]}, Table: "sales", Preds: preds}
	}
	cases := make(map[string][]Query)
	for k := 2; k <= len(regions); k++ {
		var qs []Query
		for i, p := range regions[:k] {
			qs = append(qs, one(i, p))
		}
		// A second column's equality rides along, so conjunctions AND a
		// one-pass bitmap with a kernel bitmap.
		qs = append(qs, one(k, regions[k-1], Predicate{Col: "cat", Op: OpEq, Values: []Value{Str("apples")}}))
		cases[fmt.Sprintf("codes=%d", k)] = qs
	}
	price := Float(0)
	if tbl.NumRows() > 0 {
		price = tbl.Column("price").Value(tbl.NumRows() / 2)
	}
	ints := []Query{
		one(0, Predicate{Col: "qty", Op: OpEq, Values: []Value{Int(3)}}),
		one(1, Predicate{Col: "qty", Op: OpEq, Values: []Value{Float(3)}}),
		one(2, Predicate{Col: "qty", Op: OpIn, Values: []Value{Int(1), Int(4), Float(7), Int(4)}}),
		one(3, Predicate{Col: "qty", Op: OpIn, Values: []Value{Int(2), Float(2.5), Int(99)}}),
	}
	floats := []Query{
		one(4, Predicate{Col: "price", Op: OpIn, Values: []Value{price, Float(-1), Int(50)}}),
		one(5, Predicate{Col: "price", Op: OpEq, Values: []Value{price}}),
		one(0, Predicate{Col: "price", Op: OpIn, Values: []Value{Float(-1), Float(-2)}}),
	}
	cases["ints"] = ints
	cases["floats"] = floats
	for i, q := range append(append([]Query{}, ints...), floats...) {
		cases[fmt.Sprintf("single-%d", i)] = []Query{q}
	}
	cases["single-codes"] = []Query{one(1, regions[3])}
	cases["single-nofilter"] = []Query{one(2)}
	return cases
}

// TestSharedScanKernelEdges checks the typed kernels at every batch and
// word boundary: each candidate set must come back bit-identical to
// row-at-a-time Exec, exact and sampled.
func TestSharedScanKernelEdges(t *testing.T) {
	for _, rows := range []int{1, 63, 64, 65, 2047, 2048, 2049, 3*scanBatchRows + 17} {
		rng := rand.New(rand.NewSource(int64(rows)))
		db := NewDB()
		tbl := randomScanTable(t, rng, rows)
		db.Register(tbl)
		for name, queries := range kernelEdgeCases(tbl) {
			shared, stats, err := db.ExecSharedResults(queries)
			if err != nil {
				t.Fatalf("rows=%d %s: %v", rows, name, err)
			}
			if stats.Scans != 1 || stats.Rows != int64(rows) {
				t.Fatalf("rows=%d %s: stats = %+v", rows, name, stats)
			}
			for i, q := range queries {
				want, err := db.Exec(q)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameResultBits(shared[i], want); diff != "" {
					t.Errorf("rows=%d %s: exact mismatch on %s: %s", rows, name, q.SQL(), diff)
				}
			}
			for _, rate := range []float64{0.03, 0.37} {
				sampled, _, err := db.ExecSharedResultsSampled(queries, rate, 11)
				if err != nil {
					t.Fatalf("rows=%d %s sampled: %v", rows, name, err)
				}
				for i, q := range queries {
					want, err := db.ExecSampled(q, rate, 11)
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameResultBits(sampled[i], want); diff != "" {
						t.Errorf("rows=%d %s: sampled (rate=%v) mismatch on %s: %s", rows, name, rate, q.SQL(), diff)
					}
				}
			}
		}
	}
}
