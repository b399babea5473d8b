package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// kernelEdgeCases are candidate sets aimed at the shared scan's filter
// paths: single-code equalities on one indexed column (index views) and
// on one wide column (kernels, then one code pass from
// codePassMinFilters filters on), code sets on both (index ORs and
// membership kernels), int equality and IN, float IN, and one-candidate
// plans.
func kernelEdgeCases(tbl *Table) map[string][]Query {
	aggs := []Aggregate{
		{Func: AggCount},
		{Func: AggSum, Col: "price"},
		{Func: AggAvg, Col: "qty"},
		{Func: AggMin, Col: "price"},
		{Func: AggMax, Col: "qty"},
		{Func: AggCount, Col: "region"},
	}
	one := func(i int, preds ...Predicate) Query {
		return Query{Aggs: []Aggregate{aggs[i%len(aggs)]}, Table: "sales", Preds: preds}
	}
	// Alternatives for one constant, as a phonetic candidate set has
	// them: a duplicate code spelled as a one-value IN, a constant absent
	// from the dictionary, then distinct codes.
	ladder := func(col string) []Predicate {
		preds := []Predicate{
			{Col: col, Op: OpEq, Values: []Value{Str(col + "-0")}},
			{Col: col, Op: OpIn, Values: []Value{Str(col + "-0")}},
			{Col: col, Op: OpEq, Values: []Value{Str(col + "-999")}},
		}
		for r := 1; r <= codePassMinFilters+1; r++ {
			preds = append(preds, Predicate{Col: col, Op: OpEq, Values: []Value{Str(fmt.Sprintf("%s-%d", col, r))}})
		}
		return preds
	}
	cases := make(map[string][]Query)
	// A second column's equality rides along, so conjunctions AND an
	// index view with a kernel bitmap, and a one-pass or kernel bitmap
	// with an index view.
	for col, rider := range map[string]Predicate{
		"region": {Col: "store", Op: OpEq, Values: []Value{Str("store-3")}},
		"store":  {Col: "cat", Op: OpEq, Values: []Value{Str("apples")}},
	} {
		preds := ladder(col)
		for k := 2; k <= len(preds); k++ {
			var qs []Query
			for i, p := range preds[:k] {
				qs = append(qs, one(i, p))
			}
			qs = append(qs, one(k, preds[k-1], rider))
			cases[fmt.Sprintf("%s-codes=%d", col, k)] = qs
		}
	}
	sets := []Query{
		one(0, Predicate{Col: "region", Op: OpIn, Values: []Value{Str("region-1"), Str("region-3"), Str("region-999")}}),
		one(1, Predicate{Col: "store", Op: OpIn, Values: []Value{Str("store-1"), Str("store-3"), Str("store-999")}}),
		one(2, Predicate{Col: "region", Op: OpIn, Values: []Value{Str("region-2"), Str("region-4")}},
			Predicate{Col: "store", Op: OpIn, Values: []Value{Str("store-2"), Str("store-4"), Str("store-5")}},
			Predicate{Col: "cat", Op: OpEq, Values: []Value{Str("grapes")}}),
	}
	cases["sets"] = sets
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
	for i, q := range sets {
		cases[fmt.Sprintf("single-set-%d", i)] = []Query{q}
	}
	cases["single-codes"] = []Query{one(1, ladder("region")[3])}
	cases["single-wide-code"] = []Query{one(1, ladder("store")[3])}
	cases["single-nofilter"] = []Query{one(2)}
	return cases
}

// TestSharedScanKernelEdges checks every filter path at every batch and
// word boundary: each candidate set must come back bit-identical to
// row-at-a-time Exec, exact and sampled, at 1–4 workers, on the table
// before and after Register.
func TestSharedScanKernelEdges(t *testing.T) {
	for _, rows := range []int{1, 63, 64, 65, 2047, 2048, 2049, 3*scanBatchRows + 17} {
		for name, queries := range kernelEdgeCases(randomScanTable(t, rand.New(rand.NewSource(int64(rows))), rows)) {
			t.Run(fmt.Sprintf("rows=%d/%s", rows, name), func(t *testing.T) {
				tbl := randomScanTable(t, rand.New(rand.NewSource(int64(rows))), rows)
				checkWorkers(t, tbl, queries, 11, 4, 0.03, 0.37)
			})
		}
	}
}

// BenchmarkCodeFill times filling k single-code filters on one wide
// column — 1.2M rows of 200 uniform codes, flights-sized — batch by
// batch, with one codePass and with one fillEq kernel per filter. The
// filter count where the pass overtakes the kernels sets
// codePassMinFilters.
func BenchmarkCodeFill(b *testing.B) {
	const rows = 1_200_000
	rng := rand.New(rand.NewSource(1))
	col := NewColumn("store", KindString)
	for i := 0; i < rows; i++ {
		if err := col.appendValue(Str(fmt.Sprintf("store-%d", rng.Intn(200)))); err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range []int{1, 2, 3, 4, 6, 8} {
		filters := make([]batchFilter, k)
		fis := make([]int, k)
		for i := range filters {
			filters[i] = batchFilter{shape: shapeCode, col: col, code: int32(i)}
			fis[i] = i
		}
		b.Run(fmt.Sprintf("filters=%d/pass", k), func(b *testing.B) {
			p := newCodePass(col, codeSlots(col, filters, fis), fis, make([]bitmap, k))
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < rows; lo += scanBatchRows {
					p.fill(lo, min(scanBatchRows, rows-lo))
				}
			}
		})
		b.Run(fmt.Sprintf("filters=%d/kernels", k), func(b *testing.B) {
			bm := newBitmap(scanBatchRows)
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < rows; lo += scanBatchRows {
					for fi := range filters {
						filters[fi].fill(bm, lo, min(scanBatchRows, rows-lo))
					}
				}
			}
		})
	}
}
