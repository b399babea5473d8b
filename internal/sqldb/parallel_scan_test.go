package sqldb

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"muve/internal/procs"
)

// checkWorkers runs queries through sharedScanWorkers at 1–maxWorkers
// workers, exact and at each rate, first on tbl as given, then once
// DB.Register has indexed it, and fails unless every run is
// bit-identical to the row-at-a-time oracles (Exec, ExecSampled), with
// ScanStats equal to the one-worker run's apart from Workers, which
// must be the goroutines the scan could use. An unregistered tbl thus
// runs its filters through the kernels and code passes, then through
// the index.
func checkWorkers(t testing.TB, tbl *Table, queries []Query, seed uint64, maxWorkers int, rates ...float64) {
	t.Helper()
	rates = append([]float64{0}, rates...)
	oracles := make([][]Result, len(rates))
	for ri, r := range rates {
		oracles[ri] = make([]Result, len(queries))
		for i, q := range queries {
			opts := execOptions{}
			if r != 0 {
				opts = execOptions{sampleRate: r, sampleSeed: seed}
			}
			res, err := execute(tbl, q, opts)
			if err != nil {
				t.Fatalf("oracle %s: %v", q.SQL(), err)
			}
			oracles[ri][i] = res
		}
	}
	for _, register := range []bool{false, true} {
		if register {
			NewDB().Register(tbl)
		}
		for ri, r := range rates {
			var serial ScanStats
			for w := 1; w <= maxWorkers; w++ {
				res, stats, err := sharedScanWorkers(tbl, queries, r, seed, w)
				if err != nil {
					t.Fatalf("registered %v, rate %v, %d workers: %v", register, r, w, err)
				}
				for i, q := range queries {
					if diff := sameResultBits(res[i], oracles[ri][i]); diff != "" {
						t.Fatalf("registered %v, rate %v, %d workers, %s: %s", register, r, w, q.SQL(), diff)
					}
				}
				if stats.Workers < 1 || stats.Workers > int64(min(w, max(numBatches(tbl.NumRows()), 1))) {
					t.Fatalf("rate %v, %d workers over %d rows: stats.Workers = %d", r, w, tbl.NumRows(), stats.Workers)
				}
				stats.Workers = 0
				if w == 1 {
					if stats.Scans != 1 || stats.Rows != int64(tbl.NumRows()) {
						t.Fatalf("rate %v: stats %+v, want one scan over %d rows", r, stats, tbl.NumRows())
					}
					serial = stats
				} else if stats != serial {
					t.Fatalf("registered %v, rate %v, %d workers: stats %+v, want %+v", register, r, w, stats, serial)
				}
			}
		}
	}
}

// TestSharedScanWorkersBitIdentical: the parallel shared scan returns
// the serial scan's results bit for bit at every worker count, around
// every word and batch boundary and with fewer batches than workers,
// over ungrouped, grouped, composite-key and multi-aggregate candidates
// with never-matching, IN-list, string, int and float predicates, on
// indexed and unindexed string columns, before and after Register.
func TestSharedScanWorkersBitIdentical(t *testing.T) {
	for _, rows := range []int{1, 63, 64, 65, 2047, 2048, 2049, 3*scanBatchRows + 5, 37*scanBatchRows + 11} {
		rows := rows
		t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(rows)))
			tbl := randomScanTable(t, rng, rows)
			for trial := 0; trial < 4; trial++ {
				queries := make([]Query, rng.Intn(16)+1)
				for i := range queries {
					queries[i] = randomGroupedScanQuery(rng)
				}
				checkWorkers(t, tbl, queries, rng.Uint64(), 4, 0.05+rng.Float64()*0.9)
			}
		})
	}
}

// TestSharedScanNoHelpers: a scan above the cutoff runs on its caller
// alone when the process-wide budget grants no helper, with the same
// results it returns on several goroutines, and gives its own slot
// back either way.
func TestSharedScanNoHelpers(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(3))
	db := NewDB()
	db.Register(randomScanTable(t, rng, 2*scanBatchesPerWorker*scanBatchRows))
	queries := make([]Query, 12)
	for i := range queries {
		queries[i] = randomGroupedScanQuery(rng)
	}
	base := procs.Running.Load()
	wide, wideStats, err := db.ExecSharedResults(queries)
	if err != nil {
		t.Fatal(err)
	}
	if wideStats.Workers != 2 {
		t.Errorf("with the budget free, Workers = %d, want 2", wideStats.Workers)
	}
	procs.Running.Add(2) // every CPU is taken
	alone, aloneStats, err := db.ExecSharedResults(queries)
	procs.Running.Add(-2)
	if err != nil {
		t.Fatal(err)
	}
	if aloneStats.Workers != 1 {
		t.Errorf("with the budget full, Workers = %d, want 1", aloneStats.Workers)
	}
	for i, q := range queries {
		if diff := sameResultBits(wide[i], alone[i]); diff != "" {
			t.Errorf("%s: %s", q.SQL(), diff)
		}
	}
	if n := procs.Running.Load(); n != base {
		t.Errorf("procs.Running = %d after the scans, want %d", n, base)
	}
}

// FuzzSharedScanWorkers: for any table size, candidate set, sample rate
// and worker count, the parallel shared scan is bit-identical to the
// serial scan and the row-at-a-time oracles, with its string filters
// computed by kernels and code passes and then read from the index.
func FuzzSharedScanWorkers(f *testing.F) {
	f.Add(int64(1), uint16(1), uint8(4), uint8(3), uint8(50))
	f.Add(int64(2), uint16(2049), uint8(3), uint8(8), uint8(10))
	f.Add(int64(3), uint16(3*scanBatchRows+5), uint8(2), uint8(12), uint8(90))
	f.Add(int64(4), uint16(9000), uint8(4), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, workers, nq, ratePct uint8) {
		rng := rand.New(rand.NewSource(seed))
		tbl := randomScanTable(t, rng, int(rows)%(5*scanBatchRows))
		queries := make([]Query, int(nq)%16+1)
		for i := range queries {
			queries[i] = randomGroupedScanQuery(rng)
		}
		rate := float64(ratePct%100+1) / 100
		checkWorkers(t, tbl, queries, rng.Uint64(), int(workers)%4+1, rate)
	})
}

// BenchmarkSharedScanWorkers measures one shared scan over a
// registered table by table size in batches and worker count, for
// eight three-predicate SUMs on indexed columns (the flights-scan
// shape), for one single-predicate COUNT (the lightest scan), and for
// eight single-code SUMs on the wide unindexed column (one code pass);
// the crossover where two workers beat one sets scanBatchesPerWorker.
func BenchmarkSharedScanWorkers(b *testing.B) {
	cats := []string{"apples", "oranges", "bananas", "grapes", "melons", "kiwis", "apples", "oranges"}
	heavy := make([]Query, len(cats))
	wide := make([]Query, len(cats))
	for i, c := range cats {
		heavy[i] = Query{Aggs: []Aggregate{{Func: AggSum, Col: "price"}}, Table: "sales", Preds: []Predicate{
			{Col: "cat", Op: OpEq, Values: []Value{Str(c)}},
			{Col: "region", Op: OpEq, Values: []Value{Str(fmt.Sprintf("region-%d", i))}},
			{Col: "qty", Op: OpEq, Values: []Value{Int(int64(i))}},
		}}
		wide[i] = Query{Aggs: []Aggregate{{Func: AggSum, Col: "price"}}, Table: "sales", Preds: []Predicate{
			{Col: "store", Op: OpEq, Values: []Value{Str(fmt.Sprintf("store-%d", i))}},
		}}
	}
	light := []Query{{Aggs: []Aggregate{{Func: AggCount}}, Table: "sales",
		Preds: []Predicate{{Col: "qty", Op: OpEq, Values: []Value{Int(3)}}}}}
	for _, batches := range []int{8, 16, 24, 32, 64, 256} {
		tbl := randomScanTable(b, rand.New(rand.NewSource(1)), batches*scanBatchRows)
		NewDB().Register(tbl)
		for _, shape := range []struct {
			name    string
			queries []Query
		}{{"heavy", heavy}, {"light", light}, {"wide", wide}} {
			for _, w := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/batches=%d/workers=%d", shape.name, batches, w), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := sharedScanWorkers(tbl, shape.queries, 0, 0, w); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
