package procs_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"muve/internal/ilp"
	"muve/internal/procs"
	"muve/internal/sqldb"
)

// TestScansAndSolvesShareOneBudget: shared scans and branch-and-bound
// solves running at once never hold more than GOMAXPROCS−1 helpers
// between them, and every helper is back once they return.
func TestScansAndSolvesShareOneBudget(t *testing.T) {
	const cpus = 4
	prev := runtime.GOMAXPROCS(cpus)
	defer runtime.GOMAXPROCS(prev)
	if n := procs.Running.Load(); n != 0 {
		t.Fatalf("procs.Running = %d before the test, want 0", n)
	}

	// 131,072 rows: enough batches for a scan to want every CPU.
	tbl, err := sqldb.NewTable("t",
		sqldb.ColumnDef{Name: "k", Kind: sqldb.KindString},
		sqldb.ColumnDef{Name: "x", Kind: sqldb.KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<17; i++ {
		if err := tbl.AppendRow(sqldb.Str(fmt.Sprint("k", i%7)), sqldb.Float(float64(i%1000)/10)); err != nil {
			t.Fatal(err)
		}
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	queries := []sqldb.Query{
		sqldb.MustParse("SELECT sum(x) FROM t WHERE k = 'k1'"),
		sqldb.MustParse("SELECT avg(x) FROM t WHERE k IN ('k2', 'k3')"),
		sqldb.MustParse("SELECT count(*) FROM t GROUP BY k"),
	}
	want, _, err := db.ExecSharedResults(queries)
	if err != nil {
		t.Fatal(err)
	}

	// inFlight is raised for every section before any starts and
	// lowered only after each returns, so Running − inFlight never
	// overcounts the helpers held at the moment Running is read.
	const scans, solves = cpus, 2
	var inFlight atomic.Int64
	inFlight.Store(scans + solves)
	done := make(chan struct{})
	var peak atomic.Int64
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			sections := inFlight.Load()
			if h := procs.Running.Load() - sections; h > peak.Load() {
				peak.Store(h)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < solves; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer inFlight.Add(-1)
			sol, err := ilp.HardRandomModel(seed, 26, 3).Solve(ilp.Options{})
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
			} else if sol.Status != ilp.StatusOptimal {
				t.Errorf("seed %d: status %v, want optimal", seed, sol.Status)
			}
		}(int64(20 + i))
	}
	for i := 0; i < scans; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inFlight.Add(-1)
			for r := 0; r < 20; r++ {
				got, _, err := db.ExecSharedResults(queries)
				if err != nil {
					t.Error(err)
					return
				}
				for qi := range queries {
					if fmt.Sprint(got[qi]) != fmt.Sprint(want[qi]) {
						t.Errorf("%s: %v under contention, want %v", queries[qi].SQL(), got[qi], want[qi])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	watcher.Wait()
	if p := peak.Load(); p > cpus-1 {
		t.Errorf("%d helpers ran at once across %d scans and %d solves, want <= %d", p, scans, solves, cpus-1)
	}
	if n := procs.Running.Load(); n != 0 {
		t.Errorf("procs.Running = %d after every section returned, want 0", n)
	}
}
