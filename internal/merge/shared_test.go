package merge

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"muve/internal/sqldb"
	"muve/internal/workload"
)

func TestBuildSharedPlanShapes(t *testing.T) {
	queries := []sqldb.Query{
		q("SELECT count(*) FROM requests WHERE borough = 'Brooklyn'"),
		q("SELECT sum(response_hours), avg(response_hours) FROM requests WHERE agency = 'NYPD' GROUP BY borough"),
		q("SELECT count(*) FROM dob_jobs"),
		q("SELECT max(response_hours) FROM requests GROUP BY status, year"),
	}
	p := BuildSharedPlan(queries)
	if p.Candidates() != 4 {
		t.Fatalf("Candidates() = %d", p.Candidates())
	}
	// All three requests queries — scalar, grouped multi-agg, composite
	// GROUP BY — share one scan; the lone dob_jobs query gets a shared
	// scan of its own rather than the direct executor.
	if len(p.Scans) != 2 || p.Scans[0].Table != "requests" || len(p.Scans[0].Members) != 3 {
		t.Fatalf("scans = %+v", p.Scans)
	}
	if g := p.Scans[1]; g.Table != "dob_jobs" || len(g.Members) != 1 || g.Members[0] != 2 {
		t.Fatalf("scans[1] = %+v, want dob_jobs with member 2", g)
	}
	if len(p.Singles) != 0 {
		t.Fatalf("singles = %v, want none", p.Singles)
	}
}

// TestSingleCandidateRidesSharedScan: a lone candidate is answered by a
// shared scan of its own, so its answer carries scan statistics.
func TestSingleCandidateRidesSharedScan(t *testing.T) {
	db := mergeDB(t)
	query := q("SELECT avg(response_hours) FROM requests WHERE borough = 'Brooklyn'")
	got, stats, err := BuildSharedPlan([]sqldb.Query{query}).ExecuteResults(db, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scans != 1 || stats.Candidates != 1 || stats.Rows == 0 || stats.SharedPredicates != 1 {
		t.Fatalf("stats = %+v, want one scan over one candidate", stats)
	}
	want, err := db.Exec(query)
	if err != nil {
		t.Fatal(err)
	}
	if diff := resultDiff(got[0], want); diff != "" {
		t.Fatalf("mismatch: %s", diff)
	}
}

func TestExecuteResultsMatchesSeparate(t *testing.T) {
	db := mergeDB(t)
	sets := map[string][]sqldb.Query{
		"mixed": {
			q("SELECT count(*) FROM requests WHERE borough = 'Brooklyn'"),
			q("SELECT count(*), avg(response_hours) FROM requests WHERE agency = 'NYPD' GROUP BY borough"),
			q("SELECT sum(response_hours) FROM requests GROUP BY status, year"),
			q("SELECT min(response_hours), max(response_hours) FROM requests"),
			q("SELECT count(*) FROM requests WHERE borough = 'Atlantis' GROUP BY agency"),
		},
		"ladder32":        ladderCandidates(32, false),
		"groupedLadder32": ladderCandidates(32, true),
	}
	for name, queries := range sets {
		p := BuildSharedPlan(queries)
		got, stats, err := p.ExecuteResults(db, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Scans != 1 {
			t.Fatalf("%s: stats = %+v, want exactly one shared scan", name, stats)
		}
		want, err := ExecuteSeparatelyResults(db, queries)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			if diff := resultDiff(got[qi], want[qi]); diff != "" {
				t.Errorf("%s: exact mismatch on %s: %s", name, queries[qi].SQL(), diff)
			}
		}
		// Sampled execution agrees with per-query sampled execution too.
		gotS, _, err := p.ExecuteResults(db, 0.3, 42)
		if err != nil {
			t.Fatal(err)
		}
		for qi, query := range queries {
			res, err := db.ExecSampled(query, 0.3, 42)
			if err != nil {
				t.Fatal(err)
			}
			if diff := resultDiff(gotS[qi], res); diff != "" {
				t.Errorf("%s: sampled mismatch on %s: %s", name, query.SQL(), diff)
			}
		}
	}
}

// ladderCandidates builds n confusion-set-shaped candidates over the
// requests table: aggregates and complaint constants cycle so
// neighbouring candidates share predicates. Ungrouped, every second
// candidate adds a borough predicate; grouped, the GROUP BY column
// rotates over borough/agency/status and every third candidate carries
// a second aggregate.
func ladderCandidates(n int, grouped bool) []sqldb.Query {
	aggs := []sqldb.Aggregate{
		{Func: sqldb.AggCount},
		{Func: sqldb.AggSum, Col: "response_hours"},
		{Func: sqldb.AggAvg, Col: "response_hours"},
		{Func: sqldb.AggMax, Col: "response_hours"},
	}
	complaints := []string{"Noise", "Heating", "Parking", "Water Leak", "Rodent", "Graffiti", "Sewer", "Sidewalk"}
	boroughs := []string{"Brooklyn", "Bronx", "Manhattan", "Queens", "Staten Island"}
	groupCols := []string{"borough", "agency", "status"}
	eq := func(col, v string) sqldb.Predicate {
		return sqldb.Predicate{Col: col, Op: sqldb.OpEq, Values: []sqldb.Value{sqldb.Str(v)}}
	}
	out := make([]sqldb.Query, n)
	for i := range out {
		qq := sqldb.Query{
			Aggs:  []sqldb.Aggregate{aggs[i%len(aggs)]},
			Table: "requests",
			Preds: []sqldb.Predicate{eq("complaint_type", complaints[i%len(complaints)])},
		}
		switch {
		case grouped:
			qq.GroupBy = []string{groupCols[i%len(groupCols)]}
			if i%3 == 2 {
				qq.Aggs = append(qq.Aggs, aggs[(i+1)%len(aggs)])
			}
		case i%2 == 1:
			qq.Preds = append(qq.Preds, eq("borough", boroughs[(i/2)%len(boroughs)]))
		}
		out[i] = qq
	}
	return out
}

// resultDiff reports the first bit-level disagreement between two full
// results, or "" when identical.
func resultDiff(a, b sqldb.Result) string {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("shape %dx%d vs %dx%d", len(a.Rows), len(a.Cols), len(b.Rows), len(b.Cols))
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return fmt.Sprintf("col %d: %q vs %q", i, a.Cols[i], b.Cols[i])
		}
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

// The fuzz DB is built once per process: fuzz workers each pay one
// build, then every input reuses it read-only.
var (
	fuzzDBOnce sync.Once
	fuzzDB     *sqldb.DB
)

func sharedFuzzDB() *sqldb.DB {
	fuzzDBOnce.Do(func() {
		tbl, err := workload.Build(workload.NYC311, 2000, 9)
		if err != nil {
			panic(err)
		}
		fuzzDB = sqldb.NewDB()
		fuzzDB.Register(tbl)
	})
	return fuzzDB
}

// fuzzQueries decodes a byte string into a deterministic candidate set
// over the requests table. Every byte steers one decision, so the fuzzer
// can mutate aggregate shapes, GROUP BY keys, and predicate constants
// independently. Constants include out-of-domain strings so never-
// matching predicates and empty grouped results stay covered.
func fuzzQueries(data []byte) []sqldb.Query {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	aggs := []sqldb.Aggregate{
		{Func: sqldb.AggCount},
		{Func: sqldb.AggCount, Col: "response_hours"},
		{Func: sqldb.AggSum, Col: "response_hours"},
		{Func: sqldb.AggAvg, Col: "response_hours"},
		{Func: sqldb.AggMin, Col: "response_hours"},
		{Func: sqldb.AggMax, Col: "year"},
		{Func: sqldb.AggSum, Col: "year"},
	}
	strCols := []string{"complaint_type", "borough", "agency", "status", "channel_type"}
	consts := []string{"Brooklyn", "Bronx", "Queens", "NYPD", "Noise", "Open", "Closed", "phone", "Atlantis", ""}
	groupings := [][]string{
		nil,
		{"borough"},
		{"agency"},
		{"status"},
		{"year"},
		{"borough", "status"},
		{"agency", "year"},
	}
	nq := next()%12 + 1
	queries := make([]sqldb.Query, 0, nq)
	for i := 0; i < nq; i++ {
		qq := sqldb.Query{Table: "requests"}
		for na := next()%3 + 1; na > 0; na-- {
			qq.Aggs = append(qq.Aggs, aggs[next()%len(aggs)])
		}
		qq.GroupBy = groupings[next()%len(groupings)]
		for np := next() % 3; np > 0; np-- {
			col := strCols[next()%len(strCols)]
			if next()%4 == 0 {
				vals := []sqldb.Value{}
				for k := next()%3 + 1; k > 0; k-- {
					vals = append(vals, sqldb.Str(consts[next()%len(consts)]))
				}
				qq.Preds = append(qq.Preds, sqldb.Predicate{Col: col, Op: sqldb.OpIn, Values: vals})
			} else {
				qq.Preds = append(qq.Preds, sqldb.Predicate{Col: col, Op: sqldb.OpEq,
					Values: []sqldb.Value{sqldb.Str(consts[next()%len(consts)])}})
			}
		}
		queries = append(queries, qq)
	}
	return queries
}

// FuzzSharedPlan drives random candidate sets through BuildSharedPlan +
// ExecuteResults and demands bit-identical agreement with the unmerged
// per-query baseline — the shared executor's core guarantee under
// adversarial query shapes.
func FuzzSharedPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{7, 2, 3, 4, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{11, 0, 5, 2, 8, 0, 9, 9, 9, 1, 4, 2, 0, 6, 3, 250, 128, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		db := sharedFuzzDB()
		queries := fuzzQueries(data)
		p := BuildSharedPlan(queries)
		got, _, err := p.ExecuteResults(db, 0, 0)
		if err != nil {
			t.Fatalf("ExecuteResults: %v", err)
		}
		want, err := ExecuteSeparatelyResults(db, queries)
		if err != nil {
			t.Fatalf("ExecuteSeparatelyResults: %v", err)
		}
		for qi := range queries {
			if diff := resultDiff(got[qi], want[qi]); diff != "" {
				t.Fatalf("mismatch on %s: %s", queries[qi].SQL(), diff)
			}
		}
		// Sampled path: the seed derives from the input so the fuzzer can
		// explore sample-membership boundaries too.
		var seed uint64
		for _, b := range data {
			seed = seed*131 + uint64(b)
		}
		rate := 0.05 + float64(seed%90)/100
		gotS, _, err := p.ExecuteResults(db, rate, seed)
		if err != nil {
			t.Fatalf("ExecuteResults sampled: %v", err)
		}
		for qi, query := range queries {
			res, err := db.ExecSampled(query, rate, seed)
			if err != nil {
				t.Fatalf("ExecSampled: %v", err)
			}
			if diff := resultDiff(gotS[qi], res); diff != "" {
				t.Fatalf("sampled mismatch on %s: %s", query.SQL(), diff)
			}
		}
	})
}
