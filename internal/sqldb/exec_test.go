package sqldb

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// testTable builds a small flights-like table used across executor tests.
func testTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("flights",
		ColumnDef{"origin", KindString},
		ColumnDef{"carrier", KindString},
		ColumnDef{"delay", KindFloat},
		ColumnDef{"year", KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		origin, carrier string
		delay           float64
		year            int64
	}{
		{"JFK", "AA", 10, 2007},
		{"JFK", "DL", 20, 2008},
		{"LGA", "AA", -5, 2008},
		{"LGA", "DL", 15, 2007},
		{"EWR", "AA", 0, 2008},
		{"JFK", "AA", 30, 2008},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(Str(r.origin), Str(r.carrier), Float(r.delay), Int(r.year)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func testDB(t *testing.T) *DB {
	db := NewDB()
	db.Register(testTable(t))
	return db
}

func scalar(t *testing.T, db *DB, sql string) float64 {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	v, err := res.Scalar()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return v
}

func TestExecAggregates(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want float64
	}{
		{"SELECT count(*) FROM flights", 6},
		{"SELECT count(*) FROM flights WHERE origin = 'JFK'", 3},
		{"SELECT sum(delay) FROM flights WHERE origin = 'JFK'", 60},
		{"SELECT avg(delay) FROM flights WHERE origin = 'JFK'", 20},
		{"SELECT min(delay) FROM flights", -5},
		{"SELECT max(delay) FROM flights", 30},
		{"SELECT count(*) FROM flights WHERE origin = 'JFK' AND year = 2008", 2},
		{"SELECT count(*) FROM flights WHERE origin IN ('JFK', 'LGA')", 5},
		{"SELECT avg(year) FROM flights WHERE carrier = 'DL'", 2007.5},
		{"SELECT count(carrier) FROM flights WHERE delay = 0", 1},
	}
	for _, c := range cases {
		if got := scalar(t, db, c.sql); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestExecEmptyMatchSemantics(t *testing.T) {
	db := testDB(t)
	// COUNT over empty selection is 0.
	if got := scalar(t, db, "SELECT count(*) FROM flights WHERE origin = 'SFO'"); got != 0 {
		t.Errorf("count = %v", got)
	}
	// SUM/AVG/MIN/MAX over empty selection are NULL.
	for _, agg := range []string{"sum(delay)", "avg(delay)", "min(delay)", "max(delay)"} {
		res, err := db.Query("SELECT " + agg + " FROM flights WHERE origin = 'SFO'")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rows[0][0].IsNull() {
			t.Errorf("%s over empty = %v, want NULL", agg, res.Rows[0][0])
		}
		if _, err := res.Scalar(); err == nil {
			t.Errorf("Scalar over NULL %s should error", agg)
		}
	}
}

func TestExecGroupBy(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT avg(delay), origin FROM flights GROUP BY origin")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	want := map[string]float64{"JFK": 20, "LGA": 5, "EWR": 0}
	for _, row := range res.Rows {
		origin := row[0].S
		got := row[1].AsFloat()
		if math.Abs(got-want[origin]) > 1e-9 {
			t.Errorf("avg(delay) for %s = %v, want %v", origin, got, want[origin])
		}
	}
	// Grouped output is deterministic across runs.
	res2, _ := db.Query("SELECT avg(delay), origin FROM flights GROUP BY origin")
	for i := range res.Rows {
		if res.Rows[i][0] != res2.Rows[i][0] {
			t.Fatal("group order not deterministic")
		}
	}
}

func TestExecGroupByMultipleKeysAndAggs(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT count(*), sum(delay), origin, carrier FROM flights GROUP BY origin, carrier")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 4 {
		t.Fatalf("cols = %v", res.Cols)
	}
	// (JFK, AA) has 2 rows with delays 10+30.
	found := false
	for _, row := range res.Rows {
		if row[0].S == "JFK" && row[1].S == "AA" {
			found = true
			if row[2].AsFloat() != 2 || row[3].AsFloat() != 40 {
				t.Errorf("JFK/AA row = %v", row)
			}
		}
	}
	if !found {
		t.Error("missing JFK/AA group")
	}
}

func TestExecMergedQueryEquivalence(t *testing.T) {
	// The merged form (IN + GROUP BY) must agree with separate queries —
	// the core guarantee behind MUVE's query merging (Section 8.1).
	db := testDB(t)
	sep := map[string]float64{
		"JFK": scalar(t, db, "SELECT sum(delay) FROM flights WHERE origin = 'JFK'"),
		"LGA": scalar(t, db, "SELECT sum(delay) FROM flights WHERE origin = 'LGA'"),
	}
	res, err := db.Query("SELECT sum(delay), origin FROM flights WHERE origin IN ('JFK','LGA') GROUP BY origin")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if got, want := row[1].AsFloat(), sep[row[0].S]; math.Abs(got-want) > 1e-9 {
			t.Errorf("merged %s = %v, want %v", row[0].S, got, want)
		}
	}
}

func TestExecValidationErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT count(*) FROM nope",
		"SELECT sum(origin) FROM flights", // sum over TEXT
		"SELECT sum(nope) FROM flights",   // unknown agg column
		"SELECT count(*) FROM flights WHERE nope = 1",
		"SELECT count(*), nope FROM flights GROUP BY nope",
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("%s should fail", sql)
		}
	}
	// Duplicate GROUP BY columns are rejected at validation.
	q := MustParse("SELECT count(*), origin FROM flights GROUP BY origin, origin")
	if _, err := db.Exec(q); err == nil {
		t.Error("duplicate GROUP BY should fail")
	}
}

func TestExecPredicateTypeMismatches(t *testing.T) {
	db := testDB(t)
	// String literal against numeric column matches nothing.
	if got := scalar(t, db, "SELECT count(*) FROM flights WHERE year = 'JFK'"); got != 0 {
		t.Errorf("mismatched predicate matched %v rows", got)
	}
	// Integer literal against float column matches numerically.
	if got := scalar(t, db, "SELECT count(*) FROM flights WHERE delay = 0"); got != 1 {
		t.Errorf("int-against-float = %v", got)
	}
	// Float literal with integral value matches int column.
	if got := scalar(t, db, "SELECT count(*) FROM flights WHERE year = 2008.0"); got != 4 {
		t.Errorf("float-against-int = %v", got)
	}
	// Non-integral float never matches an int column.
	if got := scalar(t, db, "SELECT count(*) FROM flights WHERE year = 2008.5"); got != 0 {
		t.Errorf("fractional-against-int = %v", got)
	}
}

// referenceExecute is a deliberately naive row-at-a-time evaluator used to
// differential-test the columnar executor.
func referenceExecute(tbl *Table, q Query) map[string][]float64 {
	groups := make(map[string][]float64) // key -> per-agg accumulator state via recompute
	rowsByKey := make(map[string][]int)
	for i := 0; i < tbl.NumRows(); i++ {
		match := true
		for _, p := range q.Preds {
			v := tbl.Column(p.Col).Value(i)
			any := false
			for _, w := range p.Values {
				if v.Equal(w) {
					any = true
					break
				}
			}
			if !any {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		key := ""
		for _, g := range q.GroupBy {
			key += tbl.Column(g).Value(i).Display() + "\x00"
		}
		rowsByKey[key] = append(rowsByKey[key], i)
	}
	if len(q.GroupBy) == 0 && len(rowsByKey) == 0 {
		rowsByKey[""] = nil
	}
	for key, rows := range rowsByKey {
		vals := make([]float64, len(q.Aggs))
		for j, a := range q.Aggs {
			var xs []float64
			for _, i := range rows {
				if a.Col == "" {
					xs = append(xs, 1)
				} else {
					xs = append(xs, tbl.Column(a.Col).Value(i).AsFloat())
				}
			}
			switch a.Func {
			case AggCount:
				vals[j] = float64(len(xs))
			case AggSum:
				vals[j] = sumF(xs)
			case AggAvg:
				if len(xs) > 0 {
					vals[j] = sumF(xs) / float64(len(xs))
				} else {
					vals[j] = math.NaN()
				}
			case AggMin:
				vals[j] = minF(xs)
			case AggMax:
				vals[j] = maxF(xs)
			}
		}
		groups[key] = vals
	}
	return groups
}

func sumF(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
func minF(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
func maxF(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestExecDifferentialAgainstReference(t *testing.T) {
	// Random tables, random queries; columnar executor must agree with the
	// naive reference on every aggregate of every group.
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 60; trial++ {
		tbl, _ := NewTable("t",
			ColumnDef{"alpha", KindString},
			ColumnDef{"beta", KindInt},
			ColumnDef{"gamma", KindFloat},
			ColumnDef{"delta", KindString},
		)
		nRows := rng.Intn(80)
		words := []string{"red", "green", "blue", "teal"}
		for i := 0; i < nRows; i++ {
			if err := tbl.AppendRow(
				Str(words[rng.Intn(len(words))]),
				Int(int64(rng.Intn(5))),
				Float(float64(rng.Intn(20))/2),
				Str(words[rng.Intn(len(words))]),
			); err != nil {
				t.Fatal(err)
			}
		}
		db := NewDB()
		db.Register(tbl)
		q := randomExecQuery(rng, words)
		got, err := db.Exec(q)
		if err != nil {
			t.Fatalf("exec %s: %v", q.SQL(), err)
		}
		want := referenceExecute(tbl, q)
		if len(q.GroupBy) == 0 {
			checkRowAgainstReference(t, q, got.Rows[0], nil, want[""])
			continue
		}
		if len(got.Rows) != len(want) {
			t.Fatalf("%s: got %d groups, want %d", q.SQL(), len(got.Rows), len(want))
		}
		for _, row := range got.Rows {
			key := ""
			for i := range q.GroupBy {
				key += row[i].Display() + "\x00"
			}
			ref, ok := want[key]
			if !ok {
				t.Fatalf("%s: unexpected group %q", q.SQL(), key)
			}
			checkRowAgainstReference(t, q, row[len(q.GroupBy):], nil, ref)
		}
	}
}

func checkRowAgainstReference(t *testing.T, q Query, aggVals []Value, _ []string, ref []float64) {
	t.Helper()
	for j, a := range q.Aggs {
		got := aggVals[j]
		want := ref[j]
		if got.IsNull() {
			if a.Func == AggCount {
				t.Errorf("%s: count returned NULL", q.SQL())
			}
			// Reference encodes empty MIN/MAX/AVG as +/-Inf or NaN.
			if !math.IsInf(want, 0) && !math.IsNaN(want) {
				t.Errorf("%s agg %d: got NULL, want %v", q.SQL(), j, want)
			}
			continue
		}
		if math.Abs(got.AsFloat()-want) > 1e-9 {
			t.Errorf("%s agg %d: got %v, want %v", q.SQL(), j, got.AsFloat(), want)
		}
	}
}

// randomExecQuery draws a valid random query over the differential-test
// schema.
func randomExecQuery(rng *rand.Rand, words []string) Query {
	numCols := []string{"beta", "gamma"}
	strCols := []string{"alpha", "delta"}
	q := Query{Table: "t"}
	nAggs := 1 + rng.Intn(3)
	for i := 0; i < nAggs; i++ {
		f := AllAggFuncs[rng.Intn(len(AllAggFuncs))]
		if f == AggCount && rng.Intn(2) == 0 {
			q.Aggs = append(q.Aggs, Aggregate{Func: AggCount})
			continue
		}
		q.Aggs = append(q.Aggs, Aggregate{Func: f, Col: numCols[rng.Intn(len(numCols))]})
	}
	for i := 0; i < rng.Intn(3); i++ {
		if rng.Intn(2) == 0 {
			q.Preds = append(q.Preds, Predicate{
				Col: strCols[rng.Intn(len(strCols))], Op: OpEq,
				Values: []Value{Str(words[rng.Intn(len(words))])},
			})
		} else {
			n := 1 + rng.Intn(3)
			vals := make([]Value, n)
			for j := range vals {
				vals[j] = Int(int64(rng.Intn(6)))
			}
			q.Preds = append(q.Preds, Predicate{Col: "beta", Op: OpIn, Values: vals})
		}
	}
	if rng.Intn(2) == 0 {
		q.GroupBy = []string{strCols[rng.Intn(len(strCols))]}
	}
	return q
}

func TestResultScalarShapeErrors(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT count(*), origin FROM flights GROUP BY origin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Scalar(); err == nil {
		t.Error("Scalar on grouped result should error")
	}
	res, _ = db.Query("SELECT count(*), sum(delay) FROM flights")
	if _, err := res.Scalar(); err == nil {
		t.Error("Scalar on two-aggregate result should error")
	}
}

func TestTableAppendRowRollback(t *testing.T) {
	tbl, _ := NewTable("t", ColumnDef{"a", KindInt}, ColumnDef{"b", KindInt})
	if err := tbl.AppendRow(Int(1), Str("oops")); err == nil {
		t.Fatal("expected kind-mismatch error")
	}
	if tbl.NumRows() != 0 || tbl.Column("a").Len() != 0 {
		t.Error("failed append left columns misaligned")
	}
	if err := tbl.AppendRow(Int(1)); err == nil {
		t.Error("expected arity error")
	}
	if err := tbl.AppendRow(Int(1), Int(2)); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1 {
		t.Error("good row not appended")
	}
}

func TestValueSemantics(t *testing.T) {
	if Int(3).Equal(Float(3)) != true {
		t.Error("3 == 3.0 should hold")
	}
	if Str("a").Equal(Str("b")) {
		t.Error("a != b")
	}
	if Null().Equal(Null()) {
		t.Error("NULL never equals NULL")
	}
	if Str("3").Equal(Int(3)) {
		t.Error("string never equals number")
	}
	if got := Str("O'Neill").String(); got != "'O''Neill'" {
		t.Errorf("SQL literal = %s", got)
	}
	if got := Str("x").Display(); got != "x" {
		t.Errorf("Display = %s", got)
	}
	if !strings.Contains(KindString.String(), "TEXT") {
		t.Errorf("Kind name = %s", KindString)
	}
}

// Aliases keep the throttle test readable.
var (
	timeNow   = time.Now
	timeSince = time.Since
)

const millisecond = time.Millisecond

// parallelTable builds an n-row table of two string columns, a float and
// an int column.
func parallelTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl, err := NewTable("p",
		ColumnDef{"grp", KindString},
		ColumnDef{"cat", KindString},
		ColumnDef{"x", KindFloat},
		ColumnDef{"k", KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"a", "b", "c", "d", "e"}
	cats := []string{"p", "q"}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(
			Str(groups[rng.Intn(len(groups))]),
			Str(cats[rng.Intn(len(cats))]),
			Float(rng.NormFloat64()*10),
			Int(int64(rng.Intn(50))),
		); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestScanThroughputThrottle(t *testing.T) {
	tbl := parallelTable(t, 60_000)
	db := NewDB()
	db.Register(tbl)
	db.SetScanThroughput(1_000_000) // 60k rows -> ~60ms exact

	q := MustParse("SELECT count(*) FROM p")
	start := timeNow()
	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	exact := timeSince(start)
	if exact < 50*millisecond {
		t.Errorf("throttled exact execution took %v, want >= ~60ms", exact)
	}
	// A 1%% sample is charged only 1%% of the rows.
	start = timeNow()
	if _, err := db.ExecSampled(q, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	sampled := timeSince(start)
	if sampled > exact/2 {
		t.Errorf("sampled %v not much faster than exact %v", sampled, exact)
	}
	// Disabling restores full speed.
	db.SetScanThroughput(0)
	start = timeNow()
	if _, err := db.Exec(q); err != nil {
		t.Fatal(err)
	}
	if timeSince(start) > 30*millisecond {
		t.Error("unthrottled execution still slow")
	}
}
