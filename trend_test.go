package muve

import (
	"math"
	"strings"
	"testing"

	"muve/internal/sqldb"
	"muve/internal/workload"
)

func trendSystem(t *testing.T) *System {
	t.Helper()
	tbl, err := workload.Build(workload.Flights, 20_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	sys, err := New(db, "flights", WithWidth(1024))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestTrendNumericGroup(t *testing.T) {
	sys := trendSystem(t)
	ans, err := sys.Trend(sqldb.MustParse(
		"SELECT avg(dep_delay), month FROM flights WHERE origin = 'JFK' GROUP BY month"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Series.Points) != 12 {
		t.Fatalf("points = %d, want 12 months", len(ans.Series.Points))
	}
	for i := 1; i < len(ans.Series.Points); i++ {
		if ans.Series.Points[i].X < ans.Series.Points[i-1].X {
			t.Fatal("series not sorted by month")
		}
	}
	out := ans.ANSI()
	if !strings.Contains(out, "avg(dep_delay) by month") {
		t.Errorf("ANSI missing title:\n%s", out)
	}
	if !strings.Contains(out, "●") {
		t.Error("ANSI chart has no data markers")
	}
	svg := ans.SVG()
	if !strings.Contains(svg, "<polyline") {
		t.Error("SVG missing polyline")
	}
}

func TestTrendStringGroup(t *testing.T) {
	sys := trendSystem(t)
	ans, err := sys.Trend(sqldb.MustParse(
		"SELECT count(*), carrier FROM flights GROUP BY carrier"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Series.Points) == 0 {
		t.Fatal("no points")
	}
	if ans.Series.Points[0].Label == "" {
		t.Error("string group keys should carry labels")
	}
}

// TestTrendSharedScanBitIdentical checks that the exact series, computed
// by the shared-scan executor, is bit-identical to the series built from
// the row-at-a-time executor's result, and that its scan is reported.
func TestTrendSharedScanBitIdentical(t *testing.T) {
	sys := trendSystem(t)
	tbl, err := sys.db.Table("flights")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT count(*), month FROM flights WHERE origin = 'JFK' GROUP BY month",
		"SELECT sum(dep_delay), month FROM flights WHERE carrier = 'Delta' GROUP BY month",
		"SELECT avg(dep_delay), month FROM flights GROUP BY month",
		"SELECT count(*), carrier FROM flights WHERE month = 7 GROUP BY carrier",
		"SELECT sum(dep_delay), carrier FROM flights GROUP BY carrier",
		"SELECT avg(dep_delay), carrier FROM flights WHERE origin = 'JFK' GROUP BY carrier",
	} {
		q := sqldb.MustParse(sql)
		ans, err := sys.Trend(q)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res, err := sys.db.Exec(q)
		if err != nil {
			t.Fatalf("%s: Exec: %v", sql, err)
		}
		want := seriesFromResult(q, res)
		if len(want.Points) == 0 {
			t.Fatalf("%s: oracle series is empty", sql)
		}
		if len(ans.Series.Points) != len(want.Points) {
			t.Fatalf("%s: %d points, oracle has %d", sql, len(ans.Series.Points), len(want.Points))
		}
		for i, p := range ans.Series.Points {
			w := want.Points[i]
			if math.Float64bits(p.X) != math.Float64bits(w.X) ||
				math.Float64bits(p.Y) != math.Float64bits(w.Y) || p.Label != w.Label {
				t.Errorf("%s: point %d = %+v, oracle %+v", sql, i, p, w)
			}
		}
		if ans.Scan.Scans != 1 || ans.Scan.Rows != int64(tbl.NumRows()) || ans.Scan.Candidates != 1 {
			t.Errorf("%s: scan stats %+v, want one pass over %d rows", sql, ans.Scan, tbl.NumRows())
		}
	}
}

func TestTrendValidation(t *testing.T) {
	sys := trendSystem(t)
	if _, err := sys.Trend(sqldb.MustParse("SELECT count(*) FROM flights")); err == nil {
		t.Error("trend without GROUP BY accepted")
	}
	if _, err := sys.Trend(sqldb.MustParse(
		"SELECT count(*), sum(dep_delay), month FROM flights GROUP BY month")); err == nil {
		t.Error("multi-aggregate trend accepted")
	}
	if _, err := sys.Trend(sqldb.MustParse(
		"SELECT count(*), nope FROM flights GROUP BY nope")); err == nil {
		t.Error("unknown group column accepted")
	}
}

func TestTrendText(t *testing.T) {
	sys := trendSystem(t)
	ans, err := sys.TrendText("average dep delay for origin JFK", "month")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Query.GroupBy) != 1 || ans.Query.GroupBy[0] != "month" {
		t.Errorf("group by = %v", ans.Query.GroupBy)
	}
	if len(ans.Series.Points) == 0 {
		t.Error("no points from voice trend")
	}
	// Grouping column predicates are dropped if the transcript mentioned
	// the grouping column's values.
	for _, p := range ans.Query.Preds {
		if p.Col == "month" {
			t.Error("predicate on grouping column survived")
		}
	}
}

func TestTrendFirstPaint(t *testing.T) {
	sys := trendSystem(t)

	// Without sketches there is no first paint.
	ans, err := sys.Trend(sqldb.MustParse(
		"SELECT avg(dep_delay), carrier FROM flights WHERE origin = 'JFK' GROUP BY carrier"))
	if err != nil {
		t.Fatal(err)
	}
	if ans.FirstPaint != nil {
		t.Fatal("first paint without sketches enabled")
	}

	sys.db.EnableSketches(0.25)
	ans, err = sys.Trend(sqldb.MustParse(
		"SELECT avg(dep_delay), carrier FROM flights WHERE origin = 'JFK' GROUP BY carrier"))
	if err != nil {
		t.Fatal(err)
	}
	if ans.FirstPaint == nil {
		t.Fatal("no first paint from grouped sketch")
	}
	if len(ans.FirstPaint.Points) == 0 {
		t.Fatal("first paint has no points")
	}
	if ans.Scan.SketchBuilds != 1 {
		t.Fatalf("scan stats = %+v, want one sketch build", ans.Scan)
	}
	// The approximate series covers the same carriers as the exact one
	// (rate 0.25 over thousands of rows leaves every carrier populated).
	exactLabels := map[string]bool{}
	for _, p := range ans.Series.Points {
		exactLabels[p.Label] = true
	}
	for _, p := range ans.FirstPaint.Points {
		if !exactLabels[p.Label] {
			t.Errorf("first-paint carrier %q missing from exact series", p.Label)
		}
	}

	// A second ask answers from the cached sketch — no rebuild, and the
	// paint is deterministic.
	again, err := sys.Trend(sqldb.MustParse(
		"SELECT avg(dep_delay), carrier FROM flights WHERE origin = 'JFK' GROUP BY carrier"))
	if err != nil {
		t.Fatal(err)
	}
	if again.Scan.SketchBuilds != 0 {
		t.Fatalf("second trend rebuilt sketch: %+v", again.Scan)
	}
	if len(again.FirstPaint.Points) != len(ans.FirstPaint.Points) {
		t.Fatal("first paint not deterministic across asks")
	}

	// Numeric grouping columns have no dictionary to sketch over; the
	// trend still answers exactly, just without a first paint.
	ans, err = sys.Trend(sqldb.MustParse(
		"SELECT avg(dep_delay), month FROM flights WHERE origin = 'JFK' GROUP BY month"))
	if err != nil {
		t.Fatal(err)
	}
	if ans.FirstPaint != nil {
		t.Fatal("first paint for non-sketchable int grouping column")
	}
	if len(ans.Series.Points) != 12 {
		t.Fatalf("exact series has %d points, want 12", len(ans.Series.Points))
	}
}
