package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"muve/internal/sqldb"
)

func TestHistogramObserveAndQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	// 90 fast observations and 10 slow ones: p50 lands in a fast
	// bucket, p99 in a slow one.
	for i := 0; i < 90; i++ {
		h.Observe(150 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 150*time.Microsecond || p50 > time.Millisecond {
		t.Errorf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 80*time.Millisecond || p99 > time.Second {
		t.Errorf("p99 = %v", p99)
	}
	if p50 >= p99 {
		t.Errorf("p50 %v >= p99 %v", p50, p99)
	}
	mean := h.Mean()
	if mean < 150*time.Microsecond || mean > 80*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
	// Out-of-range observations land in the extreme buckets without
	// panicking.
	h.Observe(-time.Second)
	h.Observe(10 * time.Minute)
	if h.Count() != 102 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramParallelObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	m := &Metrics{}
	m.Requests.Add(7)
	m.Lookups[LookupCache].Inc()
	m.InFlight.Set(3)
	m.Planning.Observe(2 * time.Millisecond)
	m.EndToEnd.Observe(3 * time.Millisecond)

	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE muve_requests_total counter",
		"muve_requests_total 7",
		`muve_lookups_total{result="cache"} 1`,
		`muve_lookups_total{result="miss"} 0`,
		"muve_inflight 3",
		"# TYPE muve_planning_seconds histogram",
		`muve_planning_seconds_bucket{le="+Inf"} 1`,
		"muve_planning_seconds_count 1",
		"muve_request_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

func TestMetricsVarsJSON(t *testing.T) {
	m := &Metrics{}
	m.Requests.Add(4)
	m.EndToEnd.Observe(10 * time.Millisecond)
	rec := httptest.NewRecorder()
	m.VarsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var out struct {
		Requests  float64 `json:"requests"`
		RequestMS struct {
			Count float64 `json:"count"`
			P99   float64 `json:"p99"`
		} `json:"request_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Requests != 4 || out.RequestMS.Count != 1 {
		t.Errorf("vars = %+v", out)
	}
	if out.RequestMS.P99 < 10 {
		t.Errorf("p99 = %v ms, want >= 10", out.RequestMS.P99)
	}
}

// populated returns a registry with a child in every family, so
// WriteProm emits them all.
func populated() *Metrics {
	m := &Metrics{}
	m.Requests.Inc()
	m.Fallbacks.With("solver").Inc()
	m.SnapshotSkipped.With("stale").Inc()
	m.BreakerTrips.With("solver").Inc()
	m.BreakerState.With("solver").Set(1)
	m.WarmStarts.With("hit").Inc()
	m.Ladder[modePlot].With("exact").Inc()
	m.Ladder[modeVoice].With("greedy").Inc()
	m.Stages.With("solver").Observe(time.Millisecond)
	return m
}

// promFamilies lists the families named by `# TYPE` lines.
func promFamilies(t *testing.T, m *Metrics) []string {
	t.Helper()
	var b strings.Builder
	m.WriteProm(&b)
	var names []string
	for _, ln := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(ln, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	return names
}

// TestMetricsFamilyCountPinned: the folded registry emits 23 engine
// families (44 before the fold), each exactly once.
func TestMetricsFamilyCountPinned(t *testing.T) {
	names := promFamilies(t, populated())
	if len(names) != 23 || len(families) != 23 {
		t.Errorf("WriteProm emits %d families, table has %d; want 23: %v", len(names), len(families), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("family %s emitted twice", n)
		}
		seen[n] = true
	}
}

// TestMetricsVarsMirrorProm: every family on /metrics has a
// /debug/vars key and every /debug/vars key has a family behind it.
func TestMetricsVarsMirrorProm(t *testing.T) {
	m := populated()
	want := map[string]string{}
	for _, n := range promFamilies(t, m) {
		want[varsKey(n)] = n
	}
	rec := httptest.NewRecorder()
	m.VarsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	for k, n := range want {
		if _, ok := vars[k]; !ok {
			t.Errorf("family %s has no /debug/vars key %q", n, k)
		}
	}
	for k := range vars {
		if _, ok := want[k]; !ok {
			t.Errorf("/debug/vars key %q has no family on /metrics", k)
		}
	}
	// Two-label families nest by label value, outermost first.
	ladder, _ := vars["ladder_rung"].(map[string]any)
	if voice, _ := ladder["voice"].(map[string]any); voice["greedy"] != 1.0 {
		t.Errorf("ladder_rung = %v, want voice.greedy = 1", vars["ladder_rung"])
	}
}

// TestMetricsREADMEDocumentsEveryFamily: the README's metrics reference
// names every family /metrics can emit.
func TestMetricsREADMEDocumentsEveryFamily(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range promFamilies(t, populated()) {
		if !regexp.MustCompile("`" + n + "[`{]").Match(readme) {
			t.Errorf("README.md does not document %s", n)
		}
	}
}

// TestRecordScanCoversEveryField: muve_scan_total has one stat per
// sqldb.ScanStats count, and RecordScan fills each from its own field.
// The last field, Workers, is a scan's width rather than a count to
// total, so it has no stat.
func TestRecordScanCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(sqldb.ScanStats{})
	if last := typ.Field(typ.NumField() - 1).Name; last != "Workers" {
		t.Fatalf("ScanStats ends with %s, want Workers", last)
	}
	if typ.NumField()-1 != len(scanStats) {
		t.Fatalf("ScanStats has %d counts, muve_scan_total has %d stats", typ.NumField()-1, len(scanStats))
	}
	var st sqldb.ScanStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	m := &Metrics{}
	m.RecordScan(st)
	for i, stat := range scanStats {
		if got := m.Scan[i].Value(); got != uint64(i+1) {
			t.Errorf("stat %s (field %s) = %d, want %d", stat, typ.Field(i).Name, got, i+1)
		}
	}
}

// TestFamilyConcurrentWith: racing first uses of a label value share
// one child, and no increment is lost to a copy-on-write swap.
func TestFamilyConcurrentWith(t *testing.T) {
	var f Family[Counter]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1024; i++ {
				f.With(fmt.Sprint(i % 16)).Inc()
			}
		}()
	}
	wg.Wait()
	ss := f.series()
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = s.values[0]
		if n := s.metric.(*Counter).Value(); n != 8*1024/16 {
			t.Errorf("child %s = %d, want %d", s.values[0], n, 8*1024/16)
		}
	}
	if len(ss) != 16 || !sort.StringsAreSorted(keys) {
		t.Errorf("series keys = %v, want 16 sorted", keys)
	}
}
