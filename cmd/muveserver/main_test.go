package main

import (
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"muve"
	"muve/internal/serve"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	tbl, err := workload.Build(workload.NYC311, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	sys, err := muve.New(db, "requests", muve.WithWidth(900))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := newEngine(sys, db, 0, serve.Config{
		MaxInFlight:  8,
		CacheEntries: 256,
		CacheTTL:     time.Minute,
		Timeout:      10 * time.Second,
		Dataset:      "requests",
		Solver:       "greedy",
		WidthPx:      900,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(engine, sys, "requests", tbl.NumRows()))
	t.Cleanup(srv.Close)
	return srv
}

// fetch GETs a URL and returns status, content type, and body.
func fetch(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	status, _, body := fetch(t, srv.URL+"/healthz")
	if status != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", status, body)
	}
}

func TestAskSVG(t *testing.T) {
	srv := testServer(t)
	status, ct, body := fetch(t, srv.URL+"/ask?q=how+many+noise+complaints+in+brooklyn")
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	if ct != "image/svg+xml" {
		t.Errorf("content type = %q", ct)
	}
	if !strings.HasPrefix(body, "<svg") || !strings.Contains(body, "</svg>") {
		t.Errorf("body not SVG: %.60s", body)
	}
}

func TestAskMissingQuery(t *testing.T) {
	srv := testServer(t)
	if status, _, _ := fetch(t, srv.URL+"/ask"); status != 400 {
		t.Errorf("missing q status = %d", status)
	}
	if status, _, _ := fetch(t, srv.URL+"/ask.json"); status != 400 {
		t.Errorf("missing q status = %d", status)
	}
}

func TestAskJSON(t *testing.T) {
	srv := testServer(t)
	status, ct, body := fetch(t, srv.URL+"/ask.json?q=how+many+complaints+in+queens")
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var out struct {
		Transcript string `json:"transcript"`
		TopQuery   string `json:"top_query"`
		Candidates []struct {
			SQL  string  `json:"sql"`
			Prob float64 `json:"prob"`
		} `json:"candidates"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.TopQuery == "" || len(out.Candidates) == 0 {
		t.Errorf("response = %+v", out)
	}
	sum := 0.0
	for _, c := range out.Candidates {
		sum += c.Prob
		if !strings.HasPrefix(c.SQL, "SELECT") {
			t.Errorf("candidate SQL = %q", c.SQL)
		}
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("candidate probabilities sum to %v", sum)
	}
}

func TestIndexPageEscapesQuery(t *testing.T) {
	srv := testServer(t)
	status, _, body := fetch(t, srv.URL+"/?q=%3Cscript%3Ealert(1)%3C/script%3E")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	if strings.Contains(body, "<script>alert") {
		t.Error("query echoed without escaping")
	}
	if !strings.Contains(body, "MUVE") {
		t.Error("index page missing title")
	}
}

func TestUnknownPath404(t *testing.T) {
	srv := testServer(t)
	if status, _, _ := fetch(t, srv.URL+"/nope"); status != 404 {
		t.Errorf("unknown path status = %d", status)
	}
}

func TestAskCachedSecondHit(t *testing.T) {
	srv := testServer(t)
	url := srv.URL + "/ask?q=how+many+noise+complaints"
	resp1, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp1.Body)
	resp1.Body.Close()
	if got := resp1.Header.Get("X-Muve-Source"); got != "planned" {
		t.Errorf("first request source = %q, want planned", got)
	}
	resp2, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Muve-Source"); got != "cache" {
		t.Errorf("second request source = %q, want cache", got)
	}
}

func TestSessionReuse(t *testing.T) {
	srv := testServer(t)
	url := srv.URL + "/ask?q=how+many+complaints+in+queens&sid=alice"
	for i, want := range []string{"planned", "session"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Muve-Source"); got != want {
			t.Errorf("request %d source = %q, want %q", i, got, want)
		}
	}
}

// warmTestServer serves through the ILP solver, so consecutive session
// utterances exercise the warm-start hint path end to end.
func warmTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	tbl, err := workload.Build(workload.NYC311, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	// SolverILP greedy-seeds its incumbent, so the first utterance is
	// guaranteed a non-empty multiplot even when the wall-clock budget
	// starves under -race or a loaded machine; later utterances then
	// deterministically warm-start from it.
	sys, err := muve.New(db, "requests",
		muve.WithSolver(muve.SolverILP),
		muve.WithILPTimeout(500*time.Millisecond),
		muve.WithMaxCandidates(8),
		muve.WithWidth(600))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := newEngine(sys, db, 0, serve.Config{
		MaxInFlight:  8,
		CacheEntries: 256,
		CacheTTL:     time.Minute,
		Timeout:      10 * time.Second,
		Dataset:      "requests",
		Solver:       "ilp",
		WidthPx:      600,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(engine, sys, "requests", tbl.NumRows()))
	t.Cleanup(srv.Close)
	return srv
}

func TestWarmStartMetricAcrossSessionUtterances(t *testing.T) {
	srv := warmTestServer(t)
	// refresh=1 forces a fresh plan each time while keeping session
	// affinity, so the second and third utterances re-plan the identical
	// instance with the session's previous multiplot as the hint — a
	// full warm-start hit.
	url := srv.URL + "/ask.json?q=average+response+hours+in+Queens&sid=alice&refresh=1"
	for i := 0; i < 3; i++ {
		status, _, body := fetch(t, url)
		if status != 200 {
			t.Fatalf("request %d status = %d: %s", i, status, body)
		}
	}
	_, _, body := fetch(t, srv.URL+"/metrics")
	if !strings.Contains(body, `muve_warmstart_total{result="hit"}`) {
		t.Fatalf("metrics missing warm-start hit counter:\n%s", body)
	}
	// The first utterance has no prior; the two follow-ups must both
	// have warm-started from session state.
	if !strings.Contains(body, `muve_warmstart_total{result="hit"} 2`) {
		t.Errorf("warm-start hits != 2 in:\n%s", body)
	}
}

// TestConcurrentSessionWarmStarts hammers one session from many
// goroutines (run under -race): the planner's read of the previous
// answer and write of the new one must be safe against concurrent
// requests with the same sid.
func TestConcurrentSessionWarmStarts(t *testing.T) {
	srv := warmTestServer(t)
	url := srv.URL + "/ask.json?q=average+response+hours+in+Queens&sid=shared&refresh=1"
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				resp, err := http.Get(url)
				if err != nil {
					errs <- err.Error()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errs <- resp.Status
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent session request failed: %s", e)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Generate one planned and one cached request first.
	for i := 0; i < 2; i++ {
		status, _, _ := fetch(t, srv.URL+"/ask?q=how+many+complaints")
		if status != 200 {
			t.Fatalf("ask status = %d", status)
		}
	}
	status, ct, body := fetch(t, srv.URL+"/metrics")
	if status != 200 || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics = %d %q", status, ct)
	}
	for _, want := range []string{
		"muve_requests_total 2",
		`muve_lookups_total{result="cache"} 1`,
		`muve_lookups_total{result="miss"} 1`,
		"muve_inflight 0",
		"muve_request_seconds_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	status, ct, body = fetch(t, srv.URL+"/debug/vars")
	if status != 200 || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("debug/vars = %d %q", status, ct)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("debug/vars not JSON: %v\n%s", err, body)
	}
	if vars["requests"] != float64(2) {
		t.Errorf("debug/vars requests = %v, want 2", vars["requests"])
	}
}

func TestRequestIDHeader(t *testing.T) {
	tbl, err := workload.Build(workload.NYC311, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	sys, err := muve.New(db, "requests", muve.WithWidth(900))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := newEngine(sys, db, 0, serve.Config{
		Dataset: "requests",
		Solver:  "greedy",
		WidthPx: 900,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.WithLogging(log.New(io.Discard, "", 0), newMux(engine, sys, "requests", tbl.NumRows())))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}
}

func TestIndexPageEscapesImgURL(t *testing.T) {
	srv := testServer(t)
	// A query containing &, % and + must be query-escaped in the <img>
	// src, not mangled by blank replacement.
	status, _, body := fetch(t, srv.URL+"/?q="+"a%20%26%20b%20100%25%20c%2B%2B")
	if status != 200 {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(body, `src="/ask?q=a+%26+b+100%25+c%2B%2B"`) {
		t.Errorf("img src not query-escaped:\n%s", body)
	}
}

func TestTrendEndpoint(t *testing.T) {
	srv := testServer(t)
	status, ct, body := fetch(t, srv.URL+"/trend?q=how+many+complaints&by=year")
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	if ct != "image/svg+xml" || !strings.Contains(body, "<polyline") {
		t.Errorf("trend response wrong: ct=%q", ct)
	}
	if status, _, _ := fetch(t, srv.URL+"/trend?q=x"); status != 400 {
		t.Errorf("missing by status = %d", status)
	}
	if status, _, _ := fetch(t, srv.URL+"/trend?q=count&by=nope"); status != 422 {
		t.Errorf("bad group column status = %d", status)
	}
}

func TestAskVoiceTranscript(t *testing.T) {
	srv := testServer(t)
	status, ct, body := fetch(t, srv.URL+"/ask?q=how+many+noise+complaints+in+brooklyn&format=voice")
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	if strings.TrimSpace(body) == "" || strings.Contains(body, "<svg") {
		t.Errorf("voice body = %.80q, want a spoken transcript", body)
	}
}

func TestAskVoiceJSONAndMetrics(t *testing.T) {
	srv := testServer(t)
	status, _, body := fetch(t, srv.URL+"/ask.json?q=how+many+complaints+in+queens&format=voice")
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	var out struct {
		Source string `json:"source"`
		Voice  *struct {
			Transcript string   `json:"transcript"`
			Words      int      `json:"words"`
			Facts      []string `json:"facts"`
		} `json:"voice"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Voice == nil || out.Voice.Transcript == "" || out.Voice.Words == 0 || len(out.Voice.Facts) == 0 {
		t.Fatalf("voice JSON = %+v", out.Voice)
	}
	if out.Source != string(serve.SourcePlanned) {
		t.Errorf("source = %q, want planned", out.Source)
	}
	// The voice request landed in the speak metric families.
	_, _, metrics := fetch(t, srv.URL+"/metrics")
	for _, want := range []string{
		`muve_speak_total{stat="requests"} 1`,
		`muve_ladder_rung_total{mode="voice",rung="exact"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
	// A plot-mode request for the same transcript plans separately: the
	// modes never share a cache entry.
	status2, ct2, body2 := fetch(t, srv.URL+"/ask?q=how+many+complaints+in+queens")
	if status2 != 200 || !strings.HasPrefix(body2, "<svg") {
		t.Errorf("plot after voice = %d %q %.60q", status2, ct2, body2)
	}
}

func TestAskUnknownFormatRejected(t *testing.T) {
	srv := testServer(t)
	if status, _, _ := fetch(t, srv.URL+"/ask?q=hello&format=hologram"); status != 400 {
		t.Errorf("unknown format status = %d, want 400", status)
	}
}

// TestCheckSketchRate: a -sketch-rate that sqldb would silently treat
// as "no sketches" (>= 1, negative, NaN) fails startup with an error
// naming the flag; 0 and rates inside (0, 1) pass.
func TestCheckSketchRate(t *testing.T) {
	for _, rate := range []float64{0, 0.01, 0.5, 0.99} {
		if err := checkSketchRate(rate); err != nil {
			t.Errorf("rate %v: %v, want accepted", rate, err)
		}
	}
	for _, rate := range []float64{1, 2, -0.1, math.NaN()} {
		err := checkSketchRate(rate)
		if err == nil || !strings.Contains(err.Error(), "-sketch-rate") {
			t.Errorf("rate %v: err = %v, want an error naming -sketch-rate", rate, err)
		}
	}
}
