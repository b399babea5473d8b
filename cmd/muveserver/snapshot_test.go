package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"muve"
	"muve/internal/serve"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// snapEngine builds an engine with the given stale window plus a live
// test server over it, so tests can populate the cache with a real ask
// before snapshotting.
func snapEngine(t *testing.T, staleFor time.Duration) (*serve.Engine, *httptest.Server) {
	t.Helper()
	tbl, err := workload.Build(workload.NYC311, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.Register(tbl)
	sys, err := muve.New(db, "requests", muve.WithWidth(900))
	if err != nil {
		t.Fatal(err)
	}
	engine, err := sys.NewEngine(serve.Config{
		MaxInFlight:  8,
		CacheEntries: 256,
		CacheTTL:     time.Minute,
		Timeout:      10 * time.Second,
		StaleFor:     staleFor,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(engine, sys, "requests", tbl.NumRows()))
	t.Cleanup(srv.Close)
	return engine, srv
}

// writeWarmSnapshot serves one ask through the engine (filling its
// cache) and spills a snapshot to a temp path, returning that path.
func writeWarmSnapshot(t *testing.T) string {
	t.Helper()
	engine, srv := snapEngine(t, time.Minute)
	status, _, _ := fetch(t, srv.URL+"/ask.json?q=how+many+noise+complaints+in+brooklyn")
	if status != 200 {
		t.Fatalf("warming ask = %d", status)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := saveSnapshot(path, engine, "requests", "greedy", 900); err != nil {
		t.Fatal(err)
	}
	return path
}

// skippedReasons renders the engine's metrics and returns the
// muve_snapshot_skipped_total lines, for asserting on the reason label.
func skippedReasons(engine *serve.Engine) string {
	var buf bytes.Buffer
	engine.Metrics().WriteProm(&buf)
	var lines []string
	for _, ln := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(ln, "muve_snapshot_skipped_total{") {
			lines = append(lines, ln)
		}
	}
	return strings.Join(lines, "\n")
}

// snapshotKeys returns the cache keys stored in the snapshot at path.
func snapshotKeys(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env snapshotEnvelope
	var snap snapshotFile
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &snap); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(snap.Cache))
	for i, e := range snap.Cache {
		keys[i] = e.Key
	}
	return keys
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := writeWarmSnapshot(t)
	keys := snapshotKeys(t, path)
	if len(keys) == 0 {
		t.Fatal("warm snapshot holds no cache entries")
	}
	engine, _ := snapEngine(t, time.Minute)
	entries, _, err := loadSnapshot(path, engine, "requests", "greedy", 900, time.Hour)
	if err != nil {
		t.Fatalf("loadSnapshot: %v", err)
	}
	if entries != len(keys) {
		t.Errorf("restored %d cache entries, snapshot holds %d", entries, len(keys))
	}
	for _, k := range keys {
		if _, _, ok := engine.Cache().GetStale(k); !ok {
			t.Errorf("restored key %q is not served by GetStale", k)
		}
	}
	if got := skippedReasons(engine); got != "" {
		t.Errorf("clean restore counted skips:\n%s", got)
	}

	// Without a stale window a restored answer would be unreachable, so
	// nothing is stored and nothing may be reported as restored.
	cold, _ := snapEngine(t, 0)
	entries, _, err = loadSnapshot(path, cold, "requests", "greedy", 900, time.Hour)
	if err != nil {
		t.Fatalf("loadSnapshot without stale window: %v", err)
	}
	if entries != 0 || cold.Cache().Len() != 0 {
		t.Errorf("no stale window: reported %d entries, cache holds %d; want 0, 0", entries, cold.Cache().Len())
	}
}

func TestSnapshotMissingFileIsNotAnError(t *testing.T) {
	engine, _ := snapEngine(t, time.Minute)
	entries, sessions, err := loadSnapshot(filepath.Join(t.TempDir(), "absent.json"), engine, "requests", "greedy", 900, time.Hour)
	if err != nil || entries != 0 || sessions != 0 {
		t.Fatalf("missing file = (%d, %d, %v), want (0, 0, nil)", entries, sessions, err)
	}
}

// rewriteEnvelope loads the snapshot at path, lets mutate damage the
// envelope, and writes it back.
func rewriteEnvelope(t *testing.T, path string, mutate func(*snapshotEnvelope)) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	mutate(&env)
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// expectSkip asserts that loading the snapshot restores nothing, returns
// an error, and bumps muve_snapshot_skipped_total with the given reason.
func expectSkip(t *testing.T, path, reason string, maxAge time.Duration) {
	t.Helper()
	engine, _ := snapEngine(t, time.Minute)
	entries, sessions, err := loadSnapshot(path, engine, "requests", "greedy", 900, maxAge)
	if err == nil {
		t.Fatalf("want %s error, got nil", reason)
	}
	if entries != 0 || sessions != 0 {
		t.Fatalf("skipped snapshot still restored %d entries, %d sessions", entries, sessions)
	}
	want := fmt.Sprintf("muve_snapshot_skipped_total{reason=%q} 1", reason)
	if got := skippedReasons(engine); got != want {
		t.Errorf("skip metric = %q, want %q (load err: %v)", got, want, err)
	}
}

func TestSnapshotTruncatedPayloadSkipped(t *testing.T) {
	path := writeWarmSnapshot(t)
	rewriteEnvelope(t, path, func(env *snapshotEnvelope) { env.Length += 7 })
	expectSkip(t, path, "truncated", time.Hour)
}

func TestSnapshotCorruptCRCSkipped(t *testing.T) {
	path := writeWarmSnapshot(t)
	rewriteEnvelope(t, path, func(env *snapshotEnvelope) { env.CRC32 ^= 0xdeadbeef })
	expectSkip(t, path, "corrupt", time.Hour)
}

func TestSnapshotLegacyFileSkipped(t *testing.T) {
	// A pre-envelope snapshot — a bare snapshotFile — has no version
	// field and must be refused, not half-trusted.
	path := filepath.Join(t.TempDir(), "snap.json")
	legacy, _ := json.Marshal(snapshotFile{SavedAt: time.Now(), Dataset: "requests", Solver: "greedy", WidthPx: 900})
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	expectSkip(t, path, "corrupt", time.Hour)
}

func TestSnapshotGarbageSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	expectSkip(t, path, "corrupt", time.Hour)
}

func TestSnapshotStaleSkipped(t *testing.T) {
	path := writeWarmSnapshot(t)
	expectSkip(t, path, "stale", time.Nanosecond)
}

func TestSnapshotConfigMismatchSkipped(t *testing.T) {
	path := writeWarmSnapshot(t)
	engine, _ := snapEngine(t, time.Minute)
	entries, sessions, err := loadSnapshot(path, engine, "requests", "exhaustive", 900, time.Hour)
	if err == nil || entries != 0 || sessions != 0 {
		t.Fatalf("mismatched config = (%d, %d, %v), want skip", entries, sessions, err)
	}
	want := `muve_snapshot_skipped_total{reason="mismatch"} 1`
	if got := skippedReasons(engine); got != want {
		t.Errorf("skip metric = %q, want %q", got, want)
	}
}
