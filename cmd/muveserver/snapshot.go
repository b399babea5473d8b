package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"muve"
	"muve/internal/serve"
)

// The drain snapshot is the crash-only counterpart of a warm cache: on
// SIGTERM the server spills every still-servable cached answer and every
// session's warm-start hint to one JSON file, and a restarted replica
// loads them back as *stale* cache entries (serve.Cache.PutStale) and
// restored session state. Restored answers are deliberately reachable
// only through the degradation ladder's stale rung — they are old by
// definition — but that is enough for the replica to answer repeat
// queries immediately while its own cache refills.
//
// Everything here is best-effort: a missing, corrupt, or mismatched
// snapshot (different dataset/solver/width) means a cold start, never a
// failed one. The payload is wrapped in a digest envelope — declared
// length plus CRC32 — so a torn write or bit rot is detected before a
// single byte of it is trusted, and an age cap keeps a replica from
// resurrecting answers old enough to mislead. Every refused restore is
// counted in muve_snapshot_skipped_total{reason}.

// snapshotVersion is the envelope format version. Files written without
// an envelope (or with a different version) are skipped, not guessed at.
const snapshotVersion = 1

// snapshotEnvelope wraps the marshaled snapshotFile with enough
// redundancy to reject damaged files: Length is the payload's byte
// count (a truncated tail shows up as a shortfall even when the JSON
// happens to still parse) and CRC32 is its IEEE checksum.
type snapshotEnvelope struct {
	Version int             `json:"version"`
	Length  int             `json:"length"`
	CRC32   uint32          `json:"crc32"`
	Payload json.RawMessage `json:"payload"`
}

// snapshotFile is the on-disk format. Answers are stored as raw JSON so
// a single unmarshalable entry (or a future Answer shape change) skips
// that entry rather than the whole file.
type snapshotFile struct {
	SavedAt  time.Time     `json:"saved_at"`
	Dataset  string        `json:"dataset"`
	Solver   string        `json:"solver"`
	WidthPx  int           `json:"width_px"`
	Cache    []snapAnswer  `json:"cache,omitempty"`
	Sessions []snapSession `json:"sessions,omitempty"`
}

// snapAnswer is one cache entry: the engine's cache key and the answer.
type snapAnswer struct {
	Key    string          `json:"key"`
	Answer json.RawMessage `json:"answer"`
}

// snapSession is one session's warm-start hints, per output modality.
type snapSession struct {
	ID    string          `json:"id"`
	Plot  json.RawMessage `json:"plot,omitempty"`
	Voice json.RawMessage `json:"voice,omitempty"`
}

// marshalAnswer serializes an answer for the snapshot, dropping the
// progressive trace (bulky, replay-only) and tolerating unmarshalable
// content (e.g. NaN plot values) by returning nil.
func marshalAnswer(ans *muve.Answer) json.RawMessage {
	if ans == nil {
		return nil
	}
	a := *ans
	a.Trace = nil
	b, err := json.Marshal(&a)
	if err != nil {
		return nil
	}
	return b
}

// saveSnapshot spills the engine's warm state to path via a temp file
// and rename, so a crash mid-write leaves either the old snapshot or
// none — never a torn one. The payload rides inside a length+CRC
// envelope so the loader can tell a damaged file from a valid one.
func saveSnapshot(path string, engine *serve.Engine, dataset, solver string, widthPx int) error {
	snap := snapshotFile{
		SavedAt: time.Now(),
		Dataset: dataset,
		Solver:  solver,
		WidthPx: widthPx,
	}
	for _, e := range engine.Cache().Entries() {
		ans, ok := e.Value.(*muve.Answer)
		if !ok {
			continue
		}
		if raw := marshalAnswer(ans); raw != nil {
			snap.Cache = append(snap.Cache, snapAnswer{Key: e.Key, Answer: raw})
		}
	}
	engine.Sessions().Range(func(s *serve.Session) {
		st, _ := s.State().(*muve.SessionState)
		if st == nil {
			return
		}
		ss := snapSession{ID: s.ID, Plot: marshalAnswer(st.Plot), Voice: marshalAnswer(st.Voice)}
		if ss.Plot == nil && ss.Voice == nil {
			return
		}
		snap.Sessions = append(snap.Sessions, ss)
	})
	payload, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	env := snapshotEnvelope{
		Version: snapshotVersion,
		Length:  len(payload),
		CRC32:   crc32.ChecksumIEEE(payload),
		Payload: payload,
	}
	b, err := json.Marshal(&env)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadSnapshot restores a prior replica's spilled state into the
// engine. Returns how many cache entries were stored as stale-rung
// answers (none without a stale window) and how many sessions were
// restored. A missing file is not an error; a damaged, stale, or mismatched
// snapshot is skipped whole and counted, because restoring half-trusted
// state is worse than a cold start:
//
//   - no envelope or wrong version          → reason "corrupt"
//   - payload shorter/longer than declared  → reason "truncated"
//   - CRC32 disagreement                    → reason "corrupt"
//   - older than maxAge (when maxAge > 0)   → reason "stale"
//   - different dataset/solver/width        → reason "mismatch"
func loadSnapshot(path string, engine *serve.Engine, dataset, solver string, widthPx int, maxAge time.Duration) (entries, sessions int, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	skip := func(reason, format string, args ...any) (int, int, error) {
		engine.Metrics().SnapshotSkipped.With(reason).Inc()
		return 0, 0, fmt.Errorf("snapshot %s: %s", path, fmt.Sprintf(format, args...))
	}
	var env snapshotEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return skip("corrupt", "unreadable envelope: %v", err)
	}
	if env.Version != snapshotVersion {
		return skip("corrupt", "envelope version %d, want %d", env.Version, snapshotVersion)
	}
	if len(env.Payload) != env.Length {
		return skip("truncated", "payload %d bytes, envelope declares %d", len(env.Payload), env.Length)
	}
	if sum := crc32.ChecksumIEEE(env.Payload); sum != env.CRC32 {
		return skip("corrupt", "payload crc32 %08x, envelope declares %08x", sum, env.CRC32)
	}
	var snap snapshotFile
	if err := json.Unmarshal(env.Payload, &snap); err != nil {
		return skip("corrupt", "unreadable payload: %v", err)
	}
	if maxAge > 0 && time.Since(snap.SavedAt) > maxAge {
		return skip("stale", "saved %s ago, age cap %s", time.Since(snap.SavedAt).Round(time.Second), maxAge)
	}
	if snap.Dataset != dataset || snap.Solver != solver || snap.WidthPx != widthPx {
		return skip("mismatch", "config %s/%s/%dpx, want %s/%s/%dpx",
			snap.Dataset, snap.Solver, snap.WidthPx, dataset, solver, widthPx)
	}
	unmarshalAnswer := func(raw json.RawMessage) *muve.Answer {
		if len(raw) == 0 {
			return nil
		}
		var ans muve.Answer
		if err := json.Unmarshal(raw, &ans); err != nil {
			return nil
		}
		return &ans
	}
	for _, e := range snap.Cache {
		if ans := unmarshalAnswer(e.Answer); ans != nil && engine.Cache().PutStale(e.Key, ans) {
			entries++
		}
	}
	for _, ss := range snap.Sessions {
		sess := engine.Sessions().Get(ss.ID)
		if sess == nil {
			continue
		}
		st := &muve.SessionState{Plot: unmarshalAnswer(ss.Plot), Voice: unmarshalAnswer(ss.Voice)}
		if st.Plot == nil && st.Voice == nil {
			continue
		}
		sess.SetState(st)
		sessions++
	}
	return entries, sessions, nil
}
