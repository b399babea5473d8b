package sqldb

import (
	"sort"
	"sync"
	"time"
)

// Aggregate sketches give the progressive path an instant approximate
// first paint. MUVE's candidate queries overwhelmingly share a template
// — same aggregate, same predicate column, different (phonetically
// confusable) constant. One sampled GROUP BY over the predicate column
// therefore precomputes the approximate answer for EVERY constant at
// once; subsequent candidates of the same template are answered from the
// in-memory sketch with zero data movement. Grouped (trend) templates
// work the same way one dimension up: one sampled GROUP BY over
// (predicate column, group column) precomputes every constant's whole
// approximate series. A sketch remembers the *Table it was built from,
// so registering a replacement table under the same name invalidates
// it; registered tables take no appends.

// sketchSeed fixes the sample for sketch builds; a deterministic sample
// keeps sketch answers stable across candidates and runs.
const sketchSeed = 0x5eedc0de

// sketchKey identifies a sketch template: one aggregate computed per
// distinct value of one predicate column, optionally further split by
// one group column (trend templates). groupCol is empty for scalar
// templates.
type sketchKey struct {
	table    string
	agg      Aggregate
	groupCol string
	predCol  string
}

// sketch holds the per-constant approximate values of one template
// over one table. Scalar templates fill vals; grouped templates fill
// rows (constant → [group label, aggregate] rows, ordered exactly as
// the sampled grouped query would order them).
type sketch struct {
	table *Table
	rate  float64
	vals  map[string]Value
	rows  map[string][][]Value
}

// sketchStore caches sketches per DB; a separate lock keeps builds off
// the table-registry lock.
type sketchStore struct {
	mu       sync.Mutex
	rate     float64
	sketches map[sketchKey]*sketch
}

// EnableSketches turns on aggregate sketching at the given sample rate
// in (0, 1); rate 0 disables. The rate bounds build cost (one sampled
// grouped scan per template per table) and first-paint error.
func (db *DB) EnableSketches(rate float64) {
	db.sketch.mu.Lock()
	defer db.sketch.mu.Unlock()
	if rate <= 0 || rate >= 1 {
		db.sketch.rate = 0
		db.sketch.sketches = nil
		return
	}
	db.sketch.rate = rate
	if db.sketch.sketches == nil {
		db.sketch.sketches = make(map[sketchKey]*sketch)
	}
}

// SketchRate returns the configured sketch sample rate (0 = disabled).
func (db *DB) SketchRate() float64 {
	db.sketch.mu.Lock()
	defer db.sketch.mu.Unlock()
	return db.sketch.rate
}

// sketchable extracts the template of a query the sketch store can
// answer: a single aggregate with exactly one string-equality predicate
// on a string column, either ungrouped (scalar template) or grouped by
// one string column other than the predicate column (trend template).
func sketchable(t *Table, q Query) (key sketchKey, constant string, ok bool) {
	if len(q.Aggs) != 1 || len(q.Preds) != 1 {
		return sketchKey{}, "", false
	}
	p := q.Preds[0]
	if p.Op != OpEq || len(p.Values) != 1 || p.Values[0].K != KindString {
		return sketchKey{}, "", false
	}
	c := t.Column(p.Col)
	if c == nil || c.Kind != KindString {
		return sketchKey{}, "", false
	}
	key = sketchKey{table: q.Table, agg: q.Aggs[0], predCol: p.Col}
	switch len(q.GroupBy) {
	case 0:
	case 1:
		g := t.Column(q.GroupBy[0])
		if g == nil || g.Kind != KindString || q.GroupBy[0] == p.Col {
			return sketchKey{}, "", false
		}
		key.groupCol = q.GroupBy[0]
	default:
		return sketchKey{}, "", false
	}
	if err := q.Validate(t); err != nil {
		return sketchKey{}, "", false
	}
	return key, p.Values[0].S, true
}

// SketchLookup answers a scalar (ungrouped) query from an aggregate
// sketch when possible. The returned value is what ExecSampled(q, rate,
// sketchSeed) would produce — bit-identical, since the sketch is built
// by the same deterministic sample and the same ascending-row
// accumulation — so it carries the usual sampled-COUNT/SUM scaling. ok
// is false when sketching is disabled or the query doesn't match a
// sketchable template; stats records whether the sketch had to be
// (re)built.
func (db *DB) SketchLookup(q Query) (Value, ScanStats, bool) {
	if len(q.GroupBy) != 0 {
		return Value{}, ScanStats{}, false
	}
	res, stats, ok := db.SketchLookupResult(q)
	if !ok {
		return Value{}, ScanStats{}, false
	}
	return res.Rows[0][0], stats, true
}

// SketchLookupResult answers a query — scalar or single-string-column
// grouped — from an aggregate sketch when possible, returning the full
// Result shape. The result is bit-identical to ExecSampled(q, rate,
// sketchSeed): same values, same group rows, same group order.
func (db *DB) SketchLookupResult(q Query) (Result, ScanStats, bool) {
	if db.SketchRate() == 0 {
		return Result{}, ScanStats{}, false
	}
	t, err := db.Table(q.Table)
	if err != nil {
		return Result{}, ScanStats{}, false
	}
	key, constant, ok := sketchable(t, q)
	if !ok {
		return Result{}, ScanStats{}, false
	}

	db.sketch.mu.Lock()
	defer db.sketch.mu.Unlock()
	rate := db.sketch.rate
	if rate == 0 {
		return Result{}, ScanStats{}, false
	}
	var stats ScanStats
	s := db.sketch.sketches[key]
	if s == nil || s.table != t || s.rate != rate {
		s, err = buildSketch(db, t, key, rate)
		if err != nil {
			return Result{}, ScanStats{}, false
		}
		db.sketch.sketches[key] = s
		stats.SketchBuilds++
		stats.Scans++
		stats.Rows += int64(t.NumRows())
	}
	stats.SketchHits++
	cols := append(append([]string(nil), q.GroupBy...), aggColNames(q)...)
	if key.groupCol == "" {
		if v, ok := s.vals[constant]; ok {
			return Result{Cols: cols, Rows: [][]Value{{v}}}, stats, true
		}
		// Constant absent from the sample (or the data): exactly what the
		// sampled query would see — an empty selection.
		var empty aggState
		return Result{Cols: cols, Rows: [][]Value{{empty.value(key.agg.Func, 1/rate)}}}, stats, true
	}
	// Grouped template: the constant's precomputed series. An absent
	// constant means the sampled grouped query would emit zero rows.
	src := s.rows[constant]
	out := Result{Cols: cols, Rows: make([][]Value, len(src))}
	for i, row := range src {
		out.Rows[i] = append([]Value(nil), row...)
	}
	return out, stats, true
}

// buildSketch runs the sampled grouped scan that materializes one
// template's sketch: GROUP BY the predicate column for scalar
// templates, GROUP BY (predicate column, group column) for grouped
// ones. Called with the sketch lock held: concurrent lookups of the
// same cold template build once.
func buildSketch(db *DB, t *Table, key sketchKey, rate float64) (*sketch, error) {
	q := Query{
		Aggs:    []Aggregate{key.agg},
		Table:   key.table,
		GroupBy: []string{key.predCol},
	}
	if key.groupCol != "" {
		q.GroupBy = append(q.GroupBy, key.groupCol)
	}
	start := time.Now()
	out, _, err := sharedScan(t, []Query{q}, rate, sketchSeed)
	// The build reads the sampled fraction of the table, like any
	// sampled scan.
	db.throttle(start, float64(t.NumRows())*rate)
	if err != nil {
		return nil, err
	}
	res := out[0]
	s := &sketch{table: t, rate: rate}
	if key.groupCol == "" {
		s.vals = make(map[string]Value, len(res.Rows))
		for _, row := range res.Rows {
			if len(row) != 2 {
				continue
			}
			s.vals[row[0].S] = row[1]
		}
		return s, nil
	}
	s.rows = make(map[string][][]Value, 64)
	for _, row := range res.Rows {
		if len(row) != 3 {
			continue
		}
		s.rows[row[0].S] = append(s.rows[row[0].S], []Value{row[1], row[2]})
	}
	// The two-column build emits groups ordered by serialized composite
	// key (dictionary codes), but a direct sampled execution of one
	// constant's query takes the single-string-column fast path, which
	// orders groups by dictionary *string*. Re-sort each constant's
	// series to that order so sketch answers match bit-for-bit,
	// ordering included.
	for _, rows := range s.rows {
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].S < rows[j][0].S })
	}
	return s, nil
}
