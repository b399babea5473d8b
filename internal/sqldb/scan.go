package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// ScanStats describes the work one or more shared scans performed. The
// serving layer aggregates these per answer and exports them as
// muve_scan_total{stat} metric, one stat per field; zero-valued stats
// mean no shared scan ran.
type ScanStats struct {
	// Scans is the number of table passes executed.
	Scans int64
	// Rows is the total rows covered by those passes: table rows per
	// scan, sampled or not, since a sampled scan hashes every row to
	// draw its sample and only filters and folds the rows drawn.
	Rows int64
	// Batches is the number of vectorized batches processed.
	Batches int64
	// Candidates is the number of candidate aggregates answered.
	Candidates int64
	// Predicates is the total predicate instances across candidates.
	Predicates int64
	// SharedPredicates is the number of distinct predicates actually
	// evaluated; Predicates − SharedPredicates filters were deduplicated.
	SharedPredicates int64
	// Groups is the total output groups emitted for grouped candidates
	// (zero when every candidate was ungrouped).
	Groups int64
	// Aggregates is the total aggregate accumulators maintained across
	// candidates; Aggregates − Candidates counts the extra aggregates
	// multi-aggregate candidates rode along for free.
	Aggregates int64
	// SketchHits counts candidate values answered from a precomputed
	// aggregate sketch instead of any scan.
	SketchHits int64
	// SketchBuilds counts sketch constructions (each one sampled scan).
	SketchBuilds int64
}

// Add accumulates o into s.
func (s *ScanStats) Add(o ScanStats) {
	s.Scans += o.Scans
	s.Rows += o.Rows
	s.Batches += o.Batches
	s.Candidates += o.Candidates
	s.Predicates += o.Predicates
	s.SharedPredicates += o.SharedPredicates
	s.Groups += o.Groups
	s.Aggregates += o.Aggregates
	s.SketchHits += o.SketchHits
	s.SketchBuilds += o.SketchBuilds
}

// Empty reports whether no scan work was recorded.
func (s ScanStats) Empty() bool { return s == ScanStats{} }

// scanCandidate is one candidate query being accumulated during a
// shared scan. Ungrouped candidates keep one aggState per aggregate in
// `states`; a single-string-column GROUP BY — the shape every merged
// MUVE query and trend query has — keeps a dense states slice indexed
// directly by dictionary code (states[code*nAggs+j]); composite group
// keys fall back to hash aggregation, mirroring groupAggregate.
type scanCandidate struct {
	filters []int // sorted, distinct indices into the distinct-filter list
	never   bool  // some predicate can match no row
	q       Query
	inputs  []aggInput
	nAggs   int

	// Flat accumulator storage: ungrouped (len nAggs) or dictionary-code
	// indexed (len nCodes*nAggs, keyCol non-nil).
	states []aggState
	keyCol *Column
	seen   []bool

	// Composite-key fallback (keyCols non-nil).
	keyCols []*Column
	hashed  map[string]*hashedGroup
	keyBuf  []byte
}

// hashedGroup is one composite group's accumulator tuple.
type hashedGroup struct {
	key    []Value
	states []aggState
}

// aggInput is one aggregate's typed input column. Both slices are nil
// for COUNT: its result depends on the accumulator's row count alone,
// so COUNT of any column folds like COUNT(*).
type aggInput struct {
	ints   []int64
	floats []float64
}

// newAggInput resolves an aggregate's input column.
func newAggInput(t *Table, a Aggregate) aggInput {
	if a.Func == AggCount || a.Col == "" {
		return aggInput{}
	}
	c := t.Column(a.Col)
	return aggInput{ints: c.ints, floats: c.floats}
}

// addRow folds row i into s.
func (in aggInput) addRow(s *aggState, i int) {
	switch {
	case in.ints != nil:
		s.add(float64(in.ints[i]))
	case in.floats != nil:
		s.add(in.floats[i])
	default:
		s.count++
	}
}

// foldWords folds the rows selected by sel's words — batch-local rows
// starting at table row lo — into s, in ascending row order, so the
// float additions happen in exactly the row-at-a-time order.
func (in aggInput) foldWords(s *aggState, sel bitmap, lo int) {
	switch {
	case in.ints != nil:
		for wi, w := range sel {
			base := lo + wi<<6
			for ; w != 0; w &= w - 1 {
				s.add(float64(in.ints[base+bits.TrailingZeros64(w)]))
			}
		}
	case in.floats != nil:
		for wi, w := range sel {
			base := lo + wi<<6
			for ; w != 0; w &= w - 1 {
				s.add(in.floats[base+bits.TrailingZeros64(w)])
			}
		}
	default:
		for _, w := range sel {
			s.count += int64(bits.OnesCount64(w))
		}
	}
}

// newScanCandidate sets up accumulator storage for one validated query.
func newScanCandidate(t *Table, q Query) *scanCandidate {
	c := &scanCandidate{q: q, nAggs: len(q.Aggs)}
	c.inputs = make([]aggInput, c.nAggs)
	for j, a := range q.Aggs {
		c.inputs[j] = newAggInput(t, a)
	}
	switch {
	case len(q.GroupBy) == 0:
		c.states = make([]aggState, c.nAggs)
	case len(q.GroupBy) == 1 && t.Column(q.GroupBy[0]).Kind == KindString:
		c.keyCol = t.Column(q.GroupBy[0])
		c.states = make([]aggState, len(c.keyCol.dict)*c.nAggs)
		c.seen = make([]bool, len(c.keyCol.dict))
	default:
		c.keyCols = make([]*Column, len(q.GroupBy))
		for k, g := range q.GroupBy {
			c.keyCols[k] = t.Column(g)
		}
		c.hashed = make(map[string]*hashedGroup, 64)
	}
	return c
}

// foldBatch accumulates the rows sel selects — batch-local rows starting
// at table row lo — into the candidate's aggregates. Ungrouped
// candidates fold word at a time (popcounts for COUNT, indexed typed
// reads otherwise); grouped candidates fold row by row. Either way each
// accumulator sees its rows in ascending order, so every group's
// accumulator performs exactly the float additions — in exactly the
// order — the row-at-a-time path performs for that group.
func (c *scanCandidate) foldBatch(sel bitmap, lo int) {
	if c.keyCol == nil && c.keyCols == nil {
		for j, in := range c.inputs {
			in.foldWords(&c.states[j], sel, lo)
		}
		return
	}
	for wi, w := range sel {
		base := lo + wi<<6
		for ; w != 0; w &= w - 1 {
			c.fold(base + bits.TrailingZeros64(w))
		}
	}
}

// fold accumulates row i into a grouped candidate's aggregates.
func (c *scanCandidate) fold(i int) {
	var states []aggState
	if c.keyCol != nil {
		code := c.keyCol.codes[i]
		c.seen[code] = true
		states = c.states[int(code)*c.nAggs : (int(code)+1)*c.nAggs]
	} else {
		c.keyBuf = c.keyBuf[:0]
		for _, kc := range c.keyCols {
			c.keyBuf = appendKeyPart(c.keyBuf, kc, i)
		}
		g, ok := c.hashed[string(c.keyBuf)]
		if !ok {
			key := make([]Value, len(c.keyCols))
			for k, kc := range c.keyCols {
				key[k] = kc.Value(i)
			}
			g = &hashedGroup{key: key, states: make([]aggState, c.nAggs)}
			c.hashed[string(c.keyBuf)] = g
		}
		states = g.states
	}
	for j, in := range c.inputs {
		in.addRow(&states[j], i)
	}
}

// groupCount returns the number of output groups a grouped candidate
// produced (zero for ungrouped candidates).
func (c *scanCandidate) groupCount() int64 {
	switch {
	case c.keyCol != nil:
		var n int64
		for _, ok := range c.seen {
			if ok {
				n++
			}
		}
		return n
	case c.keyCols != nil:
		return int64(len(c.hashed))
	}
	return 0
}

// result renders the candidate's final Result, matching the
// row-at-a-time executor's shape and ordering exactly: ungrouped
// candidates emit one row; dictionary-code groups emit in dictionary
// string order (emitGroupedResult); composite groups emit sorted by
// their serialized key, like groupAggregate.
func (c *scanCandidate) result(scale float64) Result {
	switch {
	case c.keyCol != nil:
		return emitGroupedResult(c.q, c.keyCol, c.states, c.seen, scale)
	case c.keyCols != nil:
		cols := append(append([]string(nil), c.q.GroupBy...), aggColNames(c.q)...)
		res := Result{Cols: cols}
		keys := make([]string, 0, len(c.hashed))
		for k := range c.hashed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g := c.hashed[k]
			row := make([]Value, 0, len(g.key)+c.nAggs)
			row = append(row, g.key...)
			for j, a := range c.q.Aggs {
				row = append(row, g.states[j].value(a.Func, scale))
			}
			res.Rows = append(res.Rows, row)
		}
		return res
	default:
		row := make([]Value, c.nAggs)
		for j, a := range c.q.Aggs {
			row[j] = c.states[j].value(a.Func, scale)
		}
		return Result{Cols: aggColNames(c.q), Rows: [][]Value{row}}
	}
}

// sharedScan evaluates every candidate query over t — any mix of
// ungrouped, grouped and multi-aggregate shapes — in ONE pass over the
// table. Distinct predicates (by meaning, see batchFilter) are compiled
// once into typed kernels and evaluated once per batch into selection
// bitmaps, with all single-code filters on one string column filled in
// one pass over its codes (sampled scans check filters at sampled rows
// only); candidates sharing the same filter set share
// the combined bitmap; surviving rows are folded into per-candidate
// accumulators in ascending row order, which makes every result
// bit-identical to the row-at-a-time path (same float additions in the
// same order, same deterministic sample membership, same group output
// order by construction: ascending batches, ascending set bits, and
// group emission ordered exactly as the serial executor orders it).
// A rate in (0, 1) runs on the deterministic sample ExecSampled reads
// for the same seed; results are scaled like ExecSampled's.
func sharedScan(t *Table, queries []Query, rate float64, seed uint64) ([]Result, ScanStats, error) {
	stats := ScanStats{Scans: 1, Rows: int64(t.NumRows()), Candidates: int64(len(queries))}
	if len(queries) == 0 {
		return nil, ScanStats{}, nil
	}

	// Compile: dedup predicates across candidates by meaning.
	// Only a predicate's first spelling builds a kernel.
	filterIdx := make(map[string]int)
	var filters []batchFilter
	var valBuf [8]uint64
	var keyBuf [96]byte
	cands := make([]*scanCandidate, len(queries))
	for qi, q := range queries {
		if err := q.Validate(t); err != nil {
			return nil, ScanStats{}, err
		}
		cand := newScanCandidate(t, q)
		stats.Predicates += int64(len(q.Preds))
		stats.Aggregates += int64(len(q.Aggs))
		for _, p := range q.Preds {
			col, vals, key, err := resolveFilter(t, p, valBuf[:0], keyBuf[:0])
			if err != nil {
				return nil, ScanStats{}, err
			}
			fi, ok := filterIdx[string(key)]
			if !ok {
				fi = len(filters)
				filterIdx[string(key)] = fi
				filters = append(filters, newBatchFilter(col, vals))
			}
			if filters[fi].shape == shapeNever {
				cand.never = true
			} else {
				cand.filters = append(cand.filters, fi)
			}
		}
		slices.Sort(cand.filters)
		cand.filters = slices.Compact(cand.filters)
		cands[qi] = cand
	}
	stats.SharedPredicates = int64(len(filters))

	// Group candidates by filter set so each distinct conjunction
	// combines its bitmaps — and walks its surviving rows — exactly once.
	type scanGroup struct {
		filters []int
		members []*scanCandidate
	}
	groupIdx := make(map[string]int)
	var groups []*scanGroup
	var sigBuf [64]byte
	for _, cand := range cands {
		if cand.never {
			continue // empty selection; its zero state already renders correctly
		}
		sig := sigBuf[:0]
		for _, fi := range cand.filters {
			sig = binary.AppendUvarint(sig, uint64(fi))
		}
		gi, ok := groupIdx[string(sig)]
		if !ok {
			gi = len(groups)
			groupIdx[string(sig)] = gi
			groups = append(groups, &scanGroup{filters: cand.filters})
		}
		groups[gi].members = append(groups[gi].members, cand)
	}

	// Plan the kernels for the filters some live group still references:
	// several single-code filters on one column share a one-pass fill;
	// every other filter runs its own kernel. A sampled scan instead
	// checks every filter at sampled rows only, so its filter work shrinks
	// with its sample.
	sampling := rate > 0 && rate < 1
	var threshold uint64
	if sampling {
		// Must match filterRows's expression exactly so both paths
		// agree on sample membership.
		threshold = uint64(rate * float64(math.MaxUint64))
	}
	used := make([]bool, len(filters))
	for _, g := range groups {
		for _, fi := range g.filters {
			used[fi] = true
		}
	}
	bms := make([]bitmap, len(filters))
	var passes []*codePass
	if !sampling {
		byCol := make(map[*Column][]int)
		var cols []*Column
		for fi, f := range filters {
			if used[fi] && f.shape == shapeCode {
				if byCol[f.col] == nil {
					cols = append(cols, f.col)
				}
				byCol[f.col] = append(byCol[f.col], fi)
			}
		}
		for _, col := range cols {
			if fis := byCol[col]; len(fis) > 1 {
				passes = append(passes, newCodePass(col, filters, fis, bms))
			}
		}
	}
	var own []int
	for fi := range filters {
		if used[fi] && bms[fi] == nil {
			bms[fi] = newBitmap(scanBatchRows)
			own = append(own, fi)
		}
	}

	// base selects the batch's rows in the sample (or all of them).
	base := newBitmap(scanBatchRows)
	cur := newBitmap(scanBatchRows)
	rows := t.NumRows()
	for lo := 0; lo < rows; lo += scanBatchRows {
		n := min(rows-lo, scanBatchRows)
		stats.Batches++
		nWords := (n + 63) / 64
		if sampling {
			fillSample(base, lo, n, seed, threshold)
		} else {
			base.setAll(n)
		}
		for _, p := range passes {
			p.fill(lo, n)
		}
		for _, fi := range own {
			if sampling {
				filters[fi].fillSparse(bms[fi][:nWords], base[:nWords], lo)
			} else {
				filters[fi].fill(bms[fi], lo, n)
			}
		}
		for _, g := range groups {
			sel := base
			if len(g.filters) > 0 {
				cur.copyFrom(base, nWords)
				for _, fi := range g.filters {
					cur.and(bms[fi], nWords)
				}
				sel = cur
			}
			for _, m := range g.members {
				m.foldBatch(sel[:nWords], lo)
			}
		}
	}

	scale := 1.0
	if sampling {
		scale = 1 / rate
	}
	out := make([]Result, len(queries))
	for qi, cand := range cands {
		out[qi] = cand.result(scale)
		stats.Groups += cand.groupCount()
	}
	return out, stats, nil
}

// ExecSharedResults evaluates a set of queries of any supported shape —
// ungrouped or grouped, single- or multi-aggregate — all against the
// same table, in one shared table pass, and returns one full Result per
// query (positionally). This is the cross-candidate generalization of
// the paper's query merging: merging batches only same-template
// candidates into IN + GROUP BY, while the shared scan feeds arbitrary
// candidate shapes — different functions, columns, predicates, group
// keys and aggregate counts — from a single scan's worth of data
// movement.
func (db *DB) ExecSharedResults(queries []Query) ([]Result, ScanStats, error) {
	return db.execShared(queries, 0, 0)
}

// ExecSharedResultsSampled is ExecSharedResults over the deterministic
// uniform sample with the given rate in (0, 1]; COUNT and SUM are
// scaled, and sample membership matches ExecSampled for the same seed,
// so approximate shared-scan answers agree bit-for-bit with per-query
// sampled answers.
func (db *DB) ExecSharedResultsSampled(queries []Query, rate float64, seed uint64) ([]Result, ScanStats, error) {
	if rate <= 0 || rate > 1 {
		return nil, ScanStats{}, fmt.Errorf("sqldb: sample rate %v outside (0, 1]", rate)
	}
	return db.execShared(queries, rate, seed)
}

func (db *DB) execShared(queries []Query, rate float64, seed uint64) ([]Result, ScanStats, error) {
	if len(queries) == 0 {
		return nil, ScanStats{}, nil
	}
	name := queries[0].Table
	for _, q := range queries[1:] {
		if q.Table != name {
			return nil, ScanStats{}, fmt.Errorf("sqldb: shared scan spans tables %q and %q", name, q.Table)
		}
	}
	t, err := db.Table(name)
	if err != nil {
		return nil, ScanStats{}, err
	}
	start := time.Now()
	res, stats, err := sharedScan(t, queries, rate, seed)
	// The whole point: one scan's worth of data movement feeds every
	// candidate, so the throughput model charges the table ONCE — not
	// once per query like the row-at-a-time path.
	effective := float64(t.NumRows())
	if rate > 0 && rate < 1 {
		effective *= rate
	}
	db.throttle(start, effective)
	return res, stats, err
}
