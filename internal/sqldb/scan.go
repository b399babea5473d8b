package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muve/internal/procs"
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
	// Workers is the number of goroutines that ran the widest scan, the
	// caller included. Unlike the counts above, Add keeps its maximum.
	Workers int64
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
	s.Workers = max(s.Workers, o.Workers)
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
// float additions happen in exactly the row-at-a-time order. It folds
// into a local copy and stores it once: the accumulators of candidates
// folded on different goroutines can share a cache line.
func (in aggInput) foldWords(s *aggState, sel bitmap, lo int) {
	st := *s
	switch {
	case in.ints != nil:
		for wi, w := range sel {
			base := lo + wi<<6
			for ; w != 0; w &= w - 1 {
				st.add(float64(in.ints[base+bits.TrailingZeros64(w)]))
			}
		}
	case in.floats != nil:
		for wi, w := range sel {
			base := lo + wi<<6
			for ; w != 0; w &= w - 1 {
				st.add(in.floats[base+bits.TrailingZeros64(w)])
			}
		}
	default:
		for _, w := range sel {
			st.count += int64(bits.OnesCount64(w))
		}
	}
	*s = st
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

// rowCost is the fold work per selected row, in aggregate updates:
// ungrouped COUNTs cost popcounts only, grouped candidates also look up
// their group.
func (c *scanCandidate) rowCost() int64 {
	if c.keyCol != nil || c.keyCols != nil {
		return 1 + int64(len(c.inputs))
	}
	var n int64
	for _, in := range c.inputs {
		if in.ints != nil || in.floats != nil {
			n++
		}
	}
	return n
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

// scanBatchesPerWorker is the fewest batches a shared scan hands each of
// its workers, so a table under 2·scanBatchesPerWorker batches (65,536
// rows) is scanned by its caller alone. Below it, starting the helpers
// and buffering every group's selection between the two phases costs
// more than the second CPU saves; see DESIGN.md for the crossover.
const scanBatchesPerWorker = 16

// sharedScan evaluates every candidate query over t in one shared pass
// (see sharedScanWorkers) on as many goroutines as the table's size
// warrants and the process-wide helper budget grants: the caller counts
// as one, and the helpers go back when the scan returns. A scan granted
// no helpers runs on its caller alone, with identical results.
func sharedScan(t *Table, queries []Query, rate float64, seed uint64) ([]Result, ScanStats, error) {
	want := min(runtime.GOMAXPROCS(0), numBatches(t.NumRows())/scanBatchesPerWorker)
	helpers := procs.Enter(want - 1)
	defer procs.Leave(helpers)
	return sharedScanWorkers(t, queries, rate, seed, 1+helpers)
}

// numBatches is the number of scan batches covering rows table rows.
func numBatches(rows int) int {
	return (rows + scanBatchRows - 1) / scanBatchRows
}

// sharedScanWorkers evaluates every candidate query over t — any mix of
// ungrouped, grouped and multi-aggregate shapes — in ONE pass over the
// table, on at most workers goroutines (the caller and workers−1
// helpers). Distinct predicates (by meaning, see batchFilter) are
// compiled once and evaluated once per batch into selection bitmaps:
// read from the per-code index of a registered string column of at
// most indexMaxCodes codes, or computed by typed kernels (sampled scans
// check those at sampled rows only), with several single-code filters
// on one wider string column filled in one pass over its codes;
// candidates sharing the same filter set share the combined
// selection; surviving rows are folded into per-candidate
// accumulators in ascending row order, which makes every result
// bit-identical to the row-at-a-time path (same float additions in the
// same order, same deterministic sample membership, same group output
// order by construction: ascending batches, ascending set bits, and
// group emission ordered exactly as the serial executor orders it).
// A rate in (0, 1) runs on the deterministic sample ExecSampled reads
// for the same seed; results are scaled like ExecSampled's.
//
// The pass runs in two phases over a chunk of batches (see scanRun):
// filters split by rows, then folds split by accumulator, each
// accumulator folding its whole chunk in row order. One worker takes a
// chunk of one batch, which fuses the phases batch by batch; several
// take the whole table as one chunk. Results and stats other than
// Workers are identical at every worker count.
func sharedScanWorkers(t *Table, queries []Query, rate float64, seed uint64, workers int) ([]Result, ScanStats, error) {
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
	// combines its bitmaps exactly once per batch.
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

	rows := t.NumRows()
	batches := numBatches(rows)
	stats.Batches = int64(batches)
	stats.Workers = 1 // with no live group there is nothing to filter or fold
	if len(groups) > 0 {
		workers = max(1, min(workers, batches))
		stats.Workers = int64(workers)
		newScanRun(filters, groups, rows, rate, seed, workers).scan()
	}

	scale := 1.0
	if rate > 0 && rate < 1 {
		scale = 1 / rate
	}
	out := make([]Result, len(queries))
	for qi, cand := range cands {
		out[qi] = cand.result(scale)
		stats.Groups += cand.groupCount()
	}
	return out, stats, nil
}

// scanGroup is the candidates of one shared scan that share one filter
// set, and so one selection.
type scanGroup struct {
	filters []int
	members []*scanCandidate
}

// scanRun is one shared scan's execution over chunks of batches, in two
// phases per chunk:
//
//  1. Filter, split by rows: workers claim batches from a counter and
//     write each group's selection words (sample base AND the group's
//     filters) into that group's slice of sels, each worker with its own
//     filter bitmaps and code-pass slabs. Filters on indexed columns
//     read the index words of the batch instead of its codes.
//  2. Fold, split by accumulator: the worker that filters a chunk's last
//     batch deals the candidates into one bundle per worker (deal),
//     and workers claim bundles. A bundle folds each of its candidates'
//     selections over the chunk's batches in ascending row order, so
//     every accumulator performs exactly the serial scan's float
//     additions in the same order. It goes batch-major, so the column
//     slices a batch's candidates share stay in cache between them.
//
// Each helper goroutine is started once per scan and claims work in
// both phases, so a helper the scheduler starts late only does less:
// no phase waits for a goroutine that has not run yet.
type scanRun struct {
	filters []batchFilter
	groups  []*scanGroup
	rows    int
	workers int

	sampling  bool
	seed      uint64
	threshold uint64

	// views lists the single-code filters on indexed columns, whose
	// bitmaps are views of the column's index; passes lists, per
	// one-pass code fill, the single-code filters it serves (see
	// codePass); own lists every other filter in use.
	views  []int
	passes [][]int
	slots  [][]int32
	own    []int

	// chunk is the number of batches filtered before any is folded: one
	// for one worker, which fuses the phases batch by batch; the whole
	// table for several, since a barrier every few batches costs more
	// than the buffer (DESIGN.md). sels holds each group's selection
	// words for the current chunk: group gi's batch b (chunk-relative)
	// at sels[gi*stride+b*batchWords:].
	chunk  int
	sels   bitmap
	stride int

	// The chunk's claim counters: the next batch to filter, the batches
	// filtered, and the next fold bundle; dealt is set once bundles
	// holds the chunk's fold bundles.
	next     atomic.Int64
	filtered atomic.Int64
	bundle   atomic.Int64
	dealt    atomic.Bool
	bundles  [][]foldTask

	scratch []*filterScratch
	// selected counts, per worker, each group's rows selected in the
	// chunk, at selected[w*len(groups)+gi], to weigh the fold bundles.
	selected []int64
}

// filterScratch is one worker's filter-phase state.
type filterScratch struct {
	base   bitmap
	passes []*codePass
	bms    []bitmap // indexed by filter; nil for filters not in use
}

// foldTask is one candidate's fold, reading group's selection.
type foldTask struct {
	cand  *scanCandidate
	group int
}

// selPool recycles the selection buffers of parallel scans: at 1.2M rows
// one group's selection takes ~150 KB, which every parallel scan would
// otherwise allocate and zero anew.
var selPool sync.Pool

// newScanRun plans the filters some group references. A filter on a
// column DB.Register indexed runs no kernel: a single code's selection
// is a view of the index, a code set ORs its codes' index words. On an
// unindexed column, codePassMinFilters or more single-code filters
// share a one-pass fill; every other filter runs its own kernel, which
// a sampled scan checks at sampled rows only, so its filter work
// shrinks with its sample.
func newScanRun(filters []batchFilter, groups []*scanGroup, rows int, rate float64, seed uint64, workers int) *scanRun {
	sc := &scanRun{filters: filters, groups: groups, rows: rows, workers: workers, seed: seed}
	if rate > 0 && rate < 1 {
		sc.sampling = true
		// Must match filterRows's expression exactly so both paths
		// agree on sample membership.
		sc.threshold = uint64(rate * float64(math.MaxUint64))
	}
	used := make([]bool, len(filters))
	for _, g := range groups {
		for _, fi := range g.filters {
			used[fi] = true
		}
	}
	placed := make([]bool, len(filters))
	byCol := make(map[*Column][]int)
	var cols []*Column
	for fi, f := range filters {
		switch {
		case !used[fi] || f.shape != shapeCode:
		case f.col.index != nil:
			sc.views = append(sc.views, fi)
			placed[fi] = true
		case !sc.sampling:
			if byCol[f.col] == nil {
				cols = append(cols, f.col)
			}
			byCol[f.col] = append(byCol[f.col], fi)
		}
	}
	for _, col := range cols {
		if fis := byCol[col]; len(fis) >= codePassMinFilters {
			sc.passes = append(sc.passes, fis)
			sc.slots = append(sc.slots, codeSlots(col, filters, fis))
			for _, fi := range fis {
				placed[fi] = true
			}
		}
	}
	for fi := range filters {
		if used[fi] && !placed[fi] {
			sc.own = append(sc.own, fi)
		}
	}

	sc.scratch = make([]*filterScratch, workers)
	sc.chunk, sc.stride = 1, batchWords
	if workers == 1 {
		// One worker folds every candidate, in group order.
		var all []foldTask
		for gi, g := range groups {
			for _, m := range g.members {
				all = append(all, foldTask{m, gi})
			}
		}
		sc.bundles = [][]foldTask{all}
		sc.sels = make(bitmap, len(groups)*sc.stride)
		return sc
	}
	sc.chunk = numBatches(rows)
	sc.stride = sc.chunk * batchWords
	sc.selected = make([]int64, workers*len(groups))
	need := len(groups) * sc.stride
	if p, ok := selPool.Get().(*bitmap); ok && cap(*p) >= need {
		sc.sels = (*p)[:need]
	} else {
		sc.sels = make(bitmap, need)
	}
	return sc
}

// scan runs every chunk of the table in order, then returns a parallel
// scan's selection buffer to the pool.
func (sc *scanRun) scan() {
	batches := numBatches(sc.rows)
	for b0 := 0; b0 < batches; b0 += sc.chunk {
		sc.run(b0, min(b0+sc.chunk, batches))
	}
	if sc.workers > 1 {
		sels := sc.sels
		selPool.Put(&sels)
	}
}

// run filters and folds batches [b0, b1): on the caller alone for one
// worker, else on the caller and workers−1 helper goroutines.
func (sc *scanRun) run(b0, b1 int) {
	sc.next.Store(int64(b0))
	sc.filtered.Store(0)
	sc.bundle.Store(0)
	if sc.workers == 1 {
		sc.work(0, b0, b1)
		return
	}
	sc.dealt.Store(false)
	var wg sync.WaitGroup
	for w := 1; w < sc.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc.work(w, b0, b1)
		}(w)
	}
	sc.work(0, b0, b1)
	wg.Wait()
}

// work is worker w's share of batches [b0, b1): it filters batches until
// none is left to claim, waits until the fold bundles are dealt, then
// folds bundles until none is left.
func (sc *scanRun) work(w, b0, b1 int) {
	sc.filter(w, b0, b1)
	for sc.workers > 1 && !sc.dealt.Load() {
		runtime.Gosched() // another worker is filtering the last batch
	}
	for k := int(sc.bundle.Add(1)) - 1; k < len(sc.bundles); k = int(sc.bundle.Add(1)) - 1 {
		sc.fold(sc.bundles[k], b0, b1)
	}
}

// worker returns worker w's filter scratch, built on first use.
func (sc *scanRun) worker(w int) *filterScratch {
	if fs := sc.scratch[w]; fs != nil {
		return fs
	}
	fs := &filterScratch{base: newBitmap(scanBatchRows), bms: make([]bitmap, len(sc.filters))}
	for pi, fis := range sc.passes {
		fs.passes = append(fs.passes, newCodePass(sc.filters[fis[0]].col, sc.slots[pi], fis, fs.bms))
	}
	for _, fi := range sc.own {
		fs.bms[fi] = newBitmap(scanBatchRows)
	}
	sc.scratch[w] = fs
	return fs
}

// filter is worker w's filter phase over batches [b0, b1): it claims
// batches until none is left and writes every group's selection words
// for each. In a parallel run, the worker that filters the last batch
// deals the fold bundles.
func (sc *scanRun) filter(w, b0, b1 int) {
	b := int(sc.next.Add(1)) - 1
	if b >= b1 {
		return
	}
	fs := sc.worker(w)
	var selected []int64
	if sc.workers > 1 {
		selected = sc.selected[w*len(sc.groups):][:len(sc.groups)]
	}
	base := fs.base
	for ; b < b1; b = int(sc.next.Add(1)) - 1 {
		lo := b * scanBatchRows
		n := min(sc.rows-lo, scanBatchRows)
		nWords := (n + 63) / 64
		if sc.sampling {
			fillSample(base, lo, n, sc.seed, sc.threshold)
		} else {
			base.setAll(n)
		}
		for _, fi := range sc.views {
			f := &sc.filters[fi]
			fs.bms[fi] = f.col.codeBits(f.code)[lo>>6:]
		}
		for _, p := range fs.passes {
			p.fill(lo, n)
		}
		for _, fi := range sc.own {
			switch f := &sc.filters[fi]; {
			case f.col.index != nil:
				f.orCodes(fs.bms[fi][:nWords], lo>>6)
			case sc.sampling:
				f.fillSparse(fs.bms[fi][:nWords], base[:nWords], lo)
			default:
				f.fill(fs.bms[fi], lo, n)
			}
		}
		off := (b - b0) * batchWords
		for gi, g := range sc.groups {
			sel := sc.sels[gi*sc.stride+off:][:nWords]
			sel.copyFrom(base, nWords)
			for _, fi := range g.filters {
				sel.and(fs.bms[fi], nWords)
			}
			if selected != nil {
				selected[gi] += int64(sel.count())
			}
		}
		// The last batch's Add observes every other worker's, so their
		// selections and counts are visible to the dealer.
		if sc.filtered.Add(1) == int64(b1-b0) && sc.workers > 1 {
			sc.deal(b1 - b0)
			sc.dealt.Store(true)
		}
	}
}

// fold folds each task's selection over batches [b0, b1), batch by batch
// in ascending order.
func (sc *scanRun) fold(tasks []foldTask, b0, b1 int) {
	for b := b0; b < b1; b++ {
		lo := b * scanBatchRows
		nWords := (min(sc.rows-lo, scanBatchRows) + 63) / 64
		off := (b - b0) * batchWords
		for _, tk := range tasks {
			tk.cand.foldBatch(sc.sels[tk.group*sc.stride+off:][:nWords], lo)
		}
	}
}

// deal splits the fold tasks into one bundle per worker, heaviest task
// first into the lightest bundle, weighing each task by the rows its
// group selected times the per-row work of its aggregates, plus its
// per-word overhead. Tasks keep group order within a bundle. Which
// bundle folds a candidate never changes its result.
func (sc *scanRun) deal(batches int) {
	var tasks []foldTask
	var weights []int64
	for gi, g := range sc.groups {
		var selected int64
		for w := 0; w < sc.workers; w++ {
			selected += sc.selected[w*len(sc.groups)+gi]
		}
		for _, m := range g.members {
			tasks = append(tasks, foldTask{m, gi})
			weights = append(weights, selected*m.rowCost()+int64(batches*batchWords))
		}
	}
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	owner := make([]int, len(tasks))
	loads := make([]int64, sc.workers)
	for _, ti := range order {
		k := 0
		for j := range loads {
			if loads[j] < loads[k] {
				k = j
			}
		}
		owner[ti] = k
		loads[k] += weights[ti]
	}
	sc.bundles = make([][]foldTask, sc.workers)
	for ti, tk := range tasks {
		sc.bundles[owner[ti]] = append(sc.bundles[owner[ti]], tk)
	}
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
