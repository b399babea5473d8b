package sqldb

import (
	"fmt"
	"math"
	"sort"
)

// Result is the output of an aggregation query: one row per group (a single
// row for ungrouped queries), with group-key columns first and one column
// per aggregate after them.
type Result struct {
	Cols []string
	Rows [][]Value
}

// Scalar returns the single numeric output of an ungrouped single-aggregate
// query. It errors when the result has a different shape.
func (r Result) Scalar() (float64, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return 0, fmt.Errorf("sqldb: result is not scalar (%dx%d)", len(r.Rows), len(r.Cols))
	}
	v := r.Rows[0][0]
	if v.IsNull() {
		return 0, fmt.Errorf("sqldb: scalar result is NULL (empty input)")
	}
	return v.AsFloat(), nil
}

// execOptions tunes a single execution.
type execOptions struct {
	// sampleRate in (0, 1] executes on a deterministic uniform row sample
	// and scales COUNT and SUM by 1/rate (AVG/MIN/MAX are reported
	// unscaled). Rate 0 or 1 means full execution.
	sampleRate float64
	// sampleSeed varies which rows the sample contains.
	sampleSeed uint64
}

// execute runs a validated query against a table.
func execute(t *Table, q Query, opt execOptions) (Result, error) {
	if err := q.Validate(t); err != nil {
		return Result{}, err
	}
	sel, err := filterRows(t, q.Preds, opt)
	if err != nil {
		return Result{}, err
	}
	scale := 1.0
	if opt.sampleRate > 0 && opt.sampleRate < 1 {
		scale = 1 / opt.sampleRate
	}
	if len(q.GroupBy) == 0 {
		row := aggregateRows(t, q.Aggs, sel, scale)
		return Result{Cols: aggColNames(q), Rows: [][]Value{row}}, nil
	}
	return groupAggregate(t, q, sel, scale)
}

// filterRows returns the ids of rows matching every predicate, restricted
// to the sample when sampling is enabled.
func filterRows(t *Table, preds []Predicate, opt execOptions) ([]int32, error) {
	checks := make([]rowCheck, 0, len(preds))
	for _, p := range preds {
		chk, always, never, err := compilePredicate(t, p)
		if err != nil {
			return nil, err
		}
		if never {
			return nil, nil
		}
		if always {
			continue
		}
		checks = append(checks, chk)
	}
	sel := make([]int32, 0, 1024)
	sampling := opt.sampleRate > 0 && opt.sampleRate < 1
	var threshold uint64
	if sampling {
		threshold = uint64(opt.sampleRate * float64(math.MaxUint64))
	}
	n := t.NumRows()
rows:
	for i := 0; i < n; i++ {
		if sampling && rowHash(uint64(i), opt.sampleSeed) > threshold {
			continue
		}
		for _, chk := range checks {
			if !chk(i) {
				continue rows
			}
		}
		sel = append(sel, int32(i))
	}
	return sel, nil
}

// rowCheck reports whether row i satisfies one predicate.
type rowCheck func(i int) bool

// compilePredicate resolves a predicate against the table: string constants
// are translated to dictionary codes once, so the per-row check is a plain
// integer comparison. It reports "always" when the predicate cannot fail
// and "never" when no row can match (e.g. constant absent from dictionary).
func compilePredicate(t *Table, p Predicate) (chk rowCheck, always, never bool, err error) {
	c := t.Column(p.Col)
	if c == nil {
		return nil, false, false, fmt.Errorf("sqldb: unknown column %q", p.Col)
	}
	switch c.Kind {
	case KindString:
		codes := make(map[int32]struct{}, len(p.Values))
		for _, v := range p.Values {
			if v.K != KindString {
				continue // numeric literal never equals a string
			}
			if code, ok := c.code(v.S); ok {
				codes[code] = struct{}{}
			}
		}
		if len(codes) == 0 {
			return nil, false, true, nil
		}
		if len(codes) == 1 {
			var want int32
			for k := range codes {
				want = k
			}
			col := c.codes
			return func(i int) bool { return col[i] == want }, false, false, nil
		}
		// Multi-value IN: a bitset over dictionary codes turns the per-row
		// membership test into one slice index — the hot path of merged
		// query execution.
		member := make([]bool, len(c.dict))
		for k := range codes {
			member[k] = true
		}
		col := c.codes
		return func(i int) bool { return member[col[i]] }, false, false, nil
	case KindInt:
		wants := make(map[int64]struct{}, len(p.Values))
		for _, v := range p.Values {
			switch v.K {
			case KindInt:
				wants[v.I] = struct{}{}
			case KindFloat:
				if v.F == math.Trunc(v.F) {
					wants[int64(v.F)] = struct{}{}
				}
			}
		}
		if len(wants) == 0 {
			return nil, false, true, nil
		}
		if len(wants) == 1 {
			var want int64
			for k := range wants {
				want = k
			}
			col := c.ints
			return func(i int) bool { return col[i] == want }, false, false, nil
		}
		col := c.ints
		return func(i int) bool {
			_, ok := wants[col[i]]
			return ok
		}, false, false, nil
	case KindFloat:
		wants := make([]float64, 0, len(p.Values))
		for _, v := range p.Values {
			if v.K == KindInt || v.K == KindFloat {
				wants = append(wants, v.AsFloat())
			}
		}
		if len(wants) == 0 {
			return nil, false, true, nil
		}
		col := c.floats
		return func(i int) bool {
			x := col[i]
			for _, w := range wants {
				if x == w {
					return true
				}
			}
			return false
		}, false, false, nil
	}
	return nil, false, false, fmt.Errorf("sqldb: predicate on invalid column %q", p.Col)
}

// rowHash is a 64-bit mix (splitmix64 finalizer) used for deterministic
// uniform sampling: row i is in the sample iff hash(i, seed) falls below
// rate * 2^64. The same seed yields the same sample across queries, so the
// approximate multiplot in progressive presentation is internally
// consistent (all plots computed from one sample).
func rowHash(i, seed uint64) uint64 {
	z := i + seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// aggState accumulates one aggregate over a row stream.
type aggState struct {
	count int64
	sum   float64
	min   float64
	max   float64
	seen  bool
}

func (s *aggState) add(x float64) {
	s.count++
	s.sum += x
	if !s.seen || x < s.min {
		s.min = x
	}
	if !s.seen || x > s.max {
		s.max = x
	}
	s.seen = true
}

// value renders the final aggregate with sample scaling. COUNT and SUM are
// inflated by the scale factor; AVG, MIN and MAX are scale-free.
func (s *aggState) value(f AggFunc, scale float64) Value {
	switch f {
	case AggCount:
		return Float(float64(s.count) * scale)
	case AggSum:
		if !s.seen {
			return Null()
		}
		return Float(s.sum * scale)
	case AggAvg:
		if s.count == 0 {
			return Null()
		}
		return Float(s.sum / float64(s.count))
	case AggMin:
		if !s.seen {
			return Null()
		}
		return Float(s.min)
	case AggMax:
		if !s.seen {
			return Null()
		}
		return Float(s.max)
	}
	return Null()
}

// numericAccessor returns a float-reading accessor for an aggregate's input
// column, or nil for COUNT(*) which needs no input.
func numericAccessor(t *Table, a Aggregate) func(i int) float64 {
	if a.Col == "" {
		return nil
	}
	c := t.Column(a.Col)
	switch c.Kind {
	case KindInt:
		col := c.ints
		return func(i int) float64 { return float64(col[i]) }
	case KindFloat:
		col := c.floats
		return func(i int) float64 { return col[i] }
	}
	// COUNT over a string column: value is irrelevant, only presence.
	return func(i int) float64 { return 0 }
}

// aggregateRows computes all aggregates over the selected rows.
func aggregateRows(t *Table, aggs []Aggregate, sel []int32, scale float64) []Value {
	states := make([]aggState, len(aggs))
	accs := make([]func(i int) float64, len(aggs))
	for j, a := range aggs {
		accs[j] = numericAccessor(t, a)
	}
	for _, ri := range sel {
		i := int(ri)
		for j := range aggs {
			if accs[j] == nil {
				states[j].count++
				continue
			}
			states[j].add(accs[j](i))
		}
	}
	out := make([]Value, len(aggs))
	for j, a := range aggs {
		out[j] = states[j].value(a.Func, scale)
	}
	return out
}

// groupAggregate computes grouped aggregates. Grouping by a single
// dictionary-encoded string column — the shape every merged MUVE query
// has — takes a fast path that indexes accumulator state directly by
// dictionary code; composite keys fall back to hash aggregation. Output
// rows are sorted by group key for determinism.
func groupAggregate(t *Table, q Query, sel []int32, scale float64) (Result, error) {
	keyCols := make([]*Column, len(q.GroupBy))
	for i, g := range q.GroupBy {
		keyCols[i] = t.Column(g)
	}
	if len(keyCols) == 1 && keyCols[0].Kind == KindString {
		return groupAggregateByCode(t, q, keyCols[0], sel, scale)
	}
	accs := make([]func(i int) float64, len(q.Aggs))
	for j, a := range q.Aggs {
		accs[j] = numericAccessor(t, a)
	}
	type group struct {
		key    []Value
		states []aggState
	}
	groups := make(map[string]*group, 64)
	var keyBuf []byte
	for _, ri := range sel {
		i := int(ri)
		keyBuf = keyBuf[:0]
		for _, kc := range keyCols {
			keyBuf = appendKeyPart(keyBuf, kc, i)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			key := make([]Value, len(keyCols))
			for k, kc := range keyCols {
				key[k] = kc.Value(i)
			}
			g = &group{key: key, states: make([]aggState, len(q.Aggs))}
			groups[string(keyBuf)] = g
		}
		for j := range q.Aggs {
			if accs[j] == nil {
				g.states[j].count++
				continue
			}
			g.states[j].add(accs[j](i))
		}
	}
	cols := append(append([]string(nil), q.GroupBy...), aggColNames(q)...)
	res := Result{Cols: cols}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		row := make([]Value, 0, len(g.key)+len(q.Aggs))
		row = append(row, g.key...)
		for j, a := range q.Aggs {
			row = append(row, g.states[j].value(a.Func, scale))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// appendKeyPart serializes one group-key component into the hash key.
func appendKeyPart(buf []byte, c *Column, i int) []byte {
	switch c.Kind {
	case KindString:
		code := c.codes[i]
		buf = append(buf, byte(code), byte(code>>8), byte(code>>16), byte(code>>24), 0xff)
	case KindInt:
		v := uint64(c.ints[i])
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(v>>s))
		}
		buf = append(buf, 0xfe)
	case KindFloat:
		v := math.Float64bits(c.floats[i])
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(v>>s))
		}
		buf = append(buf, 0xfd)
	}
	return buf
}

// aggColNames returns the output column names of the aggregates.
func aggColNames(q Query) []string {
	out := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		out[i] = a.String()
	}
	return out
}

// groupAggregateByCode is the single-string-column group-by fast path:
// accumulators live in a dense slice indexed by dictionary code, so the
// per-row cost is an array index instead of key serialization plus a map
// probe.
func groupAggregateByCode(t *Table, q Query, keyCol *Column, sel []int32, scale float64) (Result, error) {
	accs := make([]func(i int) float64, len(q.Aggs))
	for j, a := range q.Aggs {
		accs[j] = numericAccessor(t, a)
	}
	nCodes := len(keyCol.dict)
	nAggs := len(q.Aggs)
	states := make([]aggState, nCodes*nAggs)
	seen := make([]bool, nCodes)
	codes := keyCol.codes
	for _, ri := range sel {
		i := int(ri)
		code := codes[i]
		seen[code] = true
		base := int(code) * nAggs
		for j := 0; j < nAggs; j++ {
			if accs[j] == nil {
				states[base+j].count++
				continue
			}
			states[base+j].add(accs[j](i))
		}
	}
	return emitGroupedResult(q, keyCol, states, seen, scale), nil
}

// emitGroupedResult renders grouped states sorted by key value.
func emitGroupedResult(q Query, keyCol *Column, states []aggState, seen []bool, scale float64) Result {
	nAggs := len(q.Aggs)
	cols := append(append([]string(nil), q.GroupBy...), aggColNames(q)...)
	res := Result{Cols: cols}
	order := make([]int, 0, len(seen))
	for code, ok := range seen {
		if ok {
			order = append(order, code)
		}
	}
	sortByDict(order, keyCol.dict)
	for _, code := range order {
		row := make([]Value, 0, 1+nAggs)
		row = append(row, Str(keyCol.dict[code]))
		base := code * nAggs
		for j, a := range q.Aggs {
			row = append(row, states[base+j].value(a.Func, scale))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// sortByDict sorts dictionary codes by their string value (insertion sort:
// group counts are tiny).
func sortByDict(codes []int, dict []string) {
	for i := 1; i < len(codes); i++ {
		for j := i; j > 0 && dict[codes[j]] < dict[codes[j-1]]; j-- {
			codes[j], codes[j-1] = codes[j-1], codes[j]
		}
	}
}
