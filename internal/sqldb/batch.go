package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// scanBatchRows is the number of rows one shared-scan batch covers. The
// batch is the unit of predicate vectorization: each distinct predicate
// fills one selection bitmap per batch, candidates AND the bitmaps they
// reference, and accumulation walks the surviving words. 2048 rows keeps
// a batch's bitmaps (32 words each) and the touched column slices inside
// the L1 cache while amortizing the per-batch setup across enough rows.
const scanBatchRows = 2048

// batchWords is the number of bitmap words covering one batch.
const batchWords = scanBatchRows / 64

// bitmap is a selection vector over the rows of one batch: bit k set
// means batch-local row k survives. Word granularity makes predicate
// combination (AND) and population scans cheap.
type bitmap []uint64

// newBitmap returns a bitmap able to hold n bits.
func newBitmap(n int) bitmap {
	return make(bitmap, (n+63)/64)
}

// setAll sets the first n bits and clears every remaining bit, so
// trailing-word garbage can never leak into an AND chain.
func (b bitmap) setAll(n int) {
	full := n >> 6
	for i := 0; i < full; i++ {
		b[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		b[full] = (uint64(1) << uint(rem)) - 1
		full++
	}
	for i := full; i < len(b); i++ {
		b[i] = 0
	}
}

// and intersects b with o in place over the first nWords words.
func (b bitmap) and(o bitmap, nWords int) {
	o = o[:nWords]
	for i, w := range b[:nWords] {
		b[i] = w & o[i]
	}
}

// count returns the number of set bits.
func (b bitmap) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// copyFrom overwrites the first nWords words of b with o's.
func (b bitmap) copyFrom(o bitmap, nWords int) {
	copy(b[:nWords], o[:nWords])
}

// filterShape names the closure-free kernel a compiled predicate runs,
// chosen once from the column kind and the number of constants that
// resolve against the data.
type filterShape uint8

const (
	shapeNever    filterShape = iota // no constant can match: no kernel runs
	shapeCode                        // string column, one dictionary code
	shapeCodeSet                     // string column, several dictionary codes
	shapeInt                         // int column, one value
	shapeIntSet                      // int column, several values
	shapeFloatSet                    // float column, one or more values
)

// batchFilter is one predicate compiled for vectorized evaluation: the
// shape selects the kernel and the typed fields feed it.
type batchFilter struct {
	shape  filterShape
	col    *Column
	code   int32     // shapeCode
	member []bool    // shapeCodeSet, indexed by dictionary code
	ints   []int64   // shapeInt (one value), shapeIntSet
	floats []float64 // shapeFloatSet
}

// resolveFilter resolves a predicate's constants against its column,
// mirroring compilePredicate's semantics exactly: string constants become
// dictionary codes (constants absent from the dictionary drop out),
// integral floats compare against int columns, numerics compare against
// float columns by value, and a predicate left with no constant matches
// no row — so both paths select identical rows. Each resolved constant is
// 64 bits (code, int or float bits), appended sorted and distinct to vals.
// The key appended to key is the predicate's identity by meaning — column
// and resolved constants, which also determine the kernel — so
// `c = 'x'`, `c IN ('x')` and `c IN ('x', 'absent')` are one filter.
// Neither slice is retained, so callers can pass stack buffers and build
// the kernel (newBatchFilter) only for a key they have not seen.
func resolveFilter(t *Table, p Predicate, vals []uint64, key []byte) (*Column, []uint64, []byte, error) {
	c := t.Column(p.Col)
	if c == nil {
		return nil, nil, nil, fmt.Errorf("sqldb: unknown column %q", p.Col)
	}
	if c.Kind != KindString && c.Kind != KindInt && c.Kind != KindFloat {
		return nil, nil, nil, fmt.Errorf("sqldb: predicate on invalid column %q", p.Col)
	}
	for _, v := range p.Values {
		switch c.Kind {
		case KindString:
			if v.K != KindString {
				continue // numeric literal never equals a string
			}
			if code, ok := c.code(v.S); ok {
				vals = append(vals, uint64(code))
			}
		case KindInt:
			switch v.K {
			case KindInt:
				vals = append(vals, uint64(v.I))
			case KindFloat:
				if v.F == math.Trunc(v.F) {
					vals = append(vals, uint64(int64(v.F)))
				}
			}
		case KindFloat:
			if v.K != KindInt && v.K != KindFloat {
				continue
			}
			x := v.AsFloat()
			if x != x {
				continue // NaN equals nothing
			}
			if x == 0 {
				x = 0 // -0 and +0 match the same rows
			}
			vals = append(vals, math.Float64bits(x))
		}
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)

	key = binary.AppendUvarint(key, uint64(len(p.Col)))
	key = append(key, p.Col...)
	for _, v := range vals {
		key = binary.LittleEndian.AppendUint64(key, v)
	}
	return c, vals, key, nil
}

// newBatchFilter builds the kernel for constants resolveFilter resolved
// against col.
func newBatchFilter(col *Column, vals []uint64) batchFilter {
	f := batchFilter{col: col}
	switch {
	case len(vals) == 0:
		f.shape = shapeNever
	case col.Kind == KindString && len(vals) == 1:
		f.shape, f.code = shapeCode, int32(vals[0])
	case col.Kind == KindString:
		f.shape = shapeCodeSet
		f.member = make([]bool, len(col.dict))
		for _, code := range vals {
			f.member[code] = true
		}
	case col.Kind == KindInt:
		f.shape = shapeIntSet
		if len(vals) == 1 {
			f.shape = shapeInt
		}
		for _, v := range vals {
			f.ints = append(f.ints, int64(v))
		}
	default:
		f.shape = shapeFloatSet
		for _, v := range vals {
			f.floats = append(f.floats, math.Float64frombits(v))
		}
	}
	return f
}

// fill writes the filter's verdicts for rows [lo, lo+n) into dst, one
// 64-row word at a time, with every bit past n cleared. The kernel is
// picked once per batch; no function value is called per row.
func (f *batchFilter) fill(dst bitmap, lo, n int) {
	switch f.shape {
	case shapeCode:
		fillEq(dst, f.col.codes[lo:lo+n], f.code)
	case shapeCodeSet:
		fillMember(dst, f.col.codes[lo:lo+n], f.member)
	case shapeInt:
		fillEq(dst, f.col.ints[lo:lo+n], f.ints[0])
	case shapeIntSet:
		fillIn(dst, f.col.ints[lo:lo+n], f.ints)
	case shapeFloatSet:
		fillIn(dst, f.col.floats[lo:lo+n], f.floats)
	}
}

// match reports whether row i satisfies the filter: fill's verdict for
// one row, for sampled scans, where most rows need none.
func (f *batchFilter) match(i int) bool {
	switch f.shape {
	case shapeCode:
		return f.col.codes[i] == f.code
	case shapeCodeSet:
		return f.member[f.col.codes[i]]
	case shapeInt:
		return f.col.ints[i] == f.ints[0]
	case shapeIntSet:
		return slices.Contains(f.ints, f.col.ints[i])
	case shapeFloatSet:
		return slices.Contains(f.floats, f.col.floats[i])
	}
	return false
}

// orCodes writes a code set's verdicts on an indexed column for the
// len(dst) words from word w0 on: the OR of its codes' index words.
func (f *batchFilter) orCodes(dst bitmap, w0 int) {
	clear(dst)
	for code, in := range f.member {
		if in {
			src := f.col.codeBits(int32(code))[w0:][:len(dst)]
			for i, w := range src {
				dst[i] |= w
			}
		}
	}
}

// fillSparse writes the filter's verdicts for just the rows base
// selects, base's word i covering rows [lo+64i, lo+64i+64); every other
// bit of dst is cleared. A sampled scan's filter work thus shrinks with
// its sample, which keeps approximate first paints cheaper than exact
// scans.
func (f *batchFilter) fillSparse(dst, base bitmap, lo int) {
	for wi, b := range base {
		var w uint64
		for ; b != 0; b &= b - 1 {
			k := bits.TrailingZeros64(b)
			w |= b2u(f.match(lo+wi<<6+k)) << uint(k)
		}
		dst[wi] = w
	}
}

// b2u converts a verdict to a bit without a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fillEq sets bit k of dst where col[k] == want. The kernels mask
// their shift counts with 63, which lets the compiler drop its guard
// for shifts of 64 or more.
func fillEq[T int32 | int64](dst bitmap, col []T, want T) {
	for wi := 0; len(col) > 0; wi++ {
		chunk := col[:min(64, len(col))]
		col = col[len(chunk):]
		var w uint64
		for j, x := range chunk {
			w |= b2u(x == want) << (uint(j) & 63)
		}
		dst[wi] = w
	}
}

// fillMember sets bit k of dst where member[codes[k]].
func fillMember(dst bitmap, codes []int32, member []bool) {
	for wi := 0; len(codes) > 0; wi++ {
		chunk := codes[:min(64, len(codes))]
		codes = codes[len(chunk):]
		var w uint64
		for j, c := range chunk {
			w |= b2u(member[c]) << (uint(j) & 63)
		}
		dst[wi] = w
	}
}

// fillIn sets bit k of dst where col[k] equals any of wants. Value sets
// come from IN lists a user spoke, so a linear probe beats hashing.
func fillIn[T int64 | float64](dst bitmap, col []T, wants []T) {
	for wi := 0; len(col) > 0; wi++ {
		chunk := col[:min(64, len(col))]
		col = col[len(chunk):]
		var w uint64
		for j, x := range chunk {
			var hit uint64
			for _, v := range wants {
				hit |= b2u(x == v)
			}
			w |= hit << (uint(j) & 63)
		}
		dst[wi] = w
	}
}

// codePass fills every single-code filter on one string column in one
// pass over that column's codes. A phonetic candidate set is mostly
// alternatives for one constant, so several `col = 'code'` filters
// usually hit the same column; instead of one pass per filter, each row
// sets its bit in the bitmap its code maps to. Codes no filter wants map
// to a scratch bitmap, so the loop has no data-dependent branch. A
// column DB.Register indexed needs neither, so the pass serves only
// wide columns (more than indexMaxCodes codes) and unregistered tables,
// from codePassMinFilters filters on.
type codePass struct {
	codes []int32
	// slot maps a dictionary code to the word offset of its bitmap in
	// slab; unwanted codes map to the scratch bitmap at the end.
	slot []int32
	slab bitmap
}

// codePassMinFilters is the fewest single-code filters on one column
// that share a codePass rather than run a kernel each. Over 1.2M rows
// of 200 uniform codes (BenchmarkCodeFill, 2-CPU host, Go 1.24.0) one
// pass took 3.1–3.6 ms for any filter count and one fillEq kernel
// 1.1–1.9 ms: two kernels (2.4–3.6 ms) tied the pass, three (3.9–5.6
// ms) lost to it.
const codePassMinFilters = 3

// codeSlots maps each dictionary code of col to the word offset of its
// filter's bitmap in a code-pass slab for the single-code filters fis
// (distinct codes on col, which identity-keyed filters guarantee);
// unwanted codes map to the scratch bitmap at the end. Every worker's
// pass over col shares one slot table.
func codeSlots(col *Column, filters []batchFilter, fis []int) []int32 {
	slot := make([]int32, len(col.dict))
	scratch := int32(len(fis) * batchWords)
	for code := range slot {
		slot[code] = scratch
	}
	for s, fi := range fis {
		slot[filters[fi].code] = int32(s * batchWords)
	}
	return slot
}

// newCodePass sets up a one-pass fill of the single-code filters fis
// over col's codes with its own slab, laid out by slot (codeSlots), and
// points each filter's bitmap in bms at its slab slot.
func newCodePass(col *Column, slot []int32, fis []int, bms []bitmap) *codePass {
	p := &codePass{
		codes: col.codes,
		slot:  slot,
		slab:  make(bitmap, (len(fis)+1)*batchWords),
	}
	for s, fi := range fis {
		off := s * batchWords
		bms[fi] = p.slab[off : off+batchWords]
	}
	return p
}

// fill sets every filter's bits for rows [lo, lo+n).
func (p *codePass) fill(lo, n int) {
	slab, slot := p.slab, p.slot
	clear(slab)
	for k, c := range p.codes[lo : lo+n] {
		slab[int(slot[c])+k>>6] |= 1 << uint(k&63)
	}
}

// fillSample writes the deterministic sample bitmap for rows [lo, lo+n):
// exactly the rows filterRows keeps (rowHash at or below the rate
// threshold), with every trailing bit cleared, so it doubles as the AND
// base of every candidate's selection.
func fillSample(dst bitmap, lo, n int, seed, threshold uint64) {
	var w uint64
	for k := 0; k < n; k++ {
		if rowHash(uint64(lo+k), seed) <= threshold {
			w |= 1 << uint(k&63)
		}
		if k&63 == 63 {
			dst[k>>6] = w
			w = 0
		}
	}
	if n&63 != 0 {
		dst[(n-1)>>6] = w
	}
}
