package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// indexMaxCodes is the most dictionary codes a string column may have
// for DB.Register to index it: at 32 codes its per-code bitmaps take
// exactly the room of its int32 codes, one bit per code per row.
const indexMaxCodes = 32

// Column is a typed, columnar vector. String columns are dictionary
// encoded: distinct strings live once in dict and rows store int32 codes,
// which makes equality predicates a single integer comparison per row —
// the dominant operation in MUVE's workloads.
//
// DB.Register freezes a column: its storage is trimmed to its exact
// length, it takes no more rows, and a string column of at most
// indexMaxCodes codes gets an index, one table-wide selection bitmap per
// code, which the shared scan reads instead of comparing codes.
type Column struct {
	Name string
	Kind Kind

	ints   []int64
	floats []float64
	codes  []int32
	dict   []string
	dictID map[string]int32

	// index holds code c's bitmap at index[c*w:(c+1)*w], w = ⌈rows/64⌉
	// words, bit i set iff codes[i] == c; nil for unindexed columns.
	index bitmap
}

// NewColumn returns an empty column of the given kind.
func NewColumn(name string, kind Kind) *Column {
	c := &Column{Name: name, Kind: kind}
	if kind == KindString {
		c.dictID = make(map[string]int32)
	}
	return c
}

// Len returns the number of rows stored.
func (c *Column) Len() int {
	switch c.Kind {
	case KindInt:
		return len(c.ints)
	case KindFloat:
		return len(c.floats)
	case KindString:
		return len(c.codes)
	}
	return 0
}

// appendValue adds a value, converting numerics as needed. It returns
// an error on kind mismatches that cannot be converted. Rows reach a
// column only through Table.AppendRow, which refuses them once the
// table is registered, so a frozen column and its index cannot drift.
func (c *Column) appendValue(v Value) error {
	switch c.Kind {
	case KindInt:
		switch v.K {
		case KindInt:
			c.ints = append(c.ints, v.I)
		case KindFloat:
			c.ints = append(c.ints, int64(v.F))
		default:
			return fmt.Errorf("sqldb: cannot store %s in BIGINT column %q", v.K, c.Name)
		}
	case KindFloat:
		switch v.K {
		case KindInt:
			c.floats = append(c.floats, float64(v.I))
		case KindFloat:
			c.floats = append(c.floats, v.F)
		default:
			return fmt.Errorf("sqldb: cannot store %s in DOUBLE column %q", v.K, c.Name)
		}
	case KindString:
		if v.K != KindString {
			return fmt.Errorf("sqldb: cannot store %s in TEXT column %q", v.K, c.Name)
		}
		c.codes = append(c.codes, c.intern(v.S))
	default:
		return fmt.Errorf("sqldb: column %q has invalid kind", c.Name)
	}
	return nil
}

// intern returns the dictionary code for s, adding it when new.
func (c *Column) intern(s string) int32 {
	if id, ok := c.dictID[s]; ok {
		return id
	}
	id := int32(len(c.dict))
	c.dict = append(c.dict, s)
	c.dictID[s] = id
	return id
}

// Value returns the value at row i.
func (c *Column) Value(i int) Value {
	switch c.Kind {
	case KindInt:
		return Int(c.ints[i])
	case KindFloat:
		return Float(c.floats[i])
	case KindString:
		return Str(c.dict[c.codes[i]])
	}
	return Null()
}

// DistinctCount returns the number of distinct values: the dictionary
// size for string columns, a hash-set count over every row for numeric
// ones (Table.DistinctCount caches it).
func (c *Column) DistinctCount() int {
	switch c.Kind {
	case KindString:
		return len(c.dict)
	case KindInt:
		seen := make(map[int64]struct{}, 1024)
		for _, v := range c.ints {
			seen[v] = struct{}{}
		}
		return len(seen)
	case KindFloat:
		seen := make(map[float64]struct{}, 1024)
		for _, v := range c.floats {
			seen[v] = struct{}{}
		}
		return len(seen)
	}
	return 0
}

// DistinctInts returns the sorted distinct values of an integer column,
// capped at max entries (0 = unlimited). The NLQ layer indexes these as
// candidate numeric predicate constants.
func (c *Column) DistinctInts(max int) []int64 {
	if c.Kind != KindInt {
		return nil
	}
	seen := make(map[int64]struct{}, 1024)
	for _, v := range c.ints {
		seen[v] = struct{}{}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// DistinctStrings returns the sorted distinct values of a string column.
// The NLQ layer indexes these as candidate predicate constants.
func (c *Column) DistinctStrings() []string {
	if c.Kind != KindString {
		return nil
	}
	out := append([]string(nil), c.dict...)
	sort.Strings(out)
	return out
}

// code returns the dictionary code for s and whether it exists; only valid
// for string columns.
func (c *Column) code(s string) (int32, bool) {
	id, ok := c.dictID[s]
	return id, ok
}

// codeBits returns code's table-wide selection bitmap; only valid for
// an indexed column.
func (c *Column) codeBits(code int32) bitmap {
	w := (len(c.codes) + 63) / 64
	return c.index[int(code)*w : (int(code)+1)*w]
}

// freeze trims the column's storage to its length — a frozen column
// takes no more rows, so append headroom is dead memory — and indexes
// a string column of at most indexMaxCodes codes.
func (c *Column) freeze() {
	c.ints, c.floats, c.codes, c.dict = exact(c.ints), exact(c.floats), exact(c.codes), exact(c.dict)
	if c.Kind != KindString || len(c.dict) > indexMaxCodes {
		return
	}
	w := (len(c.codes) + 63) / 64
	c.index = make(bitmap, len(c.dict)*w)
	for i, code := range c.codes {
		c.index[int(code)*w+i>>6] |= 1 << uint(i&63)
	}
}

// exact returns s with its capacity cut to its length, copying it only
// when it has spare capacity.
func exact[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	out := make(S, len(s))
	copy(out, s)
	return out
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name string

	cols   []*Column
	byName map[string]int
	rows   int

	// frozen is set by DB.Register (freeze): a registered table is read
	// by concurrent queries, and aggregate sketches built from it assume
	// its rows never change, so it takes no more rows.
	frozen     atomic.Bool
	freezeOnce sync.Once

	// distincts caches numeric columns' distinct counts for the cost
	// model, each computed when first asked for, guarded by statsMu
	// because concurrent queries may be the first to ask.
	statsMu   sync.Mutex
	distincts map[string]distinctCount
}

// distinctCount is a cached distinct count and the row count it
// describes.
type distinctCount struct {
	n, rows int
}

// NewTable creates an empty table with the given column definitions.
func NewTable(name string, defs ...ColumnDef) (*Table, error) {
	t := &Table{Name: name, byName: make(map[string]int)}
	for _, d := range defs {
		if _, dup := t.byName[d.Name]; dup {
			return nil, fmt.Errorf("sqldb: duplicate column %q in table %q", d.Name, name)
		}
		t.byName[d.Name] = len(t.cols)
		t.cols = append(t.cols, NewColumn(d.Name, d.Kind))
	}
	if len(t.cols) == 0 {
		return nil, fmt.Errorf("sqldb: table %q needs at least one column", name)
	}
	return t, nil
}

// ColumnDef declares a column for NewTable.
type ColumnDef struct {
	Name string
	Kind Kind
}

// NumRows returns the number of rows in the table.
func (t *Table) NumRows() int { return t.rows }

// Columns returns the table's columns in declaration order.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the column names in declaration order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Name
	}
	return out
}

// Column returns the named column, or nil when absent.
func (t *Table) Column(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.cols[i]
	}
	return nil
}

// AppendRow appends one row; values must match the column count and
// kinds. It fails once the table is registered with a DB.
func (t *Table) AppendRow(vals ...Value) error {
	if t.frozen.Load() {
		return fmt.Errorf("sqldb: table %q is registered and read-only", t.Name)
	}
	if len(vals) != len(t.cols) {
		return fmt.Errorf("sqldb: table %q has %d columns, got %d values",
			t.Name, len(t.cols), len(vals))
	}
	for i, v := range vals {
		if err := t.cols[i].appendValue(v); err != nil {
			// Roll back the partially appended row to keep columns aligned.
			for j := 0; j < i; j++ {
				t.cols[j].truncate(t.rows)
			}
			return err
		}
	}
	t.rows++
	return nil
}

// truncate shortens the column to n rows (internal rollback helper).
func (c *Column) truncate(n int) {
	switch c.Kind {
	case KindInt:
		c.ints = c.ints[:n]
	case KindFloat:
		c.floats = c.floats[:n]
	case KindString:
		c.codes = c.codes[:n]
	}
}

// freeze makes t read-only and freezes its columns, exactly once
// however many DBs register it: a second caller waits until the first
// has finished, so no query can see a half-built index.
func (t *Table) freeze() {
	t.freezeOnce.Do(func() {
		t.frozen.Store(true)
		for _, c := range t.cols {
			c.freeze()
		}
	})
}

// DistinctCount returns a column's distinct count for the cost model
// (0 for an unknown column): a string column's dictionary size, or a
// numeric column's count, computed the first time it is asked for and
// again after rows were appended. Concurrent first askers share one
// computation.
func (t *Table) DistinctCount(col string) int {
	c := t.Column(col)
	switch {
	case c == nil:
		return 0
	case c.Kind == KindString:
		return len(c.dict)
	}
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	d, ok := t.distincts[col]
	if !ok || d.rows != t.rows {
		d = distinctCount{n: c.DistinctCount(), rows: t.rows}
		if t.distincts == nil {
			t.distincts = make(map[string]distinctCount)
		}
		t.distincts[col] = d
	}
	return d.n
}

// Row materializes row i as values (mostly for tests and small results).
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.Value(i)
	}
	return out
}
