package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Column is a typed, columnar vector. String columns are dictionary
// encoded: distinct strings live once in dict and rows store int32 codes,
// which makes equality predicates a single integer comparison per row —
// the dominant operation in MUVE's workloads.
type Column struct {
	Name string
	Kind Kind

	ints   []int64
	floats []float64
	codes  []int32
	dict   []string
	dictID map[string]int32
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

// Append adds a value, converting numerics as needed. It returns an error
// on kind mismatches that cannot be converted.
func (c *Column) Append(v Value) error {
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

// DistinctCount returns the number of distinct values. For string columns
// this is exact (dictionary size); for numeric columns it is computed on
// demand and cached by Table.Analyze.
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

// Table is a named collection of equal-length columns.
type Table struct {
	Name string

	cols   []*Column
	byName map[string]int
	rows   int

	// frozen is set by DB.Register: a registered table is read by
	// concurrent queries, and aggregate sketches built from it assume
	// its rows never change, so it takes no more rows.
	frozen atomic.Bool

	// Statistics filled lazily by Analyze for the cost model, guarded by
	// statsMu because concurrent queries may be the first to ask.
	// statsRows is the row count they describe.
	statsMu   sync.Mutex
	statsRows int
	distincts map[string]int
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
		if err := t.cols[i].Append(v); err != nil {
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

// Analyze collects per-column statistics (distinct counts) for the cost
// model, mirroring Postgres' ANALYZE. It is called lazily by the cost
// estimator; calling it eagerly after bulk load avoids a first-query
// stall.
func (t *Table) Analyze() { t.stats() }

// stats returns the distinct counts, computing them first when none
// exist yet or rows were appended since. Concurrent first queries share
// one computation.
func (t *Table) stats() map[string]int {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.distincts == nil || t.statsRows != t.rows {
		d := make(map[string]int, len(t.cols))
		for _, c := range t.cols {
			d[c.Name] = c.DistinctCount()
		}
		t.distincts, t.statsRows = d, t.rows
	}
	return t.distincts
}

// DistinctCount returns the cached distinct count for a column, running
// Analyze when statistics are stale.
func (t *Table) DistinctCount(col string) int {
	return t.stats()[col]
}

// Row materializes row i as values (mostly for tests and small results).
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.Value(i)
	}
	return out
}
