package sqldb

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// LoadCSV reads CSV data with a header row into a new table, inferring
// column kinds from the first data row: values parsing as integers become
// BIGINT, as floats DOUBLE, anything else TEXT. A later row that breaks an
// inferred numeric kind is an error — synthetic and exported data sets are
// type-consistent, and silent coercion would corrupt aggregates.
func LoadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("sqldb: reading CSV header: %w", err)
	}
	cols := append([]string(nil), header...)
	first, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("sqldb: CSV %q has a header but no rows", name)
	}
	if err != nil {
		return nil, fmt.Errorf("sqldb: reading first CSV row: %w", err)
	}
	defs := make([]ColumnDef, len(cols))
	for i, c := range cols {
		defs[i] = ColumnDef{Name: strings.TrimSpace(c), Kind: inferKind(first[i])}
	}
	t, err := NewTable(name, defs...)
	if err != nil {
		return nil, err
	}
	appendRecord := func(rec []string, line int) error {
		if len(rec) != len(cols) {
			return fmt.Errorf("sqldb: CSV row %d has %d fields, want %d", line, len(rec), len(cols))
		}
		vals := make([]Value, len(rec))
		for i, f := range rec {
			v, err := parseField(f, defs[i].Kind)
			if err != nil {
				return fmt.Errorf("sqldb: CSV row %d column %q: %w", line, defs[i].Name, err)
			}
			vals[i] = v
		}
		return t.AppendRow(vals...)
	}
	if err := appendRecord(first, 2); err != nil {
		return nil, err
	}
	for line := 3; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sqldb: reading CSV row %d: %w", line, err)
		}
		if err := appendRecord(rec, line); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// WriteCSV writes the table as CSV with a header row.
func WriteCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, len(t.Columns()))
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.Columns() {
			rec[j] = c.Value(i).Display()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// inferKind guesses a column kind from a sample field.
func inferKind(field string) Kind {
	f := strings.TrimSpace(field)
	if f == "" {
		return KindString
	}
	if _, err := strconv.ParseInt(f, 10, 64); err == nil {
		return KindInt
	}
	if _, err := strconv.ParseFloat(f, 64); err == nil {
		return KindFloat
	}
	return KindString
}

// parseField converts a CSV field into a value of the given kind.
func parseField(field string, k Kind) (Value, error) {
	f := strings.TrimSpace(field)
	switch k {
	case KindInt:
		iv, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("%q is not an integer", field)
		}
		return Int(iv), nil
	case KindFloat:
		fv, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return Null(), fmt.Errorf("%q is not a number", field)
		}
		return Float(fv), nil
	default:
		return Str(field), nil
	}
}
