// Package nlq implements MUVE's "Text to Multi-SQL" stage (paper Section
// 3): translating a natural-language transcript into a probability
// distribution over candidate SQL queries.
//
// The stage has two parts. First, a rule-based translator maps the
// transcript to a single most-likely query — standing in for the SQLova
// sequence-to-sequence model the paper uses, which is a pre-trained neural
// network we substitute per DESIGN.md (the planner, the actual research
// contribution, only consumes the resulting distribution). Second, the
// candidate generator expands that query by replacing schema element names
// and constants with their k most phonetically similar alternatives
// (k = 20 in the paper) and assigns each combination a probability equal
// to the product of its replacements' phonetic similarities, normalized
// over the generated set.
package nlq

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"muve/internal/phonetic"
	"muve/internal/sqldb"
)

// Catalog is the schema knowledge the translator matches against: column
// names, kinds, and the distinct values of string columns, each behind a
// phonetic index. Build one per table with BuildCatalog; it is read-only
// afterwards and safe for concurrent use.
type Catalog struct {
	Table string

	columns     []string
	numericCols []string
	numIndex    *phonetic.Index
	valueIndex  map[string]*phonetic.Index // string column -> values
	intValues   map[string]intColumn       // int column -> distinct values
	colKind     map[string]sqldb.Kind
	// allValues indexes every distinct string value across columns, with
	// the owning columns, so bare constants in transcripts resolve to
	// predicates.
	allValues *phonetic.Index
	valueCols map[string][]string
}

// intColumn holds an integer column's (capped) distinct values in
// ascending order, with each value's decimal spelling.
type intColumn struct {
	values []int64
	digits []string
}

// BuildCatalog scans a table's schema and string-column dictionaries.
// Large dictionaries are capped per column to keep candidate generation
// interactive; the cap keeps the lexically smallest values, matching how
// a search index would keep the most frequent terms deterministically.
func BuildCatalog(t *sqldb.Table, maxValuesPerColumn int) *Catalog {
	if maxValuesPerColumn <= 0 {
		maxValuesPerColumn = 2000
	}
	c := &Catalog{
		Table:      t.Name,
		numIndex:   phonetic.NewIndex(),
		valueIndex: make(map[string]*phonetic.Index),
		intValues:  make(map[string]intColumn),
		colKind:    make(map[string]sqldb.Kind),
		allValues:  phonetic.NewIndex(),
		valueCols:  make(map[string][]string),
	}
	for _, col := range t.Columns() {
		c.columns = append(c.columns, col.Name)
		c.colKind[col.Name] = col.Kind
		if col.Kind == sqldb.KindInt || col.Kind == sqldb.KindFloat {
			c.numericCols = append(c.numericCols, col.Name)
			c.numIndex.Add(col.Name)
			if col.Kind == sqldb.KindInt {
				values := col.DistinctInts(maxValuesPerColumn)
				digits := make([]string, len(values))
				for i, v := range values {
					digits[i] = strconv.FormatInt(v, 10)
				}
				c.intValues[col.Name] = intColumn{values: values, digits: digits}
			}
			continue
		}
		ix := phonetic.NewIndex()
		values := col.DistinctStrings()
		if len(values) > maxValuesPerColumn {
			values = values[:maxValuesPerColumn]
		}
		for _, v := range values {
			ix.Add(v)
			c.allValues.Add(v)
			c.valueCols[v] = append(c.valueCols[v], col.Name)
		}
		c.valueIndex[col.Name] = ix
	}
	return c
}

// Columns returns all column names.
func (c *Catalog) Columns() []string { return c.columns }

// NumericColumns returns the aggregatable column names.
func (c *Catalog) NumericColumns() []string { return c.numericCols }

// Kind returns a column's kind.
func (c *Catalog) Kind(col string) (sqldb.Kind, bool) {
	k, ok := c.colKind[col]
	return k, ok
}

// SimilarNumericColumns returns the k aggregatable column names most
// phonetically similar to the probe.
func (c *Catalog) SimilarNumericColumns(probe string, k int) []phonetic.Match {
	return c.numIndex.TopK(probe, k)
}

// SimilarValues returns the k values of the given string column most
// phonetically similar to the probe.
func (c *Catalog) SimilarValues(col, probe string, k int) []phonetic.Match {
	ix, ok := c.valueIndex[col]
	if !ok {
		return nil
	}
	return ix.TopK(probe, k)
}

// ResolveValue finds the best value match for a token across all string
// columns, returning the value, its column, and the score.
func (c *Catalog) ResolveValue(probe string) (value, col string, score float64, ok bool) {
	ms := c.allValues.TopK(probe, 1)
	if len(ms) == 0 {
		return "", "", 0, false
	}
	cols := c.valueCols[ms[0].Entry]
	if len(cols) == 0 {
		return "", "", 0, false
	}
	return ms[0].Entry, cols[0], ms[0].Score, true
}

// IntColumnsContaining returns the integer columns whose (capped) distinct
// value set contains v, in declaration order. The translator uses it to
// resolve bare numbers in transcripts ("complaints in 2015") to equality
// predicates.
func (c *Catalog) IntColumnsContaining(v int64) []string {
	var out []string
	for _, col := range c.columns {
		if ic, ok := c.intValues[col]; ok {
			if _, found := slices.BinarySearch(ic.values, v); found {
				out = append(out, col)
			}
		}
	}
	return out
}

// IntValues returns the distinct values of an integer column (sorted), or
// nil for other columns. The slice is the catalog's own; callers must not
// modify it.
func (c *Catalog) IntValues(col string) []int64 {
	return c.intValues[col].values
}

// Validate checks that the catalog can support aggregation queries.
func (c *Catalog) Validate() error {
	if len(c.columns) == 0 {
		return fmt.Errorf("nlq: catalog for %q has no columns", c.Table)
	}
	return nil
}

// normWords lower-cases and splits a transcript into clean word tokens.
func normWords(text string) []string {
	fields := strings.Fields(strings.ToLower(text))
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		w := strings.Trim(f, ".,!?;:'\"()")
		if w != "" {
			out = append(out, w)
		}
	}
	return out
}
