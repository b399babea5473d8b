package nlq

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"muve/internal/sqldb"
)

// Translator maps natural-language transcripts to a most-likely SQL query
// over one table. It is deliberately rule-based (see the package comment):
// aggregate intent from keyword patterns, the aggregation column by
// phonetic match against numeric columns, and predicates by phonetic match
// of remaining tokens against column dictionaries.
type Translator struct {
	Catalog *Catalog
	// MinMatchScore is the phonetic score below which a token is not
	// accepted as a predicate constant (default 0.84 — four-character
	// Double Metaphone codes make Jaro-Winkler generous, so the gate must
	// sit above the scores of unrelated word pairs).
	MinMatchScore float64
	// MinAggScore gates the aggregation-column match (default 0.65; the
	// match is already restricted to numeric columns and falls back to
	// the first numeric column, so it can afford to be lenient).
	MinAggScore float64
	// MaxPredicates caps recognized equality predicates (default 5, the
	// paper's query generator uses "up to five equality predicates").
	MaxPredicates int
}

// NewTranslator returns a translator over the catalog with defaults.
func NewTranslator(c *Catalog) *Translator {
	return &Translator{Catalog: c, MinMatchScore: 0.84, MinAggScore: 0.65, MaxPredicates: 5}
}

// aggKeywords maps trigger words to aggregate functions.
var aggKeywords = map[string]sqldb.AggFunc{
	"count": sqldb.AggCount, "many": sqldb.AggCount, "number": sqldb.AggCount,
	"sum": sqldb.AggSum, "total": sqldb.AggSum,
	"average": sqldb.AggAvg, "avg": sqldb.AggAvg, "mean": sqldb.AggAvg,
	"minimum": sqldb.AggMin, "min": sqldb.AggMin, "lowest": sqldb.AggMin, "smallest": sqldb.AggMin,
	"maximum": sqldb.AggMax, "max": sqldb.AggMax, "highest": sqldb.AggMax, "largest": sqldb.AggMax,
}

// fillerWords are skipped when matching predicate tokens.
var fillerWords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "in": true, "on": true,
	"for": true, "with": true, "is": true, "are": true, "was": true,
	"what": true, "whats": true, "show": true, "me": true, "give": true,
	"how": true, "per": true, "by": true, "from": true, "where": true,
	"and": true, "to": true, "at": true, "all": true, "records": true,
	"rows": true, "entries": true, "do": true, "does": true, "there": true,
	"that": true, "have": true, "has": true,
}

// Translate maps a transcript to the most likely query. It never returns
// an un-runnable query: when no aggregate keyword is found it defaults to
// COUNT(*), and when an aggregate needs a column but none matches, the
// first numeric column is used.
func (tr *Translator) Translate(text string) (sqldb.Query, error) {
	if err := tr.Catalog.Validate(); err != nil {
		return sqldb.Query{}, err
	}
	words := normWords(text)
	if len(words) == 0 {
		return sqldb.Query{}, fmt.Errorf("nlq: empty transcript")
	}
	consumed := make([]bool, len(words))

	agg := tr.detectAggregate(words, consumed)
	preds := tr.detectPredicates(words, consumed)

	q := sqldb.Query{
		Aggs:  []sqldb.Aggregate{agg},
		Table: tr.Catalog.Table,
		Preds: preds,
	}
	return q, nil
}

// detectAggregate finds the aggregate function and, when needed, its
// column.
func (tr *Translator) detectAggregate(words []string, consumed []bool) sqldb.Aggregate {
	fn := sqldb.AggCount
	fnPos := -1
	for i, w := range words {
		if f, ok := aggKeywords[w]; ok {
			fn = f
			fnPos = i
			consumed[i] = true
			break
		}
	}
	if fn == sqldb.AggCount {
		return sqldb.Aggregate{Func: sqldb.AggCount}
	}
	// Aggregation column: best numeric-column match among tokens after the
	// keyword (people say "average delay", "total population of ...").
	bestCol := ""
	bestScore := 0.0
	bestPos := -1
	for i := fnPos + 1; i < len(words) && i <= fnPos+4; i++ {
		if fillerWords[words[i]] || consumed[i] {
			continue
		}
		ms := tr.Catalog.SimilarNumericColumns(words[i], 1)
		if len(ms) > 0 && ms[0].Score > bestScore {
			bestScore = ms[0].Score
			bestCol = ms[0].Entry
			bestPos = i
		}
	}
	if bestCol == "" || bestScore < tr.MinAggScore {
		// Fall back to the first numeric column; without one the query
		// degrades to COUNT(*).
		if cols := tr.Catalog.NumericColumns(); len(cols) > 0 {
			return sqldb.Aggregate{Func: fn, Col: cols[0]}
		}
		return sqldb.Aggregate{Func: sqldb.AggCount}
	}
	consumed[bestPos] = true
	return sqldb.Aggregate{Func: fn, Col: bestCol}
}

// detectPredicates matches remaining tokens (and adjacent-word bigrams)
// against column value dictionaries. Pure-number tokens resolve against
// integer columns containing that value ("complaints in 2015" ->
// year = 2015).
func (tr *Translator) detectPredicates(words []string, consumed []bool) []sqldb.Predicate {
	type match struct {
		col, val string
		intVal   int64
		isInt    bool
		score    float64
		from, to int // token span [from, to)
	}
	var matches []match
	tryProbe := func(probe string, from, to int) {
		if startsLikeNumber(probe) {
			if iv, err := strconv.ParseInt(probe, 10, 64); err == nil {
				// Exact numeric matches outrank phonetic string matches.
				for _, col := range tr.Catalog.IntColumnsContaining(iv) {
					matches = append(matches, match{
						col: col, intVal: iv, isInt: true, score: 1.01, from: from, to: to,
					})
				}
				return
			}
		}
		val, col, score, ok := tr.Catalog.ResolveValue(probe)
		if !ok || score < tr.MinMatchScore {
			return
		}
		matches = append(matches, match{col: col, val: val, score: score, from: from, to: to})
	}
	for i := range words {
		if consumed[i] || fillerWords[words[i]] {
			continue
		}
		tryProbe(words[i], i, i+1)
		if i+1 < len(words) && !consumed[i+1] && !fillerWords[words[i+1]] {
			tryProbe(words[i]+" "+words[i+1], i, i+2)
		}
	}
	// Greedily keep the best non-overlapping matches, at most one per
	// column (equality predicates on the same column would conflict).
	// Order by decreasing score, ties broken by span start then column for
	// determinism.
	sort.Slice(matches, func(i, j int) bool {
		a, b := matches[i], matches[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.col < b.col
	})
	used := make([]bool, len(words))
	usedCol := map[string]bool{}
	var preds []sqldb.Predicate
	for _, m := range matches {
		if len(preds) >= tr.MaxPredicates {
			break
		}
		overlap := false
		for i := m.from; i < m.to; i++ {
			if used[i] {
				overlap = true
				break
			}
		}
		if overlap || usedCol[m.col] {
			continue
		}
		for i := m.from; i < m.to; i++ {
			used[i] = true
		}
		usedCol[m.col] = true
		v := sqldb.Str(m.val)
		if m.isInt {
			v = sqldb.Int(m.intVal)
		}
		preds = append(preds, sqldb.Predicate{
			Col:    m.col,
			Op:     sqldb.OpEq,
			Values: []sqldb.Value{v},
		})
	}
	return preds
}

// startsLikeNumber reports whether s could parse as a base-10 integer:
// a digit, or a sign and a digit. Other probes skip strconv.ParseInt and
// the error it allocates.
func startsLikeNumber(s string) bool {
	if len(s) > 1 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	return len(s) > 0 && s[0] >= '0' && s[0] <= '9'
}

// Describe renders a query as the natural-language instruction shown to
// study participants ("read a query description, stating the aggregate as
// well as a list of column-value pairs").
func Describe(q sqldb.Query) string {
	var b strings.Builder
	if len(q.Aggs) > 0 {
		a := q.Aggs[0]
		switch a.Func {
		case sqldb.AggCount:
			b.WriteString("count of rows")
		default:
			b.WriteString(a.Func.String())
			b.WriteString(" of ")
			b.WriteString(a.Col)
		}
	}
	for i, p := range q.Preds {
		if i == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(" and ")
		}
		b.WriteString(p.Col)
		b.WriteString(" is ")
		b.WriteString(p.Values[0].Display())
	}
	return b.String()
}
