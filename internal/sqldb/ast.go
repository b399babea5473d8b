package sqldb

import (
	"fmt"
	"strings"
)

// AggFunc enumerates the aggregation functions the engine supports — the
// query class MUVE targets produces "one single, numerical output"
// (paper Definition 1), i.e. exactly these aggregates.
type AggFunc uint8

const (
	// AggCount is COUNT(*) or COUNT(col).
	AggCount AggFunc = iota
	// AggSum is SUM(col).
	AggSum
	// AggAvg is AVG(col).
	AggAvg
	// AggMin is MIN(col).
	AggMin
	// AggMax is MAX(col).
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("agg(%d)", uint8(f))
}

// ParseAggFunc maps a (case-insensitive) name to an AggFunc.
func ParseAggFunc(name string) (AggFunc, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg", "average", "mean":
		return AggAvg, true
	case "min", "minimum":
		return AggMin, true
	case "max", "maximum":
		return AggMax, true
	}
	return 0, false
}

// AllAggFuncs lists every supported aggregate; workload generators pick
// from this set uniformly, matching the paper's query generation protocol.
var AllAggFuncs = []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax}

// Aggregate is one output aggregate of a query. Col is empty for COUNT(*).
type Aggregate struct {
	Func AggFunc
	Col  string
}

// String renders the aggregate as SQL.
func (a Aggregate) String() string {
	if a.Col == "" {
		return a.Func.String() + "(*)"
	}
	return a.Func.String() + "(" + a.Col + ")"
}

// PredOp enumerates predicate operators.
type PredOp uint8

const (
	// OpEq is an equality predicate col = value.
	OpEq PredOp = iota
	// OpIn is a membership predicate col IN (v1, v2, ...). Query merging
	// rewrites several equality predicates on one column into an IN.
	OpIn
)

// Predicate is a conjunct of a query's WHERE clause.
type Predicate struct {
	Col    string
	Op     PredOp
	Values []Value // exactly one for OpEq
}

// String renders the predicate as SQL.
func (p Predicate) String() string {
	switch p.Op {
	case OpEq:
		return p.Col + " = " + p.Values[0].String()
	case OpIn:
		parts := make([]string, len(p.Values))
		for i, v := range p.Values {
			parts[i] = v.String()
		}
		return p.Col + " IN (" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}

// Query is the engine's AST: a single-table aggregation query with a
// conjunction of equality/IN predicates and an optional GROUP BY.
type Query struct {
	Aggs    []Aggregate
	Table   string
	Preds   []Predicate
	GroupBy []string
}

// SQL renders the query as a SQL string accepted by Parse.
func (q Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	if len(q.GroupBy) > 0 {
		for _, g := range q.GroupBy {
			b.WriteString(", ")
			b.WriteString(g)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(q.Table)
	if len(q.Preds) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Preds {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
	}
	return b.String()
}

// String is SQL.
func (q Query) String() string { return q.SQL() }

// Clone returns a deep copy of the query; planners mutate clones freely.
func (q Query) Clone() Query {
	cp := Query{
		Aggs:    append([]Aggregate(nil), q.Aggs...),
		Table:   q.Table,
		GroupBy: append([]string(nil), q.GroupBy...),
	}
	// Every predicate's values share one backing array, each capped at
	// its own length so an append never reaches a neighbour's.
	n := 0
	for _, p := range q.Preds {
		n += len(p.Values)
	}
	vals := make([]Value, 0, n)
	cp.Preds = make([]Predicate, len(q.Preds))
	for i, p := range q.Preds {
		cp.Preds[i] = Predicate{Col: p.Col, Op: p.Op}
		if len(p.Values) > 0 {
			lo := len(vals)
			vals = append(vals, p.Values...)
			cp.Preds[i].Values = vals[lo:len(vals):len(vals)]
		}
	}
	return cp
}

// Validate checks the query against a table's schema: referenced columns
// must exist, aggregated columns (other than COUNT) must be numeric, and
// GROUP BY columns must appear at most once.
func (q Query) Validate(t *Table) error {
	if len(q.Aggs) == 0 {
		return fmt.Errorf("sqldb: query on %q has no aggregates", q.Table)
	}
	for _, a := range q.Aggs {
		if a.Col == "" {
			if a.Func != AggCount {
				return fmt.Errorf("sqldb: %s requires a column", a.Func)
			}
			continue
		}
		c := t.Column(a.Col)
		if c == nil {
			return fmt.Errorf("sqldb: unknown column %q in aggregate", a.Col)
		}
		if a.Func != AggCount && c.Kind == KindString {
			return fmt.Errorf("sqldb: %s over TEXT column %q", a.Func, a.Col)
		}
	}
	for _, p := range q.Preds {
		if t.Column(p.Col) == nil {
			return fmt.Errorf("sqldb: unknown column %q in predicate", p.Col)
		}
		if len(p.Values) == 0 {
			return fmt.Errorf("sqldb: predicate on %q has no values", p.Col)
		}
		if p.Op == OpEq && len(p.Values) != 1 {
			return fmt.Errorf("sqldb: equality predicate on %q needs exactly one value", p.Col)
		}
	}
	seen := make(map[string]bool, len(q.GroupBy))
	for _, g := range q.GroupBy {
		if t.Column(g) == nil {
			return fmt.Errorf("sqldb: unknown GROUP BY column %q", g)
		}
		if seen[g] {
			return fmt.Errorf("sqldb: duplicate GROUP BY column %q", g)
		}
		seen[g] = true
	}
	return nil
}
