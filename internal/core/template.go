package core

import (
	"fmt"
	"slices"
	"strings"

	"muve/internal/sqldb"
)

// Slot identifies which query element a template's placeholder replaces.
// Each template has exactly one placeholder ("the template contains one
// placeholder", Section 3), which may substitute "constants in predicates
// but also operators or aggregation functions" (Definition 2).
type Slot uint8

const (
	// SlotAggFunc varies the aggregation function on the x axis.
	SlotAggFunc Slot = iota
	// SlotAggCol varies the aggregated column.
	SlotAggCol
	// SlotPredCol varies one predicate's column (its value fixed).
	SlotPredCol
	// SlotPredVal varies one predicate's constant (its column fixed).
	SlotPredVal
)

// String names the slot.
func (s Slot) String() string {
	switch s {
	case SlotAggFunc:
		return "aggregate"
	case SlotAggCol:
		return "aggregation column"
	case SlotPredCol:
		return "predicate column"
	case SlotPredVal:
		return "predicate value"
	}
	return fmt.Sprintf("Slot(%d)", uint8(s))
}

// Template is a query template with one placeholder. Queries instantiating
// the same template can share a plot; the title references the fixed parts
// while x-axis labels carry the placeholder substitutions.
type Template struct {
	// Key canonically identifies the template: two queries are plot-
	// compatible iff they derive an identical Key for some slot.
	Key string
	// Title is the human-readable plot title with "?" at the placeholder.
	Title string
	// Slot says which element the placeholder replaces.
	Slot Slot
	// PredIdx is the predicate index for SlotPredCol/SlotPredVal.
	PredIdx int
}

// Instantiation pairs a template with the concrete label a query
// substitutes for the placeholder.
type Instantiation struct {
	Template Template
	Label    string
}

// TemplatesOf derives every template a candidate query instantiates
// (function T(q) in Algorithm 2), together with the query's label in each.
// The query must have exactly one aggregate. The greedy, ILP, exhaustive
// and voice planners read the instance's template index instead, which
// derives the same templates once per instance.
func TemplatesOf(q sqldb.Query) []Instantiation {
	if len(q.Aggs) != 1 {
		return nil
	}
	qp := newQueryParts(q)
	var out []Instantiation
	qp.each(func(slot Slot, pred int, label string) {
		out = append(out, Instantiation{
			Template: Template{
				Key:     string(qp.appendKey(nil, slot, pred)),
				Title:   qp.title(slot, pred),
				Slot:    slot,
				PredIdx: pred,
			},
			Label: label,
		})
	})
	return out
}

// LabelFor returns the label query q contributes to the given template, or
// false when q does not instantiate it.
func LabelFor(q sqldb.Query, t Template) (string, bool) {
	for _, inst := range TemplatesOf(q) {
		if inst.Template.Key == t.Key {
			return inst.Label, true
		}
	}
	return "", false
}

// predParts holds the strings one predicate contributes to template keys,
// titles and labels.
type predParts struct {
	sql     string // Predicate.String()
	literal string // the SQL literal of Values[0]; equality predicates only
	display string // Values[0].Display()
}

// queryParts is a candidate query with every string its templates need,
// each formatted once.
type queryParts struct {
	q     sqldb.Query
	preds []predParts
	// sorted lists predicate indices in ascending sql order, the
	// canonical order of a key's fixed predicates.
	sorted []int
}

// newQueryParts formats q's predicates. q must have exactly one aggregate.
func newQueryParts(q sqldb.Query) queryParts {
	qp := queryParts{q: q, preds: make([]predParts, len(q.Preds)), sorted: make([]int, len(q.Preds))}
	for i, p := range q.Preds {
		pp := &qp.preds[i]
		if p.Op == sqldb.OpEq {
			pp.literal = p.Values[0].String()
			pp.sql = p.Col + " = " + pp.literal
		} else {
			pp.sql = p.String()
		}
		pp.display = p.Values[0].Display()
		// Insertion sort: candidate queries carry a handful of predicates.
		j := i
		for ; j > 0 && qp.preds[qp.sorted[j-1]].sql > pp.sql; j-- {
			qp.sorted[j] = qp.sorted[j-1]
		}
		qp.sorted[j] = i
	}
	return qp
}

// each calls f for every template the query instantiates, in
// TemplatesOf order, with the query's label in it. pred is the
// predicate index for SlotPredCol and SlotPredVal, 0 otherwise.
func (qp *queryParts) each(f func(slot Slot, pred int, label string)) {
	agg := qp.q.Aggs[0]
	// Placeholder on the aggregation function: "?(col) ...".
	f(SlotAggFunc, 0, agg.Func.String())
	// Placeholder on the aggregated column (COUNT(*) has none).
	if agg.Col != "" {
		f(SlotAggCol, 0, agg.Col)
	}
	for i, p := range qp.q.Preds {
		if p.Op != sqldb.OpEq {
			continue // candidate queries carry equality predicates only
		}
		f(SlotPredCol, i, p.Col)
		f(SlotPredVal, i, qp.preds[i].display)
	}
}

// wildcards reports whether the slot replaces predicate i.
func wildcards(slot Slot, pred, i int) bool {
	return (slot == SlotPredCol || slot == SlotPredVal) && i == pred
}

// appendKey appends the template key: the query canonically serialized
// with the slot wildcarded. Predicates other than the wildcarded one are
// sorted so that queries whose predicates merely appear in different
// order still share templates.
func (qp *queryParts) appendKey(b []byte, slot Slot, pred int) []byte {
	agg := qp.q.Aggs[0]
	b = append(b, "t="...)
	b = append(b, qp.q.Table...)
	b = append(b, "|a="...)
	switch slot {
	case SlotAggFunc:
		b = append(b, "?("...)
		b = append(b, agg.Col...)
		b = append(b, ')')
	case SlotAggCol:
		b = append(b, agg.Func.String()...)
		b = append(b, "(?)"...)
	default:
		b = append(b, agg.String()...)
	}
	b = append(b, "|w="...)
	switch slot {
	case SlotPredCol:
		b = append(b, "?="...)
		b = append(b, qp.preds[pred].literal...)
	case SlotPredVal:
		b = append(b, qp.q.Preds[pred].Col...)
		b = append(b, "=?"...)
	}
	b = append(b, "|p="...)
	first := true
	for _, i := range qp.sorted {
		if wildcards(slot, pred, i) {
			continue
		}
		if !first {
			b = append(b, '&')
		}
		first = false
		b = append(b, qp.preds[i].sql...)
	}
	return b
}

// title renders the human plot title with "?" at the placeholder, e.g.
// "? of delay | origin = JFK" or "count | borough = ?".
func (qp *queryParts) title(slot Slot, pred int) string {
	agg := qp.q.Aggs[0]
	var b strings.Builder
	n := len("? of rows") + len(agg.Col)
	for i, p := range qp.q.Preds {
		n += len(" | ") + len(p.Col) + len(" = ") + len(qp.preds[i].display)
	}
	b.Grow(n)
	switch slot {
	case SlotAggFunc:
		if agg.Col == "" {
			b.WriteString("? of rows")
		} else {
			b.WriteString("? of ")
			b.WriteString(agg.Col)
		}
	case SlotAggCol:
		b.WriteString(agg.Func.String())
		b.WriteString(" of ?")
	default:
		if agg.Col == "" {
			b.WriteString("count")
		} else {
			b.WriteString(agg.Func.String())
			b.WriteString(" of ")
			b.WriteString(agg.Col)
		}
	}
	for i, p := range qp.q.Preds {
		b.WriteString(" | ")
		switch {
		case slot == SlotPredCol && i == pred:
			b.WriteString("? = ")
			b.WriteString(qp.preds[i].display)
		case slot == SlotPredVal && i == pred:
			b.WriteString(p.Col)
			b.WriteString(" = ?")
		default:
			b.WriteString(p.Col)
			b.WriteString(" = ")
			b.WriteString(qp.preds[i].display)
		}
	}
	return b.String()
}

// TemplateGroup is one template with the candidates that instantiate it
// (the grouping loop of Algorithm 2), sorted by decreasing probability
// with ties by candidate index. Labels[i] is Queries[i]'s label.
type TemplateGroup struct {
	Template Template
	Queries  []int
	Labels   []string
}

// templateIndex is an instance's template grouping, built once and shared
// by every solver and by voice fact extraction.
type templateIndex struct {
	// groups is in ascending Template.Key order; a group's ID is its
	// position.
	groups []TemplateGroup
	byKey  map[string]int
}

// TemplateGroups returns the instance's template groups in ascending
// Template.Key order. They are built from Candidates on first use and
// shared by every caller, which must not modify them.
func (in *Instance) TemplateGroups() []TemplateGroup {
	return in.templates().groups
}

// templates returns the instance's template index, building it on first
// use.
func (in *Instance) templates() *templateIndex {
	in.tmplOnce.Do(func() { in.tmpl = buildTemplateIndex(in.Candidates) })
	return in.tmpl
}

// buildTemplateIndex groups candidates by template. Each key is
// serialized into a scratch buffer and looked up without allocating, so
// keys and titles are built once per distinct template. A group's
// Template is the one its lowest-index candidate derives: queries whose
// predicates appear in different orders share a key but not a title.
func buildTemplateIndex(cands []Candidate) *templateIndex {
	parts := make([]queryParts, len(cands))
	// Members are appended in decreasing probability, ties by index, so
	// every group comes out in the order the solvers read it (Theorem 2's
	// prefixes).
	order := make([]int, 0, len(cands))
	insts := 0 // instantiations, an upper bound on the groups
	for qi, c := range cands {
		if len(c.Query.Aggs) != 1 {
			continue // not a candidate; Validate rejects it
		}
		parts[qi] = newQueryParts(c.Query)
		order = append(order, qi)
		parts[qi].each(func(Slot, int, string) { insts++ })
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch pa, pb := cands[a].Prob, cands[b].Prob; {
		case pa > pb:
			return -1
		case pa < pb:
			return 1
		}
		return 0
	})

	// The first pass assigns every instantiation its group; the second
	// lays all members out in one backing array per field.
	type owner struct {
		qi   int
		slot Slot
		pred int
	}
	type member struct {
		id, qi int
		label  string
	}
	byKey := make(map[string]int, insts)
	groups := make([]TemplateGroup, 0, insts)
	owners := make([]owner, 0, insts)
	last := make([]int, 0, insts) // per group, its latest member
	members := make([]member, 0, insts)
	var buf []byte
	for _, qi := range order {
		qp := &parts[qi]
		qp.each(func(slot Slot, pred int, label string) {
			buf = qp.appendKey(buf[:0], slot, pred)
			id, ok := byKey[string(buf)]
			if !ok {
				id = len(groups)
				key := string(buf)
				byKey[key] = id
				groups = append(groups, TemplateGroup{Template: Template{Key: key}})
				owners = append(owners, owner{qi, slot, pred})
				last = append(last, -1)
			} else if qi < owners[id].qi {
				owners[id] = owner{qi, slot, pred}
			}
			if last[id] == qi {
				return // a query instantiates each template at most once
			}
			last[id] = qi
			members = append(members, member{id, qi, label})
		})
	}
	count := make([]int, len(groups))
	for _, m := range members {
		count[m.id]++
	}
	queries := make([]int, len(members))
	labels := make([]string, len(members))
	off := 0
	for id, n := range count {
		groups[id].Queries = queries[off : off : off+n]
		groups[id].Labels = labels[off : off : off+n]
		off += n
	}
	for _, m := range members {
		g := &groups[m.id]
		g.Queries = append(g.Queries, m.qi)
		g.Labels = append(g.Labels, m.label)
	}
	// Templates for the groups, then renumber them in key order.
	perm := make([]int, len(groups))
	for id, o := range owners {
		t := &groups[id].Template
		t.Slot, t.PredIdx, t.Title = o.slot, o.pred, parts[o.qi].title(o.slot, o.pred)
		perm[id] = id
	}
	slices.SortFunc(perm, func(a, b int) int {
		return strings.Compare(groups[a].Template.Key, groups[b].Template.Key)
	})
	idx := &templateIndex{groups: make([]TemplateGroup, len(groups)), byKey: byKey}
	for id, old := range perm {
		idx.groups[id] = groups[old]
		byKey[groups[old].Template.Key] = id
	}
	return idx
}
