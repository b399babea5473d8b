package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"muve/internal/sqldb"
)

// The reference grouping below is the string-keyed algorithm the template
// index replaces: every instantiation's key and title are rebuilt from
// scratch, and groups are bucketed in a map keyed by those strings. The
// index and TemplatesOf must reproduce it byte for byte.

func refTemplatesOf(q sqldb.Query) []Instantiation {
	if len(q.Aggs) != 1 {
		return nil
	}
	agg := q.Aggs[0]
	mk := func(slot Slot, pred int, label string) Instantiation {
		return Instantiation{
			Template: Template{Key: refTemplateKey(q, slot, pred), Title: refTitleFor(q, slot, pred), Slot: slot, PredIdx: max(pred, 0)},
			Label:    label,
		}
	}
	out := []Instantiation{mk(SlotAggFunc, -1, agg.Func.String())}
	if agg.Col != "" {
		out = append(out, mk(SlotAggCol, -1, agg.Col))
	}
	for i, p := range q.Preds {
		if p.Op != sqldb.OpEq {
			continue
		}
		out = append(out, mk(SlotPredCol, i, p.Col), mk(SlotPredVal, i, p.Values[0].Display()))
	}
	return out
}

func refTemplateKey(q sqldb.Query, slot Slot, predIdx int) string {
	var b strings.Builder
	b.WriteString("t=" + q.Table + "|a=")
	switch slot {
	case SlotAggFunc:
		b.WriteString("?(" + q.Aggs[0].Col + ")")
	case SlotAggCol:
		b.WriteString(q.Aggs[0].Func.String() + "(?)")
	default:
		b.WriteString(q.Aggs[0].String())
	}
	var fixed []string
	var wildcard string
	for i, p := range q.Preds {
		switch {
		case slot == SlotPredCol && i == predIdx:
			wildcard = "?=" + p.Values[0].String()
		case slot == SlotPredVal && i == predIdx:
			wildcard = p.Col + "=?"
		default:
			fixed = append(fixed, p.String())
		}
	}
	sort.Strings(fixed)
	b.WriteString("|w=" + wildcard + "|p=" + strings.Join(fixed, "&"))
	return b.String()
}

func refTitleFor(q sqldb.Query, slot Slot, predIdx int) string {
	var parts []string
	agg := q.Aggs[0]
	switch {
	case slot == SlotAggFunc && agg.Col == "":
		parts = append(parts, "? of rows")
	case slot == SlotAggFunc:
		parts = append(parts, "? of "+agg.Col)
	case slot == SlotAggCol:
		parts = append(parts, agg.Func.String()+" of ?")
	case agg.Col == "":
		parts = append(parts, "count")
	default:
		parts = append(parts, agg.Func.String()+" of "+agg.Col)
	}
	for i, p := range q.Preds {
		switch {
		case slot == SlotPredCol && i == predIdx:
			parts = append(parts, "? = "+p.Values[0].Display())
		case slot == SlotPredVal && i == predIdx:
			parts = append(parts, p.Col+" = ?")
		default:
			parts = append(parts, p.Col+" = "+p.Values[0].Display())
		}
	}
	return strings.Join(parts, " | ")
}

func refGroupByTemplate(cands []Candidate) map[string]TemplateGroup {
	groups := make(map[string]TemplateGroup)
	for qi, c := range cands {
		for _, inst := range refTemplatesOf(c.Query) {
			g, ok := groups[inst.Template.Key]
			if !ok {
				g = TemplateGroup{Template: inst.Template}
			}
			g.Queries = append(g.Queries, qi)
			g.Labels = append(g.Labels, inst.Label)
			groups[inst.Template.Key] = g
		}
	}
	for k, g := range groups {
		order := make([]int, len(g.Queries))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			pa, pb := cands[g.Queries[order[a]]].Prob, cands[g.Queries[order[b]]].Prob
			if pa != pb {
				return pa > pb
			}
			return g.Queries[order[a]] < g.Queries[order[b]]
		})
		sorted := TemplateGroup{Template: g.Template}
		seen := make(map[int]bool, len(order))
		for _, oi := range order {
			qi := g.Queries[oi]
			if seen[qi] {
				continue
			}
			seen[qi] = true
			sorted.Queries = append(sorted.Queries, qi)
			sorted.Labels = append(sorted.Labels, g.Labels[oi])
		}
		groups[k] = sorted
	}
	return groups
}

// fuzzCandidates decodes bytes into candidates: COUNT(*) and column
// aggregates over two tables, 0-3 equality predicates (columns may
// repeat) with int, float and quoted-string values, among them a quote
// and values whose int and float spellings coincide, and probabilities
// from a small set so ties are common.
func fuzzCandidates(data []byte) []Candidate {
	pos := 0
	next := func(n int) int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1]) % n
	}
	tables := []string{"r", "flights"}
	cols := []string{"a", "b", "origin", "x"}
	values := []sqldb.Value{
		sqldb.Int(1), sqldb.Int(-2), sqldb.Int(300),
		sqldb.Float(1), sqldb.Float(2.5), sqldb.Float(1e21),
		sqldb.Str("x"), sqldb.Str("o'k"), sqldb.Str("1"), sqldb.Str(""),
	}
	probs := []float64{0, 0.05, 0.1, 0.1, 0.2, 1.0 / 3}
	n := next(12)
	cands := make([]Candidate, n)
	for i := range cands {
		q := sqldb.Query{Table: tables[next(len(tables))]}
		agg := sqldb.Aggregate{Func: sqldb.AllAggFuncs[next(len(sqldb.AllAggFuncs))]}
		if next(3) > 0 {
			agg.Col = cols[next(len(cols))]
		} else {
			agg.Func = sqldb.AggCount
		}
		q.Aggs = []sqldb.Aggregate{agg}
		for p := next(4); p > 0; p-- {
			q.Preds = append(q.Preds, sqldb.Predicate{
				Col: cols[next(len(cols))], Op: sqldb.OpEq, Values: []sqldb.Value{values[next(len(values))]},
			})
		}
		cands[i] = Candidate{Query: q, Prob: probs[next(len(probs))]}
	}
	return cands
}

// checkTemplateIndex compares the index and TemplatesOf against the
// reference grouping.
func checkTemplateIndex(t *testing.T, cands []Candidate) {
	t.Helper()
	for qi, c := range cands {
		got, want := TemplatesOf(c.Query), refTemplatesOf(c.Query)
		if len(got) != len(want) {
			t.Fatalf("candidate %d: TemplatesOf gives %d instantiations, reference %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("candidate %d instantiation %d:\n got %+v\nwant %+v", qi, i, got[i], want[i])
			}
		}
	}
	in := &Instance{Candidates: cands}
	idx := in.templates()
	ref := refGroupByTemplate(cands)
	if len(idx.groups) != len(ref) || len(idx.byKey) != len(ref) {
		t.Fatalf("index has %d groups (%d keys), reference %d", len(idx.groups), len(idx.byKey), len(ref))
	}
	for id, g := range idx.groups {
		if id > 0 && idx.groups[id-1].Template.Key >= g.Template.Key {
			t.Fatalf("groups %d and %d out of key order", id-1, id)
		}
		if idx.byKey[g.Template.Key] != id {
			t.Fatalf("byKey[%q] = %d, want %d", g.Template.Key, idx.byKey[g.Template.Key], id)
		}
		r, ok := ref[g.Template.Key]
		if !ok {
			t.Fatalf("index group %q missing from the reference", g.Template.Key)
		}
		if g.Template != r.Template {
			t.Fatalf("template:\n got %+v\nwant %+v", g.Template, r.Template)
		}
		if len(g.Queries) != len(r.Queries) || len(g.Labels) != len(r.Labels) {
			t.Fatalf("group %q: members %v %q, want %v %q", g.Template.Key, g.Queries, g.Labels, r.Queries, r.Labels)
		}
		for i := range g.Queries {
			if g.Queries[i] != r.Queries[i] || g.Labels[i] != r.Labels[i] {
				t.Fatalf("group %q: members %v %q, want %v %q", g.Template.Key, g.Queries, g.Labels, r.Queries, r.Labels)
			}
		}
	}
}

func FuzzTemplateIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 1, 2, 0, 7, 4, 0, 1, 0, 0, 1, 2, 3, 6, 1, 2})
	f.Add([]byte{11, 1, 2, 1, 3, 3, 1, 5, 1, 5, 2, 7, 3, 0, 0, 0, 2, 0, 3, 0, 3, 3, 4, 9, 0, 0, 1, 1, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTemplateIndex(t, fuzzCandidates(data))
	})
}

func TestTemplateIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 64)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		checkTemplateIndex(t, fuzzCandidates(data))
	}
	for seed := int64(1); seed <= 20; seed++ {
		in := randomInstance(rand.New(rand.NewSource(seed)), 30, DefaultScreen())
		checkTemplateIndex(t, in.Candidates)
	}
}
