package core

import (
	"testing"

	"muve/internal/sqldb"
)

func q(sql string) sqldb.Query { return sqldb.MustParse(sql) }

func TestTemplatesOfCounts(t *testing.T) {
	// One aggregate over a column with two predicates: templates for the
	// agg function, agg column, and per-predicate column/value = 2 + 2*2.
	qq := q("SELECT sum(delay) FROM flights WHERE origin = 'JFK' AND carrier = 'AA'")
	insts := TemplatesOf(qq)
	if len(insts) != 6 {
		t.Fatalf("templates = %d, want 6", len(insts))
	}
	slots := map[Slot]int{}
	for _, in := range insts {
		slots[in.Template.Slot]++
	}
	if slots[SlotAggFunc] != 1 || slots[SlotAggCol] != 1 || slots[SlotPredCol] != 2 || slots[SlotPredVal] != 2 {
		t.Errorf("slot counts = %v", slots)
	}
	// COUNT(*) has no aggregation column slot.
	insts = TemplatesOf(q("SELECT count(*) FROM flights WHERE origin = 'JFK'"))
	if len(insts) != 3 {
		t.Errorf("count(*) templates = %d, want 3", len(insts))
	}
	// Multi-aggregate queries are not candidates.
	if TemplatesOf(q("SELECT count(*), sum(delay) FROM flights")) != nil {
		t.Error("multi-aggregate query should yield no templates")
	}
}

func TestTemplatesSharedAcrossPhoneticVariants(t *testing.T) {
	// Two candidates differing only in a predicate constant must share the
	// SlotPredVal template — that is what lets one plot cover both.
	a := q("SELECT count(*) FROM requests WHERE borough = 'Brooklyn'")
	b := q("SELECT count(*) FROM requests WHERE borough = 'Bronx'")
	shared := sharedKeys(a, b)
	if len(shared) != 1 {
		t.Fatalf("shared templates = %d, want exactly 1 (the borough = ? template)", len(shared))
	}
	// Differing aggregate functions share the SlotAggFunc template.
	c := q("SELECT sum(delay) FROM flights WHERE origin = 'JFK'")
	d := q("SELECT avg(delay) FROM flights WHERE origin = 'JFK'")
	if len(sharedKeys(c, d)) != 1 {
		t.Error("agg variants should share exactly the ?-aggregate template")
	}
	// Completely different queries share nothing.
	if len(sharedKeys(a, c)) != 0 {
		t.Error("unrelated queries should share no template")
	}
}

func sharedKeys(a, b sqldb.Query) map[string]bool {
	ka := map[string]bool{}
	for _, in := range TemplatesOf(a) {
		ka[in.Template.Key] = true
	}
	out := map[string]bool{}
	for _, in := range TemplatesOf(b) {
		if ka[in.Template.Key] {
			out[in.Template.Key] = true
		}
	}
	return out
}

func TestTemplateKeyPredicateOrderInvariance(t *testing.T) {
	a := q("SELECT count(*) FROM t WHERE x = 1 AND y = 2 AND z = 3")
	b := q("SELECT count(*) FROM t WHERE z = 3 AND x = 1 AND y = 2")
	// Wildcarding y's value must give the same key regardless of where y
	// sits in the predicate list.
	var keyA, keyB string
	for _, in := range TemplatesOf(a) {
		if in.Template.Slot == SlotPredVal && in.Label == "2" {
			keyA = in.Template.Key
		}
	}
	for _, in := range TemplatesOf(b) {
		if in.Template.Slot == SlotPredVal && in.Label == "2" {
			keyB = in.Template.Key
		}
	}
	if keyA == "" || keyA != keyB {
		t.Errorf("keys differ: %q vs %q", keyA, keyB)
	}
}

func TestTemplateLabels(t *testing.T) {
	qq := q("SELECT sum(delay) FROM flights WHERE origin = 'JFK'")
	for _, in := range TemplatesOf(qq) {
		switch in.Template.Slot {
		case SlotAggFunc:
			if in.Label != "sum" {
				t.Errorf("agg label = %q", in.Label)
			}
		case SlotAggCol:
			if in.Label != "delay" {
				t.Errorf("agg col label = %q", in.Label)
			}
		case SlotPredCol:
			if in.Label != "origin" {
				t.Errorf("pred col label = %q", in.Label)
			}
		case SlotPredVal:
			if in.Label != "JFK" {
				t.Errorf("pred val label = %q", in.Label)
			}
		}
		// Titles carry exactly one placeholder.
		if n := countRune(in.Template.Title, '?'); n != 1 {
			t.Errorf("title %q has %d placeholders", in.Template.Title, n)
		}
	}
}

func countRune(s string, r rune) int {
	n := 0
	for _, c := range s {
		if c == r {
			n++
		}
	}
	return n
}

func TestLabelFor(t *testing.T) {
	a := q("SELECT count(*) FROM requests WHERE borough = 'Brooklyn'")
	b := q("SELECT count(*) FROM requests WHERE borough = 'Bronx'")
	var tpl Template
	for _, in := range TemplatesOf(a) {
		if in.Template.Slot == SlotPredVal {
			tpl = in.Template
		}
	}
	if lbl, ok := LabelFor(b, tpl); !ok || lbl != "Bronx" {
		t.Errorf("LabelFor = %q, %v", lbl, ok)
	}
	c := q("SELECT sum(delay) FROM flights")
	if _, ok := LabelFor(c, tpl); ok {
		t.Error("incompatible query should not match")
	}
}

func TestGroupByTemplate(t *testing.T) {
	cands := []Candidate{
		{Query: q("SELECT count(*) FROM r WHERE b = 'x'"), Prob: 0.2},
		{Query: q("SELECT count(*) FROM r WHERE b = 'y'"), Prob: 0.5},
		{Query: q("SELECT count(*) FROM r WHERE b = 'z'"), Prob: 0.3},
	}
	groups := (&Instance{Candidates: cands}).TemplateGroups()
	// Groups: b=? (3 queries), ?=x, ?=y, ?=z (1 each), ?-agg per constant
	// (3 distinct since the fixed predicate differs).
	var big *TemplateGroup
	for k := range groups {
		if len(groups[k].Queries) == 3 {
			big = &groups[k]
		}
	}
	if big == nil {
		t.Fatal("no template groups all three candidates")
	}
	if big.Template.Slot != SlotPredVal {
		t.Errorf("big group slot = %v", big.Template.Slot)
	}
	// Sorted by decreasing probability: y (0.5), z (0.3), x (0.2).
	if big.Queries[0] != 1 || big.Queries[1] != 2 || big.Queries[2] != 0 {
		t.Errorf("order = %v", big.Queries)
	}
	if big.Labels[0] != "y" || big.Labels[2] != "x" {
		t.Errorf("labels = %v", big.Labels)
	}
}

func TestSlotStrings(t *testing.T) {
	for s, want := range map[Slot]string{
		SlotAggFunc: "aggregate", SlotAggCol: "aggregation column",
		SlotPredCol: "predicate column", SlotPredVal: "predicate value",
	} {
		if s.String() != want {
			t.Errorf("%v != %q", s, want)
		}
	}
}
