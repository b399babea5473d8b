// Package speak plans spoken answers to ambiguous voice queries — the
// engine's second output modality next to the multiplot planner in
// internal/core.
//
// MUVE picks the multiplot that minimizes expected visual disambiguation
// time; Trummer & Anderson ("Optimally Summarizing Data by Small Fact
// Sets for Concise Answers to Voice Queries", arXiv:2103.10520) show the
// same optimization shape for audio output: pick a small set of *facts*
// about the candidate results so that the expected listening effort —
// utterance length plus the re-ask penalty for interpretations the
// answer does not cover — is minimal. This package reuses the engine's
// existing machinery end to end: facts are extracted from the same
// template groups the multiplot planner uses
// (core.Instance.TemplateGroups), the listening-cost model is derived
// from the calibrated visual TimeModel in internal/usermodel, the exact
// planner is a 0/1 ILP over internal/ilp with prior-utterance warm
// starts mirroring core.ILPSolver.Hint, and a greedy density heuristic
// provides the degraded-mode fallback.
package speak

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"muve/internal/core"
)

// FactKind distinguishes the two fact shapes the planner selects from.
type FactKind uint8

const (
	// FactValue speaks one candidate's result outright ("the count where
	// borough is brooklyn is 120"). It answers that interpretation
	// directly — the audio analogue of a highlighted bar.
	FactValue FactKind = iota
	// FactRange is a scoped aggregate over a template group's most
	// likely interpretations ("across 3 likely boroughs, answers range
	// from 7 to 120"). It covers every interpretation in its scope
	// without answering any of them exactly — the analogue of visible,
	// un-highlighted bars.
	FactRange
)

// String names the kind.
func (k FactKind) String() string {
	switch k {
	case FactValue:
		return "value"
	case FactRange:
		return "range"
	}
	return fmt.Sprintf("FactKind(%d)", uint8(k))
}

// Fact is one speakable statement about the candidate set.
type Fact struct {
	// Kind is the fact shape.
	Kind FactKind
	// Key canonically identifies the fact across utterances: kind,
	// template key, and label (value facts) or scope size (range
	// facts). Warm starts remap a prior utterance's facts by Key, the
	// way core.ILPSolver remaps a prior multiplot by (template key,
	// bar label).
	Key string
	// Template is the query template the fact is phrased against.
	Template core.Template
	// Label is the placeholder substitution spoken by a value fact
	// (empty for range facts).
	Label string
	// Covers lists the candidate indices the fact speaks for: exactly
	// one for a value fact, the scope prefix for a range fact.
	Covers []int
	// Words estimates the fact's spoken length; the planner's word
	// budget and the listening-cost model consume it.
	Words int
}

// FactSet is a planner's output: the facts chosen for one spoken answer,
// in speaking order (direct value facts first — listeners hear exact
// answers before scoped ranges, mirroring "red bars are read first").
type FactSet struct {
	Facts []Fact
}

// CoverState classifies one candidate's coverage by a fact set, the
// audio analogue of core.QueryState.
type CoverState uint8

const (
	// CoverMissing: no selected fact speaks for the candidate; the user
	// re-asks (penalty DM).
	CoverMissing CoverState = iota
	// CoverScoped: a range fact covers the candidate; the user learns
	// the envelope but must re-ask for the exact value.
	CoverScoped
	// CoverDirect: a value fact answers the candidate outright.
	CoverDirect
)

// States returns every candidate's coverage state; direct beats scoped.
func (fs FactSet) States(numCandidates int) []CoverState {
	st := make([]CoverState, numCandidates)
	for _, f := range fs.Facts {
		s := CoverScoped
		if f.Kind == FactValue {
			s = CoverDirect
		}
		for _, qi := range f.Covers {
			if qi < 0 || qi >= numCandidates {
				continue
			}
			if s > st[qi] {
				st[qi] = s
			}
		}
	}
	return st
}

// Totals returns (w, wD, n, nD): spoken words and facts, total and in
// direct value facts — the quantities the cost model consumes, mirroring
// core.Multiplot.Counts.
func (fs FactSet) Totals() (w, wD, n, nD int) {
	for _, f := range fs.Facts {
		w += f.Words
		n++
		if f.Kind == FactValue {
			wD += f.Words
			nD++
		}
	}
	return
}

// Keys returns the facts' keys in speaking order (diagnostics, tests).
func (fs FactSet) Keys() []string {
	out := make([]string, len(fs.Facts))
	for i, f := range fs.Facts {
		out[i] = f.Key
	}
	return out
}

// maxScope caps a range fact's scope: beyond a handful of enumerated
// interpretations a spoken envelope stops being parseable by ear.
const maxScope = 8

// Extract derives the candidate fact pool from an instance (the analogue
// of the multiplot planner's variable construction over template
// groups). For every template group it emits one value fact per member
// and one range fact per scope prefix of length 2..maxScope; groups are
// visited in sorted key order and members in decreasing probability, so
// extraction is deterministic.
func Extract(in *core.Instance) []Fact {
	groups := in.TemplateGroups()
	var facts []Fact
	seenValue := make(map[string]bool)
	for gi := range groups {
		g := &groups[gi]
		k := g.Template.Key
		titleW := wordCount(g.Template.Title)
		for i, qi := range g.Queries {
			label := g.Labels[i]
			fk := "v|" + k + "|" + label
			if seenValue[fk] {
				continue
			}
			seenValue[fk] = true
			facts = append(facts, Fact{
				Kind:     FactValue,
				Key:      fk,
				Template: g.Template,
				Label:    label,
				Covers:   []int{qi},
				// "the <title with label> is <value>": title words plus
				// the label substitution plus the spoken value.
				Words: titleW + wordCount(label) + 2,
			})
		}
		limit := len(g.Queries)
		if limit > maxScope {
			limit = maxScope
		}
		for n := 2; n <= limit; n++ {
			covers := append([]int(nil), g.Queries[:n]...)
			sort.Ints(covers)
			facts = append(facts, Fact{
				Kind:     FactRange,
				Key:      "r|" + k + "|" + strconv.Itoa(n),
				Template: g.Template,
				Covers:   covers,
				// "across the N most likely readings of <title>, answers
				// range from X to Y" — a fixed frame plus the title plus
				// a light enumeration tax that grows with the scope.
				Words: titleW + 9 + n/2,
			})
		}
	}
	return facts
}

// Headline returns the minimal spoken answer: a single value fact for
// the most probable candidate, phrased against its most specific
// template. This is the serving ladder's last voice rung — always
// constructible without a solver, the way the minimal visual rung plots
// only the top interpretation.
func Headline(in *core.Instance) FactSet {
	best, bestProb := -1, -1.0
	for i, c := range in.Candidates {
		if c.Prob > bestProb {
			best, bestProb = i, c.Prob
		}
	}
	if best < 0 {
		return FactSet{}
	}
	for _, f := range Extract(in) {
		if f.Kind == FactValue && len(f.Covers) == 1 && f.Covers[0] == best {
			return FactSet{Facts: []Fact{f}}
		}
	}
	return FactSet{}
}

// wordCount counts spoken words in a plot-title fragment; punctuation
// that is silent when read aloud ("|", "=", "?") does not count.
func wordCount(s string) int {
	n := 0
	for _, f := range strings.Fields(s) {
		switch f {
		case "|", "=", "?":
			continue
		}
		n++
	}
	return n
}
