package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"muve"
	"muve/internal/core"
	"muve/internal/speak"
	"muve/internal/sqldb"
	"muve/internal/usermodel"
)

// oracle answers candidate queries with the row-at-a-time executor
// (sqldb.DB.Exec), memoized by SQL text. It is safe for concurrent use.
type oracle struct {
	db   *sqldb.DB
	mu   sync.Mutex
	memo map[string]sqldb.Value
}

func newOracle(db *sqldb.DB) *oracle {
	return &oracle{db: db, memo: map[string]sqldb.Value{}}
}

// value returns q's scalar result.
func (o *oracle) value(q sqldb.Query) (sqldb.Value, error) {
	key := q.SQL()
	o.mu.Lock()
	v, ok := o.memo[key]
	o.mu.Unlock()
	if ok {
		return v, nil
	}
	res, err := o.db.Exec(q)
	if err != nil {
		return sqldb.Value{}, fmt.Errorf("oracle: %s: %w", key, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return sqldb.Value{}, fmt.Errorf("oracle: %s is not scalar", key)
	}
	v = res.Rows[0][0]
	o.mu.Lock()
	o.memo[key] = v
	o.mu.Unlock()
	return v, nil
}

// checker verifies answers outside the timed region.
type checker struct {
	oracle *oracle
	screen core.Screen
	model  usermodel.TimeModel
}

func (e *env) checker() *checker {
	return &checker{oracle: newOracle(e.db), screen: e.screen, model: e.model}
}

// check verifies one answer to utterance text and returns the paper's
// objective for it: expected disambiguation time for a multiplot, the
// fact-set listening cost for a voice answer.
func (c *checker) check(text string, ans *muve.Answer) (float64, error) {
	if ans == nil {
		return 0, fmt.Errorf("%q: no answer", text)
	}
	// Without speech noise the transcript is the utterance itself.
	if ans.Transcript != text {
		return 0, fmt.Errorf("%q: transcript %q differs from the utterance (speech noise?)", text, ans.Transcript)
	}
	if ans.Mode == muve.ModeVoice {
		return c.checkVoice(text, ans)
	}
	return c.checkPlot(text, ans)
}

// checkPlot re-executes every shown bar with the row-at-a-time executor
// and compares bit for bit, checks that the multiplot fits its screen,
// and recomputes the expected disambiguation cost from the returned
// candidates.
func (c *checker) checkPlot(text string, ans *muve.Answer) (float64, error) {
	m := ans.Multiplot
	if m.NumPlots() == 0 {
		if fit := c.fittingPlot(ans.Candidates); fit != "" {
			return 0, fmt.Errorf("%q: empty multiplot although plot %q fits the screen", text, fit)
		}
	}
	if !m.FitsScreen(c.screen) {
		return 0, fmt.Errorf("%q: multiplot does not fit a %dpx x %d-row screen", text, c.screen.WidthPx, c.screen.Rows)
	}
	for _, row := range m.Rows {
		for _, pl := range row {
			for _, e := range pl.Entries {
				if e.Query < 0 || e.Query >= len(ans.Candidates) {
					return 0, fmt.Errorf("%q: bar %q points at candidate %d of %d", text, e.Label, e.Query, len(ans.Candidates))
				}
				if e.Approximate {
					return 0, fmt.Errorf("%q: bar %q is approximate", text, e.Label)
				}
				q := ans.Candidates[e.Query].Query
				want, err := c.oracle.value(q)
				if err != nil {
					return 0, err
				}
				if !sameValue(want, e.Value) {
					return 0, fmt.Errorf("%q: bar %s = %v, row-at-a-time executor says %v", text, q.SQL(), e.Value, want)
				}
			}
		}
	}
	in := &core.Instance{Candidates: ans.Candidates, Screen: c.screen, Model: c.model}
	cost := in.Cost(m)
	if math.Float64bits(cost) != math.Float64bits(ans.Stats.Cost) {
		return 0, fmt.Errorf("%q: Stats.Cost %v, recomputed expected disambiguation cost %v", text, ans.Stats.Cost, cost)
	}
	return cost, nil
}

// fittingPlot returns the title of a one-bar plot of some candidate
// that fits the screen, or "" when none does. Any bar that fits lowers
// the expected cost, so only then may a multiplot be empty.
func (c *checker) fittingPlot(cands []core.Candidate) string {
	for _, cand := range cands {
		for _, inst := range core.TemplatesOf(cand.Query) {
			if c.screen.TitleUnits(len(inst.Template.Title))+1 <= c.screen.WidthUnits() {
				return inst.Template.Title
			}
		}
	}
	return ""
}

// sameValue compares an executor value with a bar value bit for bit; an
// empty aggregate (NULL) must show as NaN.
func sameValue(want sqldb.Value, got float64) bool {
	if want.IsNull() {
		return math.IsNaN(got)
	}
	return math.Float64bits(want.AsFloat()) == math.Float64bits(got)
}

// checkVoice recomputes the listening cost of the returned fact set and
// checks every spoken value against the row-at-a-time executor.
func (c *checker) checkVoice(text string, ans *muve.Answer) (float64, error) {
	va := ans.Voice
	if va == nil || len(va.Facts.Facts) == 0 {
		return 0, fmt.Errorf("%q: empty voice answer", text)
	}
	in := &core.Instance{Candidates: ans.Candidates, Screen: c.screen, Model: c.model}
	cost := speak.FromTimeModel(c.model).Cost(in, va.Facts)
	if math.Float64bits(cost) != math.Float64bits(va.Objective) || math.Float64bits(cost) != math.Float64bits(ans.Stats.Cost) {
		return 0, fmt.Errorf("%q: objective %v and Stats.Cost %v, recomputed listening cost %v", text, va.Objective, ans.Stats.Cost, cost)
	}
	if n := len(strings.Fields(va.Transcript)); n != va.Words {
		return 0, fmt.Errorf("%q: transcript has %d words, answer claims %d", text, n, va.Words)
	}
	// The transcript must be every fact's sentence, subject and values,
	// in fact order.
	sentences := make([]string, len(va.Facts.Facts))
	for i, f := range va.Facts.Facts {
		var err error
		if sentences[i], err = c.sentence(ans.Candidates, f); err != nil {
			return 0, err
		}
	}
	if want := strings.Join(sentences, " "); va.Transcript != want {
		return 0, fmt.Errorf("%q: transcript %q, row-at-a-time executor says %q", text, va.Transcript, want)
	}
	return cost, nil
}

// sentence is the sentence that speaks fact f, its values computed with
// the row-at-a-time executor.
func (c *checker) sentence(cands []core.Candidate, f speak.Fact) (string, error) {
	var vals []float64
	for _, qi := range f.Covers {
		if qi < 0 || qi >= len(cands) {
			return "", fmt.Errorf("fact %s covers candidate %d of %d", f.Key, qi, len(cands))
		}
		v, err := c.oracle.value(cands[qi].Query)
		if err != nil {
			return "", err
		}
		if !v.IsNull() {
			vals = append(vals, v.AsFloat())
		}
	}
	if f.Kind == speak.FactValue {
		subject := "The " + spokenTitle(f.Template.Title, f.Label)
		switch {
		case len(f.Covers) != 1:
			return subject + " is unknown.", nil
		case len(vals) == 0:
			return subject + " has no result.", nil
		}
		return subject + " is " + spoken(vals[0]) + ".", nil
	}
	subject := fmt.Sprintf("Across %d likely readings, the %s", len(f.Covers), spokenTitle(f.Template.Title, "each "+f.Template.Slot.String()))
	if len(vals) == 0 {
		return subject + " has no results.", nil
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo == hi {
		return subject + " is " + spoken(lo) + " throughout.", nil
	}
	return subject + " ranges from " + spoken(lo) + " to " + spoken(hi) + ".", nil
}

// spokenTitle turns a plot title ("count | borough = ?") into a spoken
// subject ("count where borough is brooklyn").
func spokenTitle(title, substitution string) string {
	s := strings.ReplaceAll(title, "?", substitution)
	s = strings.ReplaceAll(s, " | ", " where ")
	return strings.ReplaceAll(s, " = ", " is ")
}

// spoken formats a number as a speech synthesizer reads it: integers
// plainly, fractions to three significant digits.
func spoken(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// sameAnswer reports how a composed answer differs from Ask's, or nil
// when they are the same: same candidates, same multiplot or fact set,
// same values, same cost, same rendering.
func sameAnswer(ask, composed *muve.Answer, askSVG, composedSVG string) error {
	switch {
	case ask.Transcript != composed.Transcript:
		return fmt.Errorf("transcript %q vs %q", ask.Transcript, composed.Transcript)
	case ask.TopQuery.SQL() != composed.TopQuery.SQL():
		return fmt.Errorf("%q: top query %s vs %s", ask.Transcript, ask.TopQuery.SQL(), composed.TopQuery.SQL())
	case len(ask.Candidates) != len(composed.Candidates):
		return fmt.Errorf("%q: %d vs %d candidates", ask.Transcript, len(ask.Candidates), len(composed.Candidates))
	case ask.Headline != composed.Headline:
		return fmt.Errorf("%q: headline %q vs %q", ask.Transcript, ask.Headline, composed.Headline)
	case math.Float64bits(ask.Stats.Cost) != math.Float64bits(composed.Stats.Cost):
		return fmt.Errorf("%q: cost %v vs %v", ask.Transcript, ask.Stats.Cost, composed.Stats.Cost)
	}
	for i := range ask.Candidates {
		a, b := ask.Candidates[i], composed.Candidates[i]
		if a.Query.SQL() != b.Query.SQL() || math.Float64bits(a.Prob) != math.Float64bits(b.Prob) {
			return fmt.Errorf("%q: candidate %d differs", ask.Transcript, i)
		}
	}
	if ask.Mode == muve.ModeVoice {
		a, b := ask.Voice, composed.Voice
		if a == nil || b == nil {
			return fmt.Errorf("%q: missing voice answer", ask.Transcript)
		}
		if strings.Join(a.Facts.Keys(), ";") != strings.Join(b.Facts.Keys(), ";") {
			return fmt.Errorf("%q: facts %v vs %v", ask.Transcript, a.Facts.Keys(), b.Facts.Keys())
		}
		if a.Transcript != b.Transcript || a.Words != b.Words || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
			return fmt.Errorf("%q: spoken answer %q vs %q", ask.Transcript, a.Transcript, b.Transcript)
		}
		return nil
	}
	if err := sameMultiplot(ask.Multiplot, composed.Multiplot); err != nil {
		return fmt.Errorf("%q: %w", ask.Transcript, err)
	}
	if askSVG != composedSVG {
		return fmt.Errorf("%q: SVG renderings differ", ask.Transcript)
	}
	return nil
}

// sameMultiplot compares two multiplots plot by plot and bar by bar,
// values bit for bit.
func sameMultiplot(a, b core.Multiplot) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d vs %d rows", len(a.Rows), len(b.Rows))
	}
	for ri := range a.Rows {
		if len(a.Rows[ri]) != len(b.Rows[ri]) {
			return fmt.Errorf("row %d: %d vs %d plots", ri, len(a.Rows[ri]), len(b.Rows[ri]))
		}
		for pi := range a.Rows[ri] {
			pa, pb := a.Rows[ri][pi], b.Rows[ri][pi]
			if pa.Template.Key != pb.Template.Key || pa.Template.Title != pb.Template.Title {
				return fmt.Errorf("plot %d.%d: template %q vs %q", ri, pi, pa.Template.Title, pb.Template.Title)
			}
			if len(pa.Entries) != len(pb.Entries) {
				return fmt.Errorf("plot %d.%d: %d vs %d bars", ri, pi, len(pa.Entries), len(pb.Entries))
			}
			for ei := range pa.Entries {
				ea, eb := pa.Entries[ei], pb.Entries[ei]
				if ea.Query != eb.Query || ea.Label != eb.Label || ea.Highlighted != eb.Highlighted ||
					ea.Approximate != eb.Approximate || math.Float64bits(ea.Value) != math.Float64bits(eb.Value) {
					return fmt.Errorf("plot %d.%d bar %d: %+v vs %+v", ri, pi, ei, ea, eb)
				}
			}
		}
	}
	return nil
}
