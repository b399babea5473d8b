package speak

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"muve/internal/core"
	"muve/internal/merge"
	"muve/internal/obs"
	"muve/internal/sqldb"
)

// VoiceAnswer is a rendered spoken answer: the planned fact set with its
// values executed and phrased as a transcript ready for speech
// synthesis.
type VoiceAnswer struct {
	// Facts is the planned selection in speaking order.
	Facts FactSet
	// Transcript is the full spoken text, one sentence per fact.
	Transcript string
	// Words counts the transcript's actual words (the planner's
	// Fact.Words are estimates).
	Words int
	// Objective is the expected listening effort of the selection in
	// milliseconds under the cost model used to render.
	Objective float64
	// Scan is the shared-scan work that computed the spoken values; zero
	// only when the fact set covers no candidate.
	Scan sqldb.ScanStats
}

// Render executes the queries the fact set needs and phrases the facts
// as a transcript. It is RenderContext without a trace.
func Render(db *sqldb.DB, in *core.Instance, fs FactSet, cost CostModel) (*VoiceAnswer, error) {
	return RenderContext(context.Background(), db, in, fs, cost)
}

// RenderContext executes the queries the fact set needs and phrases the
// facts as a transcript. Every candidate a fact covers is answered in
// one typed pass over its table by the shared-scan executor — the path
// the visual pipeline fills bar values with — recorded as a "scan" span
// on ctx's trace.
func RenderContext(ctx context.Context, db *sqldb.DB, in *core.Instance, fs FactSet, cost CostModel) (*VoiceAnswer, error) {
	if cost == (CostModel{}) {
		cost = DefaultCost()
	}
	need := map[int]bool{}
	for _, f := range fs.Facts {
		for _, qi := range f.Covers {
			if qi >= 0 && qi < len(in.Candidates) {
				need[qi] = true
			}
		}
	}
	idxs := make([]int, 0, len(need))
	for qi := range need {
		idxs = append(idxs, qi)
	}
	sort.Ints(idxs)
	queries := make([]sqldb.Query, len(idxs))
	pos := make(map[int]int, len(idxs)) // candidate index -> plan position
	for i, qi := range idxs {
		queries[i] = in.Candidates[qi].Query
		pos[qi] = i
	}
	values := map[int]merge.Result{}
	var scan sqldb.ScanStats
	if len(queries) > 0 {
		sp := obs.StartSpan(ctx, "scan")
		var (
			res map[int]merge.Result
			err error
		)
		obs.Do(ctx, "scan", func(context.Context) {
			res, scan, err = merge.BuildSharedPlan(queries).Execute(db, 0, 0)
		})
		if err != nil {
			sp.SetErr(err).End()
			return nil, fmt.Errorf("speak: executing fact queries: %w", err)
		}
		merge.AnnotateScan(sp, scan, 1)
		sp.End()
		for qi, pi := range pos {
			values[qi] = res[pi]
		}
	}

	var sentences []string
	for _, f := range fs.Facts {
		sentences = append(sentences, phrase(in, f, values))
	}
	transcript := strings.Join(sentences, " ")
	return &VoiceAnswer{
		Facts:      fs,
		Transcript: transcript,
		Words:      len(strings.Fields(transcript)),
		Objective:  cost.Cost(in, fs),
		Scan:       scan,
	}, nil
}

// phrase renders one fact as a sentence.
func phrase(in *core.Instance, f Fact, values map[int]merge.Result) string {
	switch f.Kind {
	case FactValue:
		subject := spokenTitle(f.Template.Title, f.Label)
		if len(f.Covers) != 1 {
			return "The " + subject + " is unknown."
		}
		r, ok := values[f.Covers[0]]
		if !ok || !r.Valid {
			return "The " + subject + " has no result."
		}
		return "The " + subject + " is " + spokenValue(r.Value) + "."
	case FactRange:
		lo, hi := math.Inf(1), math.Inf(-1)
		known := 0
		for _, qi := range f.Covers {
			r, ok := values[qi]
			if !ok || !r.Valid {
				continue
			}
			known++
			if r.Value < lo {
				lo = r.Value
			}
			if r.Value > hi {
				hi = r.Value
			}
		}
		subject := spokenTitle(f.Template.Title, "each "+f.Template.Slot.String())
		if known == 0 {
			return fmt.Sprintf("Across %d likely readings, the %s has no results.", len(f.Covers), subject)
		}
		if lo == hi {
			return fmt.Sprintf("Across %d likely readings, the %s is %s throughout.",
				len(f.Covers), subject, spokenValue(lo))
		}
		return fmt.Sprintf("Across %d likely readings, the %s ranges from %s to %s.",
			len(f.Covers), subject, spokenValue(lo), spokenValue(hi))
	}
	return ""
}

// spokenTitle turns a plot title ("count | borough = ?") into a spoken
// subject ("count where borough is brooklyn"): the placeholder takes the
// substitution, separators become words.
func spokenTitle(title, substitution string) string {
	s := strings.ReplaceAll(title, "?", substitution)
	s = strings.ReplaceAll(s, " | ", " where ")
	s = strings.ReplaceAll(s, " = ", " is ")
	return s
}

// spokenValue formats a number the way a speech synthesizer reads it:
// integers plainly, fractions to three significant digits.
func spokenValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}
