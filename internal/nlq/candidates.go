package nlq

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"muve/internal/core"
	"muve/internal/obs"
	"muve/internal/phonetic"
	"muve/internal/sqldb"
)

// Generator expands a most-likely query into a probability distribution
// over candidate queries, per paper Section 3: "we iterate over all schema
// element names and constants that appear in the query ... find the k most
// phonetically similar entries for each query element ... The probability
// of a single replacement is based on a distance function that measures
// phonetic similarity ... The probability of multiple replacements
// corresponds to the product of probabilities for single replacements."
type Generator struct {
	Catalog *Catalog
	// K is the number of phonetic alternatives per query element
	// ("typically, we set k to 20").
	K int
	// MaxCandidates caps the size of the returned distribution; the most
	// likely combinations are kept and probabilities renormalized.
	MaxCandidates int
}

// NewGenerator returns a generator with the paper's defaults.
func NewGenerator(c *Catalog) *Generator {
	return &Generator{Catalog: c, K: 20, MaxCandidates: 20}
}

// alternative is one substitution option for a query element: the
// replacement constant of a predicate, or, in val.S, the replacement
// aggregation column.
type alternative struct {
	val   sqldb.Value
	score float64
}

// Candidates expands the query into candidates with probabilities summing
// to 1, sorted by decreasing probability. The original query is always
// among them (every element is its own best phonetic match).
func (g *Generator) Candidates(q sqldb.Query) ([]core.Candidate, error) {
	return g.CandidatesContext(context.Background(), q)
}

// CandidatesContext is Candidates with tracing: when ctx carries an
// obs.Trace, the phonetic index lookups are recorded as one "phonetic"
// span with the number of query elements expanded, alternatives scanned,
// and candidates kept.
func (g *Generator) CandidatesContext(ctx context.Context, q sqldb.Query) ([]core.Candidate, error) {
	sp := obs.StartSpan(ctx, "phonetic")
	out, scanned, elements, err := g.candidates(q)
	if err != nil {
		sp.SetErr(err).End()
		return nil, err
	}
	sp.SetInt("elements", int64(elements)).
		SetInt("scanned", int64(scanned)).
		SetInt("kept", int64(len(out))).
		End()
	return out, nil
}

// candidates implements the expansion, reporting how many phonetic
// alternatives were scanned across how many query elements.
func (g *Generator) candidates(q sqldb.Query) (_ []core.Candidate, scanned, nElements int, _ error) {
	if err := g.Catalog.Validate(); err != nil {
		return nil, 0, 0, err
	}
	k := g.K
	if k <= 0 {
		k = 20
	}
	maxC := g.MaxCandidates
	if maxC <= 0 {
		maxC = 20
	}
	// Collect per-element alternative lists. slots[ei] is the predicate
	// element ei rewrites, or -1 for the aggregation column.
	var elements [][]alternative
	var slots []int
	if len(q.Aggs) == 1 && q.Aggs[0].Col != "" {
		ms := g.Catalog.SimilarNumericColumns(q.Aggs[0].Col, k)
		scanned += len(ms)
		if len(ms) > 0 {
			alts := make([]alternative, len(ms))
			for i, m := range ms {
				alts[i] = alternative{val: sqldb.Str(m.Entry), score: m.Score}
			}
			elements = append(elements, alts)
			slots = append(slots, -1)
		}
	}
	for pi, p := range q.Preds {
		if p.Op != sqldb.OpEq {
			continue
		}
		var valAlts []alternative
		switch p.Values[0].K {
		case sqldb.KindString:
			// The predicate constant varies over the column's dictionary.
			ms := g.Catalog.SimilarValues(p.Col, p.Values[0].S, k)
			scanned += len(ms)
			if len(ms) > 0 {
				valAlts = make([]alternative, len(ms))
				for i, m := range ms {
					valAlts[i] = alternative{val: sqldb.Str(m.Entry), score: m.Score}
				}
			}
		case sqldb.KindInt:
			// Numeric constants vary over the column's distinct values,
			// scored by the similarity of their spoken digit strings
			// ("twenty fifteen" mishears as nearby years, not random ones).
			orig := strconv.FormatInt(p.Values[0].I, 10)
			ic := g.Catalog.intValues[p.Col]
			scanned += len(ic.values)
			valAlts = make([]alternative, len(ic.values))
			for i, iv := range ic.values {
				valAlts[i] = alternative{val: sqldb.Int(iv), score: phonetic.JaroWinkler(orig, ic.digits[i])}
			}
			slices.SortStableFunc(valAlts, byScoreDesc)
			if len(valAlts) > k {
				valAlts = valAlts[:k]
			}
		}
		if len(valAlts) > 0 {
			elements = append(elements, valAlts)
			slots = append(slots, pi)
		}
	}
	nElements = len(elements)
	if len(elements) == 0 {
		return []core.Candidate{{Query: q.Clone(), Prob: 1}}, scanned, nElements, nil
	}
	if !keyFits(elements, maxC) {
		return nil, scanned, nElements, fmt.Errorf("nlq: %d query elements are too many to expand together", nElements)
	}
	// Each element rewrites its own slot and its alternatives are distinct
	// entries, so distinct combinations are distinct queries.
	combos := topCombinations(elements, maxC)
	out := make([]core.Candidate, len(combos))
	total := 0.0
	for i, c := range combos {
		qq := q.Clone()
		for ei, ai := range c.choice {
			alt := elements[ei][ai]
			if pi := slots[ei]; pi >= 0 {
				qq.Preds[pi].Values = append(qq.Preds[pi].Values[:0], alt.val)
			} else {
				qq.Aggs[0].Col = alt.val.S
			}
		}
		out[i] = core.Candidate{Query: qq, Prob: c.score}
		total += c.score
	}
	if total > 0 {
		for i := range out {
			out[i].Prob /= total
		}
	}
	slices.SortStableFunc(out, func(a, b core.Candidate) int { return cmp.Compare(b.Prob, a.Prob) })
	return out, scanned, nElements, nil
}

// byScoreDesc orders alternatives by decreasing score.
func byScoreDesc(a, b alternative) int { return cmp.Compare(b.score, a.score) }

// combo is one choice per element with the product score.
type combo struct {
	choice []int
	score  float64
}

// topCombinations enumerates the highest-product combinations across the
// per-element alternative lists without materializing the full cartesian
// product: a best-first frontier expansion over the (sorted) lists,
// bounded to limit results. This is the standard top-k join over sorted
// inputs.
func topCombinations(elements [][]alternative, limit int) []combo {
	n := len(elements)
	for _, alts := range elements {
		slices.SortStableFunc(alts, byScoreDesc)
	}
	scoreOf := func(choice []int) float64 {
		s := 1.0
		for ei, ai := range choice {
			s *= elements[ei][ai].score
		}
		return s
	}
	// The visited set keys a choice by its mixed-radix number; radix[ei]
	// is the place value of element ei's choice (see choiceRadix).
	radix := make([]int64, n)
	place := int64(1)
	for ei, alts := range elements {
		radix[ei] = place
		place *= choiceRadix(alts, limit)
	}
	// Choice vectors are carved from shared slabs, comboSlab at a time.
	var slab []int
	carve := func() []int {
		if len(slab) < n {
			slab = make([]int, n*comboSlab)
		}
		c := slab[:n:n]
		slab = slab[n:]
		return c
	}
	start := carve()
	frontier := []combo{{choice: start, score: scoreOf(start)}}
	visited := map[int64]bool{0: true}
	var out []combo
	for len(out) < limit && len(frontier) > 0 {
		// Pop the best combination.
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i].score > frontier[best].score {
				best = i
			}
		}
		cur := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		out = append(out, cur)
		if len(out) == limit {
			break
		}
		var curKey int64
		for ei, c := range cur.choice {
			curKey += int64(c) * radix[ei]
		}
		// Expand successors: advance one element's choice.
		for ei := 0; ei < n; ei++ {
			if cur.choice[ei]+1 >= len(elements[ei]) {
				continue
			}
			k := curKey + radix[ei]
			if visited[k] {
				continue
			}
			visited[k] = true
			next := carve()
			copy(next, cur.choice)
			next[ei]++
			frontier = append(frontier, combo{choice: next, score: scoreOf(next)})
		}
	}
	return out
}

// comboSlab is the number of choice vectors topCombinations carves from
// one allocation.
const comboSlab = 32

// choiceRadix is the number of choices topCombinations can visit for one
// element. A choice is only ever pushed as the successor of one of the
// first limit-1 popped choices, so its indices sum to less than limit.
func choiceRadix(alts []alternative, limit int) int64 {
	return int64(min(len(alts), limit))
}

// keyFits reports whether topCombinations' mixed-radix keys fit an int64.
func keyFits(elements [][]alternative, limit int) bool {
	place := int64(1)
	for _, alts := range elements {
		r := choiceRadix(alts, limit)
		if place > math.MaxInt64/r {
			return false
		}
		place *= r
	}
	return true
}

// Pipeline bundles translation and candidate generation: transcript in,
// candidate distribution out. This is the complete "text to multi-SQL"
// stage.
type Pipeline struct {
	Translator *Translator
	Generator  *Generator
}

// NewPipeline wires a translator and generator over one catalog.
func NewPipeline(c *Catalog) *Pipeline {
	return &Pipeline{Translator: NewTranslator(c), Generator: NewGenerator(c)}
}

// Run translates the transcript and expands candidates.
func (p *Pipeline) Run(transcript string) ([]core.Candidate, error) {
	q, err := p.Translator.Translate(transcript)
	if err != nil {
		return nil, err
	}
	return p.Generator.Candidates(q)
}
