package nlq

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"muve/internal/core"
	"muve/internal/phonetic"
	"muve/internal/sqldb"
	"muve/internal/workload"
)

// This file keeps the straightforward translation and candidate expansion
// that the optimized pipeline must reproduce bit for bit: every phonetic
// lookup scores the whole dictionary and sorts it, integer columns are
// sets re-sorted on each use, every probe goes through strconv.ParseInt,
// alternatives are closures, candidates are deduplicated by their SQL and
// the combination search keys its visited set by strings.

// refEntry is a dictionary entry with its Double Metaphone codes.
type refEntry struct{ raw, norm, prim, sec string }

// refIndex is a phonetic.Index scored by brute force.
type refIndex []refEntry

func newRefIndex(ix *phonetic.Index) refIndex {
	var r refIndex
	for _, e := range ix.Entries() {
		p, s := phonetic.DoubleMetaphone(e)
		r = append(r, refEntry{raw: e, norm: refNormalize(e), prim: p, sec: s})
	}
	return r
}

func refNormalize(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteByte(c)
		case c >= 'A' && c <= 'Z':
			b.WriteByte(c + 'a' - 'A')
		}
	}
	return b.String()
}

func (r refIndex) topK(probe string, k int) []phonetic.Match {
	if k <= 0 || len(r) == 0 {
		return nil
	}
	pp, ps := phonetic.DoubleMetaphone(probe)
	pn := refNormalize(probe)
	matches := make([]phonetic.Match, 0, len(r))
	for _, e := range r {
		var score float64
		if pp == "" || e.prim == "" {
			score = phonetic.JaroWinkler(pn, e.norm)
		} else {
			best := phonetic.JaroWinkler(pp, e.prim)
			if ps != pp || e.sec != e.prim {
				for _, x := range []string{pp, ps} {
					for _, y := range []string{e.prim, e.sec} {
						if s := phonetic.JaroWinkler(x, y); s > best {
							best = s
						}
					}
				}
			}
			score = float64(0.8*best) + float64(0.2*phonetic.JaroWinkler(pn, e.norm))
		}
		matches = append(matches, phonetic.Match{Entry: e.raw, Score: score})
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].Entry < matches[j].Entry
	})
	if k > len(matches) {
		k = len(matches)
	}
	return matches[:k]
}

// refCatalog answers a Catalog's lookups the straightforward way.
type refCatalog struct {
	c       *Catalog
	num     refIndex
	values  map[string]refIndex
	all     refIndex
	intSets map[string]map[int64]bool
}

func newRefCatalog(c *Catalog) *refCatalog {
	rc := &refCatalog{
		c:       c,
		num:     newRefIndex(c.numIndex),
		values:  map[string]refIndex{},
		all:     newRefIndex(c.allValues),
		intSets: map[string]map[int64]bool{},
	}
	for col, ix := range c.valueIndex {
		rc.values[col] = newRefIndex(ix)
	}
	for col, ic := range c.intValues {
		set := map[int64]bool{}
		for _, v := range ic.values {
			set[v] = true
		}
		rc.intSets[col] = set
	}
	return rc
}

func (rc *refCatalog) similarValues(col, probe string, k int) []phonetic.Match {
	r, ok := rc.values[col]
	if !ok {
		return nil
	}
	return r.topK(probe, k)
}

func (rc *refCatalog) resolveValue(probe string) (value, col string, score float64, ok bool) {
	ms := rc.all.topK(probe, 1)
	if len(ms) == 0 {
		return "", "", 0, false
	}
	cols := rc.c.valueCols[ms[0].Entry]
	if len(cols) == 0 {
		return "", "", 0, false
	}
	return ms[0].Entry, cols[0], ms[0].Score, true
}

func (rc *refCatalog) intColumnsContaining(v int64) []string {
	var out []string
	for _, col := range rc.c.columns {
		if set, ok := rc.intSets[col]; ok && set[v] {
			out = append(out, col)
		}
	}
	return out
}

func (rc *refCatalog) intValues(col string) []int64 {
	set, ok := rc.intSets[col]
	if !ok {
		return nil
	}
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refTranslate is Translator.Translate over the reference lookups.
func refTranslate(tr *Translator, rc *refCatalog, text string) (sqldb.Query, error) {
	words := normWords(text)
	if len(words) == 0 {
		return sqldb.Query{}, fmt.Errorf("nlq: empty transcript")
	}
	consumed := make([]bool, len(words))
	agg := refDetectAggregate(tr, rc, words, consumed)
	preds := refDetectPredicates(tr, rc, words, consumed)
	return sqldb.Query{Aggs: []sqldb.Aggregate{agg}, Table: rc.c.Table, Preds: preds}, nil
}

func refDetectAggregate(tr *Translator, rc *refCatalog, words []string, consumed []bool) sqldb.Aggregate {
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
	bestCol := ""
	bestScore := 0.0
	bestPos := -1
	for i := fnPos + 1; i < len(words) && i <= fnPos+4; i++ {
		if fillerWords[words[i]] || consumed[i] {
			continue
		}
		ms := rc.num.topK(words[i], 1)
		if len(ms) > 0 && ms[0].Score > bestScore {
			bestScore = ms[0].Score
			bestCol = ms[0].Entry
			bestPos = i
		}
	}
	if bestCol == "" || bestScore < tr.MinAggScore {
		if cols := rc.c.NumericColumns(); len(cols) > 0 {
			return sqldb.Aggregate{Func: fn, Col: cols[0]}
		}
		return sqldb.Aggregate{Func: sqldb.AggCount}
	}
	consumed[bestPos] = true
	return sqldb.Aggregate{Func: fn, Col: bestCol}
}

func refDetectPredicates(tr *Translator, rc *refCatalog, words []string, consumed []bool) []sqldb.Predicate {
	type match struct {
		col, val string
		intVal   int64
		isInt    bool
		score    float64
		from, to int
	}
	var matches []match
	tryProbe := func(probe string, from, to int) {
		if iv, err := strconv.ParseInt(probe, 10, 64); err == nil {
			for _, col := range rc.intColumnsContaining(iv) {
				matches = append(matches, match{col: col, intVal: iv, isInt: true, score: 1.01, from: from, to: to})
			}
			return
		}
		val, col, score, ok := rc.resolveValue(probe)
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
		preds = append(preds, sqldb.Predicate{Col: m.col, Op: sqldb.OpEq, Values: []sqldb.Value{v}})
	}
	return preds
}

// refAlternative is a substitution as a closure over the query.
type refAlternative struct {
	apply func(q *sqldb.Query)
	score float64
}

// refCandidates is Generator.Candidates over the reference lookups.
func refCandidates(g *Generator, rc *refCatalog, q sqldb.Query) []core.Candidate {
	k, maxC := g.K, g.MaxCandidates
	var elements [][]refAlternative
	if len(q.Aggs) == 1 && q.Aggs[0].Col != "" {
		var alts []refAlternative
		for _, m := range rc.num.topK(q.Aggs[0].Col, k) {
			name := m.Entry
			alts = append(alts, refAlternative{score: m.Score, apply: func(qq *sqldb.Query) { qq.Aggs[0].Col = name }})
		}
		if len(alts) > 0 {
			elements = append(elements, alts)
		}
	}
	for pi, p := range q.Preds {
		if p.Op != sqldb.OpEq {
			continue
		}
		pi := pi
		var valAlts []refAlternative
		switch p.Values[0].K {
		case sqldb.KindString:
			for _, m := range rc.similarValues(p.Col, p.Values[0].S, k) {
				val := m.Entry
				valAlts = append(valAlts, refAlternative{
					score: m.Score,
					apply: func(qq *sqldb.Query) { qq.Preds[pi].Values = []sqldb.Value{sqldb.Str(val)} },
				})
			}
		case sqldb.KindInt:
			orig := strconv.FormatInt(p.Values[0].I, 10)
			for _, iv := range rc.intValues(p.Col) {
				iv := iv
				valAlts = append(valAlts, refAlternative{
					score: phonetic.JaroWinkler(orig, strconv.FormatInt(iv, 10)),
					apply: func(qq *sqldb.Query) { qq.Preds[pi].Values = []sqldb.Value{sqldb.Int(iv)} },
				})
			}
			sort.SliceStable(valAlts, func(a, b int) bool { return valAlts[a].score > valAlts[b].score })
			if len(valAlts) > k {
				valAlts = valAlts[:k]
			}
		}
		if len(valAlts) > 0 {
			elements = append(elements, valAlts)
		}
	}
	if len(elements) == 0 {
		return []core.Candidate{{Query: q.Clone(), Prob: 1}}
	}
	combos := refTopCombinations(elements, maxC)
	var out []core.Candidate
	seen := map[string]int{}
	total := 0.0
	for _, c := range combos {
		qq := q.Clone()
		for ei, ai := range c.choice {
			elements[ei][ai].apply(&qq)
		}
		key := qq.SQL()
		if j, dup := seen[key]; dup {
			out[j].Prob += c.score
			total += c.score
			continue
		}
		seen[key] = len(out)
		out = append(out, core.Candidate{Query: qq, Prob: c.score})
		total += c.score
	}
	if total > 0 {
		for i := range out {
			out[i].Prob /= total
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Prob > out[j].Prob })
	return out
}

func refTopCombinations(elements [][]refAlternative, limit int) []combo {
	n := len(elements)
	for _, alts := range elements {
		sort.SliceStable(alts, func(i, j int) bool { return alts[i].score > alts[j].score })
	}
	scoreOf := func(choice []int) float64 {
		s := 1.0
		for ei, ai := range choice {
			s *= elements[ei][ai].score
		}
		return s
	}
	key := func(choice []int) string {
		b := make([]byte, 0, len(choice)*2)
		for _, c := range choice {
			b = append(b, byte(c), byte(c>>8))
		}
		return string(b)
	}
	start := make([]int, n)
	frontier := []combo{{choice: start, score: scoreOf(start)}}
	visited := map[string]bool{key(start): true}
	var out []combo
	for len(out) < limit && len(frontier) > 0 {
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
		for ei := 0; ei < n; ei++ {
			if cur.choice[ei]+1 >= len(elements[ei]) {
				continue
			}
			next := append([]int(nil), cur.choice...)
			next[ei]++
			if k := key(next); !visited[k] {
				visited[k] = true
				frontier = append(frontier, combo{choice: next, score: scoreOf(next)})
			}
		}
	}
	return out
}

// perturb misspells one word of the utterance the way a recognizer
// might: a letter substituted, dropped or doubled.
func perturb(rng *rand.Rand, text string) string {
	words := strings.Fields(text)
	i := rng.Intn(len(words))
	w := []byte(words[i])
	p := rng.Intn(len(w))
	switch rng.Intn(3) {
	case 0:
		w[p] = byte('a' + rng.Intn(26))
	case 1:
		if len(w) > 1 {
			w = append(w[:p], w[p+1:]...)
		}
	default:
		w = append(w[:p+1], w[p:]...)
	}
	words[i] = string(w)
	return strings.Join(words, " ")
}

// TestPipelineMatchesReference runs utterances shaped like the
// benchmark's (a random aggregate and up to three equality predicates,
// spoken) on three datasets, a third of them with a misspelled word and
// some with a spoken number, and requires the translation and every
// candidate's SQL and probability bits to equal the reference's.
func TestPipelineMatchesReference(t *testing.T) {
	for _, d := range []workload.Dataset{workload.NYC311, workload.DOB, workload.Flights} {
		tbl, err := workload.Build(d, 4000, 1)
		if err != nil {
			t.Fatal(err)
		}
		cat := BuildCatalog(tbl, 0)
		rc := newRefCatalog(cat)
		p := NewPipeline(cat)
		rng := rand.New(rand.NewSource(int64(d) + 11))
		gen := workload.NewQueryGen(tbl, rng)
		for i := 0; i < 400; i++ {
			text := workload.Utterance(gen.Random(3))
			switch i % 6 {
			case 1, 4:
				text = perturb(rng, text)
			case 3:
				number := []string{"%d", "0%d", "+%d", "-%d"}[rng.Intn(4)]
				text += " in " + fmt.Sprintf(number, rng.Intn(50)+1990*rng.Intn(2))
			}
			// Small candidate limits let one element's choice reach the
			// limit, the edge of the combination search's key space.
			p.Generator.MaxCandidates = []int{20, 4, 9}[i%3]
			q, err := p.Translator.Translate(text)
			if err != nil {
				t.Fatalf("%s %q: %v", d, text, err)
			}
			ref, _ := refTranslate(p.Translator, rc, text)
			if q.SQL() != ref.SQL() {
				t.Fatalf("%s %q: Translate = %s, reference %s", d, text, q.SQL(), ref.SQL())
			}
			got, err := p.Generator.Candidates(q)
			if err != nil {
				t.Fatalf("%s %q: %v", d, text, err)
			}
			want := refCandidates(p.Generator, rc, q)
			if len(got) != len(want) {
				t.Fatalf("%s %q: %d candidates, reference %d", d, text, len(got), len(want))
			}
			for j := range want {
				if got[j].Query.SQL() != want[j].Query.SQL() || math.Float64bits(got[j].Prob) != math.Float64bits(want[j].Prob) {
					t.Fatalf("%s %q: candidate %d = %s %v, reference %s %v", d, text, j,
						got[j].Query.SQL(), got[j].Prob, want[j].Query.SQL(), want[j].Prob)
				}
			}
		}
	}
}

// TestTopCombinationsMatchesReference compares the int64-keyed
// combination search with the string-keyed reference on random score
// lists with ties, lists longer and shorter than the limit, and limits
// from 1 up.
func TestTopCombinationsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	levels := []float64{1, 0.95, 0.9, 0.9, 0.8, 0.5, 0.25}
	for round := 0; round < 3000; round++ {
		n := 1 + rng.Intn(4)
		elements := make([][]alternative, n)
		refElements := make([][]refAlternative, n)
		for ei := range elements {
			for m := 1 + rng.Intn(30); m > 0; m-- {
				score := levels[rng.Intn(len(levels))]
				if rng.Intn(3) == 0 {
					score = rng.Float64()
				}
				elements[ei] = append(elements[ei], alternative{score: score})
				refElements[ei] = append(refElements[ei], refAlternative{score: score})
			}
		}
		limit := 1 + rng.Intn(25)
		got, want := topCombinations(elements, limit), refTopCombinations(refElements, limit)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d combinations, reference %d", round, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i].choice) != fmt.Sprint(want[i].choice) || math.Float64bits(got[i].score) != math.Float64bits(want[i].score) {
				t.Fatalf("round %d: combination %d = %v %v, reference %v %v", round, i, got[i].choice, got[i].score, want[i].choice, want[i].score)
			}
		}
	}
}

// TestStartsLikeNumber checks that the gate in front of strconv.ParseInt
// lets through every probe ParseInt accepts.
func TestStartsLikeNumber(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	probes := []string{"0", "007", "+5", "-12", "2015", "9223372036854775807", "-", "+", "", "x1", "1x", "+-1", "twenty"}
	for i := 0; i < 5000; i++ {
		b := make([]byte, 1+rng.Intn(4))
		for j := range b {
			b[j] = "+-019ax "[rng.Intn(8)]
		}
		probes = append(probes, string(b))
	}
	for _, s := range probes {
		if _, err := strconv.ParseInt(s, 10, 64); err == nil && !startsLikeNumber(s) {
			t.Errorf("startsLikeNumber(%q) = false, but ParseInt accepts it", s)
		}
	}
}
