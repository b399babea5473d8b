package phonetic

// Match pairs an indexed entry with its phonetic similarity to a probe.
type Match struct {
	Entry string
	Score float64 // Similarity in [0, 1]; higher is more similar
}

// Index is a phonetic dictionary over schema element names and constants.
// It substitutes for the Apache Lucene functionality the paper uses to find
// "the k most phonetically similar entries for each query element"
// (Section 3, typically k = 20). Entries are pre-encoded with Double
// Metaphone at insertion so lookups only pay for the cheap Jaro-Winkler
// comparisons.
//
// An Index is safe for concurrent reads after all Add calls complete.
type Index struct {
	entries []indexEntry
	seen    map[string]bool
}

type indexEntry struct {
	raw       string
	norm      string
	prim, sec string
}

// NewIndex returns an empty phonetic index.
func NewIndex() *Index {
	return &Index{seen: make(map[string]bool)}
}

// Add inserts an entry into the index. Duplicate entries (exact string
// equality) are ignored, as are empty strings.
func (ix *Index) Add(entry string) {
	if entry == "" || ix.seen[entry] {
		return
	}
	ix.seen[entry] = true
	p, s := DoubleMetaphone(entry)
	ix.entries = append(ix.entries, indexEntry{
		raw:  entry,
		norm: normalizeToken(entry),
		prim: p,
		sec:  s,
	})
}

// AddAll inserts every entry.
func (ix *Index) AddAll(entries []string) {
	for _, e := range entries {
		ix.Add(e)
	}
}

// Len returns the number of distinct entries in the index.
func (ix *Index) Len() int { return len(ix.entries) }

// Entries returns the distinct entries in insertion order.
func (ix *Index) Entries() []string {
	out := make([]string, len(ix.entries))
	for i, e := range ix.entries {
		out[i] = e.raw
	}
	return out
}

// Contains reports whether the exact entry is indexed.
func (ix *Index) Contains(entry string) bool { return ix.seen[entry] }

// TopK returns the k indexed entries most phonetically similar to probe,
// ordered by decreasing similarity (ties broken by entry string so results
// are deterministic). When k exceeds the index size, all entries are
// returned. The probe itself, if indexed, is included — the paper derives
// candidate queries from "the k most phonetically similar entries", which
// naturally contains the original element with similarity 1.
//
// The scan keeps only the k best matches so far, in order. Once it holds
// k, an entry whose code score cannot beat the k-th even with a perfect
// lexical score skips the lexical comparison: blend is monotone in its
// lexical argument, which never exceeds 1, so the skipped entry's full
// score would be below the k-th and it would not be kept.
func (ix *Index) TopK(probe string, k int) []Match {
	if k <= 0 || len(ix.entries) == 0 {
		return nil
	}
	k = min(k, len(ix.entries))
	pp, ps := DoubleMetaphone(probe)
	pn := normalizeToken(probe)
	top := make([]Match, 0, k)
	for i := range ix.entries {
		e := &ix.entries[i]
		var score float64
		if pp == "" || e.prim == "" {
			score = JaroWinkler(pn, e.norm)
		} else {
			code := codeScore(pp, ps, e.prim, e.sec)
			if len(top) == k && blend(code, 1) < top[k-1].Score {
				continue
			}
			score = blend(code, JaroWinkler(pn, e.norm))
		}
		top = insertMatch(top, Match{Entry: e.raw, Score: score})
	}
	return top
}

// ranksBefore is TopK's order: higher score first, then smaller entry.
func ranksBefore(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Entry < b.Entry
}

// insertMatch adds m to top, a list in ranksBefore order that holds at
// most cap(top) matches, dropping the last one when it is full.
func insertMatch(top []Match, m Match) []Match {
	n := len(top)
	if n == cap(top) {
		if !ranksBefore(m, top[n-1]) {
			return top
		}
		n--
	} else {
		top = top[:n+1]
	}
	i := n
	for i > 0 && ranksBefore(m, top[i-1]) {
		top[i] = top[i-1]
		i--
	}
	top[i] = m
	return top
}

// codeScore is the phonetic part of the similarity: the best Jaro-Winkler
// score across the primary and secondary Double Metaphone codes of the two
// sides, so alternative pronunciations are honoured.
func codeScore(pa, sa, pb, sb string) float64 {
	best := JaroWinkler(pa, pb)
	if sa != pa || sb != pb {
		best = max(best, JaroWinkler(pa, sb), JaroWinkler(sa, pb), JaroWinkler(sa, sb))
	}
	return best
}

// blend combines the code score with a light lexical component so that,
// among equally-sounding alternatives, the lexically closer one ranks
// higher. This mirrors how Lucene's phonetic filter is typically combined
// with a string score. The conversions round each product on its own, so
// a compiler that fuses multiply-adds cannot make TopK's pruning bound,
// blend(code, 1), fall below a score it bounds.
func blend(code, lex float64) float64 {
	return float64(0.8*code) + float64(0.2*lex)
}
