package phonetic

import "math/bits"

// Jaro returns the Jaro similarity between two strings, a value in [0, 1]
// where 1 means identical and 0 means entirely dissimilar. The comparison
// is byte-based, which is exact for the ASCII phonetic codes MUVE compares.
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	// Match window: characters match if equal and within this distance.
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	if la > 64 || lb > 64 {
		return jaroLong(a, b, window)
	}
	// Bit i of aMatched (bMatched) marks a[i] (b[i]) as matched.
	var aMatched, bMatched uint64
	matches := 0
	for i := 0; i < la; i++ {
		hi := min(lb-1, i+window)
		for j := max(0, i-window); j <= hi; j++ {
			if bMatched&(1<<j) == 0 && a[i] == b[j] {
				aMatched |= 1 << i
				bMatched |= 1 << j
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions: pair the matched characters of a and b in
	// order, lowest set bits first.
	transpositions := 0
	for aMatched != 0 {
		if a[bits.TrailingZeros64(aMatched)] != b[bits.TrailingZeros64(bMatched)] {
			transpositions++
		}
		aMatched &= aMatched - 1
		bMatched &= bMatched - 1
	}
	return jaroScore(matches, transpositions, la, lb)
}

// jaroLong is Jaro for strings too long for the bitmasks.
func jaroLong(a, b string, window int) float64 {
	la, lb := len(a), len(b)
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		hi := min(lb-1, i+window)
		for j := max(0, i-window); j <= hi; j++ {
			if !bMatched[j] && a[i] == b[j] {
				aMatched[i] = true
				bMatched[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among the matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	return jaroScore(matches, transpositions, la, lb)
}

// jaroScore is the Jaro formula over the matched characters and their
// transpositions.
func jaroScore(matches, transpositions, la, lb int) float64 {
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity between a and b: the Jaro
// similarity boosted by up to 4 characters of common prefix with the
// standard scaling factor p = 0.1. The result lies in [0, 1].
//
// The paper (Section 3) scores phonetic similarity between query fragments
// by applying Jaro-Winkler to their Double Metaphone representations; see
// Similarity for that composition.
func JaroWinkler(a, b string) float64 {
	const (
		prefixScale = 0.1
		maxPrefix   = 4
	)
	j := Jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < maxPrefix && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*prefixScale*(1-j)
}

// Similarity returns the phonetic similarity between two text fragments per
// the paper's metric: both fragments are mapped to Double Metaphone codes
// and compared with Jaro-Winkler. The best score across primary and
// secondary codes is used so alternative pronunciations are honoured. Codes
// of empty fragments (e.g. pure digits) fall back to a direct Jaro-Winkler
// comparison of the raw strings.
func Similarity(a, b string) float64 {
	pa, sa := DoubleMetaphone(a)
	pb, sb := DoubleMetaphone(b)
	na, nb := normalizeToken(a), normalizeToken(b)
	if pa == "" || pb == "" {
		return JaroWinkler(na, nb)
	}
	return blend(codeScore(pa, sa, pb, sb), JaroWinkler(na, nb))
}

// normalizeToken lowercases and strips non-alphanumeric bytes so that
// lexical comparison ignores formatting such as underscores in column
// names ("complaint_type" vs "complaint type").
func normalizeToken(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		}
	}
	return string(out)
}
