package phonetic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refTopK is the straightforward TopK the index must agree with: score
// every entry in full, sort all of them, keep the first k. Its Jaro is
// the []bool formulation that predates the bitmasks.
func refTopK(ix *Index, probe string, k int) []Match {
	if k <= 0 || len(ix.entries) == 0 {
		return nil
	}
	pp, ps := DoubleMetaphone(probe)
	pn := normalizeToken(probe)
	matches := make([]Match, 0, len(ix.entries))
	for _, e := range ix.entries {
		matches = append(matches, Match{Entry: e.raw, Score: refScoreEntry(pp, ps, pn, e)})
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

func refScoreEntry(pp, ps, pn string, e indexEntry) float64 {
	if pp == "" || e.prim == "" {
		return refJaroWinkler(pn, e.norm)
	}
	best := refJaroWinkler(pp, e.prim)
	if ps != pp || e.sec != e.prim {
		for _, x := range []string{pp, ps} {
			for _, y := range []string{e.prim, e.sec} {
				if s := refJaroWinkler(x, y); s > best {
					best = s
				}
			}
		}
	}
	lex := refJaroWinkler(pn, e.norm)
	// Each product rounded on its own, as amd64 computes 0.8*best+0.2*lex.
	return float64(0.8*best) + float64(0.2*lex)
}

func refJaroWinkler(a, b string) float64 {
	j := refJaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func refJaro(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		for j := max(0, i-window); j <= min(lb-1, i+window); j++ {
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
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// checkTopK fails unless TopK and refTopK agree on every entry and on
// every score bit.
func checkTopK(t *testing.T, ix *Index, probe string, k int) {
	t.Helper()
	got, want := ix.TopK(probe, k), refTopK(ix, probe, k)
	if len(got) != len(want) {
		t.Fatalf("TopK(%q, %d): %d matches, reference %d", probe, k, len(got), len(want))
	}
	for i := range want {
		if got[i].Entry != want[i].Entry || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("TopK(%q, %d)[%d] = %q %v, reference %q %v", probe, k, i, got[i].Entry, got[i].Score, want[i].Entry, want[i].Score)
		}
	}
}

// fuzzIndex builds an index from newline-separated entries.
func fuzzIndex(entries string) *Index {
	ix := NewIndex()
	ix.AddAll(strings.Split(entries, "\n"))
	return ix
}

// FuzzPhoneticTopK compares the bounded, pruned TopK with the
// score-everything-then-sort reference.
func FuzzPhoneticTopK(f *testing.F) {
	long := strings.Repeat("brooklyn heights ", 5) // over 64 bytes
	for _, seed := range []struct {
		entries, probe string
		k              int
	}{
		{"Brooklyn\nBronx\nQueens\nManhattan\nStaten Island", "bruklin", 1},
		{"Brooklyn\nBronx\nQueens\nManhattan\nStaten Island", "queens", 3},
		{"2015\n2016\n2020\n10001\n11201", "2015", 2},         // empty codes
		{"2015\nNoise\n2016\nHeating", "2051", 9},             // mixed, k past size
		{"Bronx\nbronx\nBRONX\nbronks\nBronx!", "bronx", 2},   // tied scores
		{"zeta\nbeta\nfeta\nmeta", "beta", 1},                 // ties on code score
		{long + "\n" + long + "x\nBrooklyn Heights", long, 2}, // Jaro fallback
		{"a\nb\nc", "", 1},
	} {
		f.Add(seed.entries, seed.probe, seed.k)
	}
	f.Fuzz(func(t *testing.T, entries, probe string, k int) {
		ix := fuzzIndex(entries)
		if k < -1 || k > ix.Len()+2 {
			k = 1 + (k&0xff)%(ix.Len()+2)
		}
		checkTopK(t, ix, probe, k)
	})
}

// TestTopKMatchesReference runs TopK against the reference over random
// dictionaries that mix words, near-duplicates, digit strings and long
// entries, for every k from 1 past the index size.
func TestTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	syllables := []string{"bro", "ok", "lyn", "nx", "que", "ens", "man", "hat", "tan", "sta", "ten", "is", "land", "noi", "se", "heat", "ing", "ph", "gh", "kn", "sch", "wr", "x", "c", "k"}
	word := func() string {
		var b strings.Builder
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b.WriteString(syllables[rng.Intn(len(syllables))])
		}
		switch rng.Intn(10) {
		case 0:
			return fmt.Sprint(rng.Intn(3000))
		case 1:
			return strings.ToUpper(b.String())
		case 2:
			return strings.Repeat(b.String()+" ", 70/(b.Len()+1)+1)
		case 3:
			return b.String() + " " + b.String()
		}
		return b.String()
	}
	for round := 0; round < 60; round++ {
		ix := NewIndex()
		for n := rng.Intn(40); n >= 0; n-- {
			ix.Add(word())
		}
		for p := 0; p < 5; p++ {
			probe := word()
			for k := 1; k <= ix.Len()+1; k++ {
				checkTopK(t, ix, probe, k)
			}
		}
	}
}

// TestJaroBitmaskMatchesFallback pins the ≤ 64-byte bitmask Jaro to the
// []bool formulation it replaced, right up to the 64-byte boundary.
func TestJaroBitmaskMatchesFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := "ABKLNPRSTX0"
	str := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		a, b := str(rng.Intn(66)), str(rng.Intn(66))
		if i%3 == 0 && len(a) > 0 {
			b = a[:rng.Intn(len(a))] + str(rng.Intn(4))
		}
		if got, want := Jaro(a, b), refJaro(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Jaro(%q, %q) = %v, reference %v", a, b, got, want)
		}
	}
}
