package phonetic

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJaroKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.944444444},
		{"DIXON", "DICKSONX", 0.766666667},
		{"JELLYFISH", "SMELLYFISH", 0.896296296},
		{"abc", "abc", 1},
		{"", "", 1},
		{"abc", "", 0},
		{"", "abc", 0},
		{"abc", "xyz", 0},
	}
	for _, c := range cases {
		if got := Jaro(c.a, c.b); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Jaro(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerKnownValues(t *testing.T) {
	// Classic textbook values.
	cases := []struct {
		a, b string
		want float64
	}{
		{"MARTHA", "MARHTA", 0.961111111},
		{"DIXON", "DICKSONX", 0.813333333},
		{"DWAYNE", "DUANE", 0.84},
	}
	for _, c := range cases {
		if got := JaroWinkler(c.a, c.b); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("JaroWinkler(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaroWinklerProperties(t *testing.T) {
	// Symmetry, range, identity, and JW >= Jaro.
	f := func(a, b string) bool {
		j := Jaro(a, b)
		jw := JaroWinkler(a, b)
		if jw != JaroWinkler(b, a) {
			return false
		}
		if jw < 0 || jw > 1 || j < 0 || j > 1 {
			return false
		}
		if jw < j-1e-12 {
			return false
		}
		return close(JaroWinkler(a, a), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSimilarityRanksPhoneticNeighbors(t *testing.T) {
	// "Brooklyn" must be closer to its mishearing "Bruklin" than to "Queens".
	if Similarity("brooklyn", "bruklin") <= Similarity("brooklyn", "queens") {
		t.Error("phonetic twin ranked below unrelated word")
	}
	// Identical words score 1.
	if got := Similarity("borough", "borough"); !close(got, 1) {
		t.Errorf("Similarity(x, x) = %v, want 1", got)
	}
	// Homophones score very high.
	if got := Similarity("knight", "night"); got < 0.9 {
		t.Errorf("Similarity(knight, night) = %v, want >= 0.9", got)
	}
	// Underscored column names compare like their spoken form.
	if got := Similarity("complaint_type", "complaint type"); got < 0.98 {
		t.Errorf("Similarity over separators = %v", got)
	}
}

func TestSimilarityNumericFallback(t *testing.T) {
	// Pure digits have empty metaphone codes: fall back to lexical JW.
	if got := Similarity("2016", "2016"); !close(got, 1) {
		t.Errorf("Similarity(2016, 2016) = %v", got)
	}
	if Similarity("2016", "2017") <= Similarity("2016", "9999") {
		t.Error("numeric similarity ordering broken")
	}
}

func TestSimilarityProperties(t *testing.T) {
	f := func(a, b string) bool {
		s := Similarity(a, b)
		if s < 0 || s > 1 {
			return false
		}
		return close(s, Similarity(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIndexTopK(t *testing.T) {
	ix := NewIndex()
	ix.AddAll([]string{"Brooklyn", "Bronx", "Queens", "Manhattan", "Staten Island"})
	if ix.Len() != 5 {
		t.Fatalf("Len = %d", ix.Len())
	}
	got := ix.TopK("bruklin", 3)
	if len(got) != 3 {
		t.Fatalf("TopK returned %d entries", len(got))
	}
	if got[0].Entry != "Brooklyn" {
		t.Errorf("TopK[0] = %q, want Brooklyn", got[0].Entry)
	}
	// Scores are sorted non-increasing.
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Error("TopK scores not sorted")
		}
	}
	// Probing with an exact entry puts it first with score 1.
	exact := ix.TopK("Queens", 1)
	if exact[0].Entry != "Queens" || !close(exact[0].Score, 1) {
		t.Errorf("exact probe = %+v", exact[0])
	}
}

func TestIndexDeduplicationAndBounds(t *testing.T) {
	ix := NewIndex()
	ix.Add("alpha")
	ix.Add("alpha")
	ix.Add("")
	if ix.Len() != 1 {
		t.Errorf("Len after dup/empty adds = %d, want 1", ix.Len())
	}
	if !ix.Contains("alpha") || ix.Contains("beta") {
		t.Error("Contains wrong")
	}
	// k larger than index size returns everything; k <= 0 returns nil.
	if got := ix.TopK("alpha", 10); len(got) != 1 {
		t.Errorf("oversized k returned %d", len(got))
	}
	if got := ix.TopK("alpha", 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := NewIndex().TopK("x", 5); got != nil {
		t.Error("empty index should return nil")
	}
}

func TestIndexDeterministicOrder(t *testing.T) {
	// Entries with identical scores are ordered lexicographically, so
	// repeated lookups agree (important for reproducible experiments).
	ix := NewIndex()
	ix.AddAll([]string{"zeta", "beta", "feta"})
	a := ix.TopK("beta", 3)
	b := ix.TopK("beta", 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopK not deterministic")
		}
	}
}

func TestIndexEntriesOrder(t *testing.T) {
	ix := NewIndex()
	ix.AddAll([]string{"c", "a", "b"})
	got := ix.Entries()
	want := []string{"c", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Entries = %v, want %v", got, want)
		}
	}
}

func TestSimilarityScoresHomophonesHigh(t *testing.T) {
	// Classic surname homophones must score high under the metaphone
	// similarity.
	pairs := [][2]string{{"Robert", "Rupert"}, {"Ashcraft", "Ashcroft"}}
	for _, pr := range pairs {
		if s := Similarity(pr[0], pr[1]); s < 0.7 {
			t.Errorf("Similarity(%q, %q) = %v, want >= 0.7", pr[0], pr[1], s)
		}
	}
}
