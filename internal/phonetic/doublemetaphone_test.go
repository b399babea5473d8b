package phonetic

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestDoubleMetaphoneKnownCodes pins the encoder against widely published
// Double Metaphone reference outputs.
func TestDoubleMetaphoneKnownCodes(t *testing.T) {
	cases := []struct {
		word, prim, sec string
	}{
		{"smith", "SM0", "XMT"},
		{"schmidt", "XMT", "SMT"},
		{"thomas", "TMS", "TMS"},
		{"catherine", "K0RN", "KTRN"},
		{"katherine", "K0RN", "KTRN"},
		{"knight", "NT", "NT"},
		{"night", "NT", "NT"},
		{"school", "SKL", "SKL"},
		{"philip", "FLP", "FLP"},
		{"wright", "RT", "RT"},
		{"jose", "HS", "HS"},
		{"michael", "MKL", "MXL"},
		{"xavier", "SF", "SFR"},
		{"dumb", "TM", "TM"},
		{"edge", "AJ", "AJ"},
		{"edgar", "ATKR", "ATKR"},
	}
	for _, c := range cases {
		p, s := DoubleMetaphone(c.word)
		if p != c.prim || s != c.sec {
			t.Errorf("DoubleMetaphone(%q) = (%q, %q), want (%q, %q)", c.word, p, s, c.prim, c.sec)
		}
	}
}

// TestDoubleMetaphoneHomophones checks that classically confusable word
// pairs — the ambiguity MUVE is designed around — share a code.
func TestDoubleMetaphoneHomophones(t *testing.T) {
	pairs := [][2]string{
		{"smith", "smyth"},
		{"knight", "night"},
		{"catherine", "katherine"},
		{"wright", "write"},
		{"stephen", "steven"},
		{"dear", "deer"},
		{"phone", "fone"},
		{"flour", "flower"},
	}
	for _, pr := range pairs {
		p1, s1 := DoubleMetaphone(pr[0])
		p2, s2 := DoubleMetaphone(pr[1])
		if p1 != p2 && p1 != s2 && s1 != p2 && s1 != s2 {
			t.Errorf("homophones %q/%q got disjoint codes (%q,%q)/(%q,%q)",
				pr[0], pr[1], p1, s1, p2, s2)
		}
	}
}

func TestDoubleMetaphoneCaseInsensitive(t *testing.T) {
	f := func(s string) bool {
		p1, s1 := DoubleMetaphone(s)
		p2, s2 := DoubleMetaphone(strings.ToUpper(s))
		return p1 == p2 && s1 == s2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDoubleMetaphoneProperties(t *testing.T) {
	// Codes are at most 4 chars, drawn from the metaphone alphabet, and
	// the encoder is deterministic and total (never panics).
	alphabet := "ABCDEFGHIJKLMNOPQRSTUVWXYZ0"
	f := func(s string) bool {
		p, sec := DoubleMetaphone(s)
		if len(p) > 4 || len(sec) > 4 {
			return false
		}
		for _, code := range []string{p, sec} {
			for i := 0; i < len(code); i++ {
				if !strings.ContainsRune(alphabet, rune(code[i])) {
					return false
				}
			}
		}
		p2, s2 := DoubleMetaphone(s)
		return p == p2 && sec == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDoubleMetaphoneEmptyAndNonLetters(t *testing.T) {
	for _, s := range []string{"", "123", "?!.", "   "} {
		p, sec := DoubleMetaphone(s)
		if p != "" || sec != "" {
			t.Errorf("DoubleMetaphone(%q) = (%q, %q), want empty", s, p, sec)
		}
	}
	// Mixed content keeps only letters.
	p1, _ := DoubleMetaphone("new_york")
	p2, _ := DoubleMetaphone("newyork")
	if p1 != p2 {
		t.Errorf("underscore changed code: %q vs %q", p1, p2)
	}
}
