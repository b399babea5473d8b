// Package phonetic implements the phonetic matching stack MUVE uses to
// generate candidate queries (paper Section 3, "Text to Multi-SQL"):
//
//   - the Double Metaphone algorithm [Philips 2000], which maps words to a
//     phonetic code such that similar-sounding words share similar codes;
//   - the Jaro-Winkler string distance, used to score similarity between
//     phonetic codes;
//   - an Index over schema element names and constants that returns the k
//     most phonetically similar entries for a query fragment, substituting
//     for the Apache Lucene phonetic-search functionality the paper uses.
package phonetic

import "strings"

// maxCodeLen is the standard maximum length of a Double Metaphone code.
const maxCodeLen = 4

// DoubleMetaphone returns the primary and secondary phonetic codes for the
// given word per Lawrence Philips' Double Metaphone algorithm. The
// secondary code captures alternative pronunciations (e.g. Slavo-Germanic
// readings); when the word is unambiguous both codes are equal. Input may
// be any case; non-ASCII-letter characters are ignored.
func DoubleMetaphone(word string) (primary, secondary string) {
	e := newDMEncoder(word)
	e.encode()
	return e.primary.String(), e.secondary.String()
}

// dmEncoder holds the scanning state of a Double Metaphone encoding run.
type dmEncoder struct {
	in                 string // uppercased input
	pos                int
	last               int
	primary, secondary strings.Builder
	slavoGermanic      bool
}

func newDMEncoder(word string) *dmEncoder {
	// Keep only ASCII letters; uppercase everything else.
	var b strings.Builder
	for _, r := range strings.ToUpper(word) {
		if r >= 'A' && r <= 'Z' {
			b.WriteRune(r)
		}
	}
	in := b.String()
	e := &dmEncoder{in: in, last: len(in) - 1}
	e.slavoGermanic = strings.ContainsAny(in, "WK") ||
		strings.Contains(in, "CZ") || strings.Contains(in, "WITZ")
	return e
}

// charAt returns the byte at index i, or 0 when out of range.
func (e *dmEncoder) charAt(i int) byte {
	if i < 0 || i >= len(e.in) {
		return 0
	}
	return e.in[i]
}

// stringAt reports whether any of the given substrings occurs at start
// (an inclusive index into the input) with the given length.
func (e *dmEncoder) stringAt(start, length int, ss ...string) bool {
	if start < 0 || start+length > len(e.in) {
		return false
	}
	target := e.in[start : start+length]
	for _, s := range ss {
		if target == s {
			return true
		}
	}
	return false
}

func isVowelByte(c byte) bool {
	switch c {
	case 'A', 'E', 'I', 'O', 'U', 'Y':
		return true
	}
	return false
}

func (e *dmEncoder) isVowel(i int) bool {
	return isVowelByte(e.charAt(i))
}

// add appends code fragments to the primary and secondary codes.
func (e *dmEncoder) add(prim, sec string) {
	if e.primary.Len() < maxCodeLen {
		room := maxCodeLen - e.primary.Len()
		if len(prim) > room {
			prim = prim[:room]
		}
		e.primary.WriteString(prim)
	}
	if e.secondary.Len() < maxCodeLen {
		room := maxCodeLen - e.secondary.Len()
		if len(sec) > room {
			sec = sec[:room]
		}
		e.secondary.WriteString(sec)
	}
}

// addBoth appends the same fragment to both codes.
func (e *dmEncoder) addBoth(s string) { e.add(s, s) }

func (e *dmEncoder) done() bool {
	return e.primary.Len() >= maxCodeLen && e.secondary.Len() >= maxCodeLen
}

func (e *dmEncoder) encode() {
	if len(e.in) == 0 {
		return
	}
	// Skip initial silent letters: GN, KN, PN, WR, PS.
	if e.stringAt(0, 2, "GN", "KN", "PN", "WR", "PS") {
		e.pos++
	}
	// Initial X is pronounced Z (e.g. "Xavier"), which maps to S.
	if e.charAt(0) == 'X' {
		e.addBoth("S")
		e.pos++
	}
	for e.pos < len(e.in) && !e.done() {
		switch e.charAt(e.pos) {
		case 'A', 'E', 'I', 'O', 'U', 'Y':
			if e.pos == 0 {
				e.addBoth("A")
			}
			e.pos++
		case 'B':
			// "-mb", e.g. "dumb", already skipped over.
			e.addBoth("P")
			if e.charAt(e.pos+1) == 'B' {
				e.pos += 2
			} else {
				e.pos++
			}
		case 'C':
			e.encodeC()
		case 'D':
			e.encodeD()
		case 'F':
			e.addBoth("F")
			if e.charAt(e.pos+1) == 'F' {
				e.pos += 2
			} else {
				e.pos++
			}
		case 'G':
			e.encodeG()
		case 'H':
			// Keep H only if first letter or between two vowels.
			if (e.pos == 0 || e.isVowel(e.pos-1)) && e.isVowel(e.pos+1) {
				e.addBoth("H")
				e.pos += 2
			} else {
				e.pos++
			}
		case 'J':
			e.encodeJ()
		case 'K':
			e.addBoth("K")
			if e.charAt(e.pos+1) == 'K' {
				e.pos += 2
			} else {
				e.pos++
			}
		case 'L':
			e.encodeL()
		case 'M':
			if (e.stringAt(e.pos-1, 3, "UMB") &&
				(e.pos+1 == e.last || e.stringAt(e.pos+2, 2, "ER"))) ||
				e.charAt(e.pos+1) == 'M' {
				e.pos += 2
			} else {
				e.pos++
			}
			e.addBoth("M")
		case 'N':
			if e.charAt(e.pos+1) == 'N' {
				e.pos += 2
			} else {
				e.pos++
			}
			e.addBoth("N")
		case 'P':
			if e.charAt(e.pos+1) == 'H' {
				e.addBoth("F")
				e.pos += 2
			} else {
				// Also account for "Campbell", "raspberry".
				if e.charAt(e.pos+1) == 'P' || e.charAt(e.pos+1) == 'B' {
					e.pos += 2
				} else {
					e.pos++
				}
				e.addBoth("P")
			}
		case 'Q':
			e.addBoth("K")
			if e.charAt(e.pos+1) == 'Q' {
				e.pos += 2
			} else {
				e.pos++
			}
		case 'R':
			e.encodeR()
		case 'S':
			e.encodeS()
		case 'T':
			e.encodeT()
		case 'V':
			e.addBoth("F")
			if e.charAt(e.pos+1) == 'V' {
				e.pos += 2
			} else {
				e.pos++
			}
		case 'W':
			e.encodeW()
		case 'X':
			// French, e.g. "breaux": silent final X.
			if !(e.pos == e.last &&
				(e.stringAt(e.pos-3, 3, "IAU", "EAU") ||
					e.stringAt(e.pos-2, 2, "AU", "OU"))) {
				e.addBoth("KS")
			}
			if e.charAt(e.pos+1) == 'C' || e.charAt(e.pos+1) == 'X' {
				e.pos += 2
			} else {
				e.pos++
			}
		case 'Z':
			e.encodeZ()
		default:
			e.pos++
		}
	}
}

func (e *dmEncoder) encodeC() {
	switch {
	// Various Germanic: "mACHer" etc.
	case e.pos > 1 && !e.isVowel(e.pos-2) &&
		e.stringAt(e.pos-1, 3, "ACH") &&
		e.charAt(e.pos+2) != 'I' &&
		(e.charAt(e.pos+2) != 'E' || e.stringAt(e.pos-2, 6, "BACHER", "MACHER")):
		e.addBoth("K")
		e.pos += 2
	// Special case "caesar".
	case e.pos == 0 && e.stringAt(e.pos, 6, "CAESAR"):
		e.addBoth("S")
		e.pos += 2
	// Italian "chianti".
	case e.stringAt(e.pos, 4, "CHIA"):
		e.addBoth("K")
		e.pos += 2
	case e.stringAt(e.pos, 2, "CH"):
		e.encodeCH()
	// E.g. "czerny".
	case e.stringAt(e.pos, 2, "CZ") && !e.stringAt(e.pos-2, 4, "WICZ"):
		e.add("S", "X")
		e.pos += 2
	// E.g. "focaccia".
	case e.stringAt(e.pos+1, 3, "CIA"):
		e.addBoth("X")
		e.pos += 3
	// Double "C" but not "McClellan".
	case e.stringAt(e.pos, 2, "CC") && !(e.pos == 1 && e.charAt(0) == 'M'):
		// "bellocchio" but not "bacchus".
		if e.stringAt(e.pos+2, 1, "I", "E", "H") && !e.stringAt(e.pos+2, 2, "HU") {
			// "accident", "accede", "succeed".
			if (e.pos == 1 && e.charAt(e.pos-1) == 'A') ||
				e.stringAt(e.pos-1, 5, "UCCEE", "UCCES") {
				e.addBoth("KS")
			} else {
				// "bacci", "bertucci".
				e.addBoth("X")
			}
			e.pos += 3
		} else {
			// Pierce's rule.
			e.addBoth("K")
			e.pos += 2
		}
	case e.stringAt(e.pos, 2, "CK", "CG", "CQ"):
		e.addBoth("K")
		e.pos += 2
	case e.stringAt(e.pos, 2, "CI", "CE", "CY"):
		// Italian vs. English.
		if e.stringAt(e.pos, 3, "CIO", "CIE", "CIA") {
			e.add("S", "X")
		} else {
			e.addBoth("S")
		}
		e.pos += 2
	default:
		e.addBoth("K")
		switch {
		// "mac caffrey", "mac gregor".
		case e.stringAt(e.pos+1, 2, " C", " Q", " G"):
			e.pos += 3
		case e.stringAt(e.pos+1, 1, "C", "K", "Q") &&
			!e.stringAt(e.pos+1, 2, "CE", "CI"):
			e.pos += 2
		default:
			e.pos++
		}
	}
}

func (e *dmEncoder) encodeCH() {
	switch {
	// "michael".
	case e.pos > 0 && e.stringAt(e.pos, 4, "CHAE"):
		e.add("K", "X")
	// Greek roots, e.g. "chemistry", "chorus".
	case e.pos == 0 &&
		(e.stringAt(e.pos+1, 5, "HARAC", "HARIS") ||
			e.stringAt(e.pos+1, 3, "HOR", "HYM", "HIA", "HEM")) &&
		!e.stringAt(0, 5, "CHORE"):
		e.addBoth("K")
	// Germanic, Greek, or otherwise "ch" for "kh" sound.
	case e.stringAt(0, 4, "VAN ", "VON ") || e.stringAt(0, 3, "SCH") ||
		// "architect" but not "arch", "orchestra", "orchid".
		e.stringAt(e.pos-2, 6, "ORCHES", "ARCHIT", "ORCHID") ||
		e.stringAt(e.pos+2, 1, "T", "S") ||
		((e.stringAt(e.pos-1, 1, "A", "O", "U", "E") || e.pos == 0) &&
			// E.g. "wachtler", "wechsler", but not "tichner".
			e.stringAt(e.pos+2, 1, "L", "R", "N", "M", "B", "H", "F", "V", "W", " ")):
		e.addBoth("K")
	case e.pos > 0:
		if e.stringAt(0, 2, "MC") {
			// E.g. "McHugh".
			e.addBoth("K")
		} else {
			e.add("X", "K")
		}
	default:
		e.addBoth("X")
	}
	e.pos += 2
}

func (e *dmEncoder) encodeD() {
	switch {
	case e.stringAt(e.pos, 2, "DG"):
		if e.stringAt(e.pos+2, 1, "I", "E", "Y") {
			// E.g. "edge".
			e.addBoth("J")
			e.pos += 3
		} else {
			// E.g. "edgar".
			e.addBoth("TK")
			e.pos += 2
		}
	case e.stringAt(e.pos, 2, "DT", "DD"):
		e.addBoth("T")
		e.pos += 2
	default:
		e.addBoth("T")
		e.pos++
	}
}

func (e *dmEncoder) encodeG() {
	next := e.charAt(e.pos + 1)
	switch {
	case next == 'H':
		e.encodeGH()
	case next == 'N':
		if e.pos == 1 && e.isVowel(0) && !e.slavoGermanic {
			e.add("KN", "N")
		} else if !e.stringAt(e.pos+2, 2, "EY") && e.charAt(e.pos+1) != 'Y' && !e.slavoGermanic {
			// Not e.g. "cagney".
			e.add("N", "KN")
		} else {
			e.addBoth("KN")
		}
		e.pos += 2
	// "tagliaro".
	case e.stringAt(e.pos+1, 2, "LI") && !e.slavoGermanic:
		e.add("KL", "L")
		e.pos += 2
	// -ges-, -gep-, -gel- at beginning.
	case e.pos == 0 && (next == 'Y' ||
		e.stringAt(e.pos+1, 2, "ES", "EP", "EB", "EL", "EY", "IB", "IL", "IN", "IE", "EI", "ER")):
		e.add("K", "J")
		e.pos += 2
	// -ger-, -gy-.
	case (e.stringAt(e.pos+1, 2, "ER") || next == 'Y') &&
		!e.stringAt(0, 6, "DANGER", "RANGER", "MANGER") &&
		!e.stringAt(e.pos-1, 1, "E", "I") &&
		!e.stringAt(e.pos-1, 3, "RGY", "OGY"):
		e.add("K", "J")
		e.pos += 2
	// Italian, e.g. "viaggi".
	case e.stringAt(e.pos+1, 1, "E", "I", "Y") || e.stringAt(e.pos-1, 4, "AGGI", "OGGI"):
		// Germanic.
		if e.stringAt(0, 4, "VAN ", "VON ") || e.stringAt(0, 3, "SCH") ||
			e.stringAt(e.pos+1, 2, "ET") {
			e.addBoth("K")
		} else if e.stringAt(e.pos+1, 4, "IER ") ||
			(e.pos+4 == len(e.in) && e.stringAt(e.pos+1, 3, "IER")) {
			// Always soft if French ending.
			e.addBoth("J")
		} else {
			e.add("J", "K")
		}
		e.pos += 2
	default:
		if next == 'G' {
			e.pos += 2
		} else {
			e.pos++
		}
		e.addBoth("K")
	}
}

func (e *dmEncoder) encodeGH() {
	switch {
	case e.pos > 0 && !e.isVowel(e.pos-1):
		e.addBoth("K")
		e.pos += 2
	case e.pos == 0:
		// "ghislane", "ghiradelli".
		if e.charAt(e.pos+2) == 'I' {
			e.addBoth("J")
		} else {
			e.addBoth("K")
		}
		e.pos += 2
	// Parker's rule (with some further refinements): e.g. "hugh".
	case (e.pos > 1 && e.stringAt(e.pos-2, 1, "B", "H", "D")) ||
		(e.pos > 2 && e.stringAt(e.pos-3, 1, "B", "H", "D")) ||
		(e.pos > 3 && e.stringAt(e.pos-4, 1, "B", "H")):
		e.pos += 2
	default:
		// E.g. "laugh", "McLaughlin", "cough", "gough", "rough", "tough".
		if e.pos > 2 && e.charAt(e.pos-1) == 'U' &&
			e.stringAt(e.pos-3, 1, "C", "G", "L", "R", "T") {
			e.addBoth("F")
		} else if e.pos > 0 && e.charAt(e.pos-1) != 'I' {
			e.addBoth("K")
		}
		e.pos += 2
	}
}

func (e *dmEncoder) encodeJ() {
	switch {
	// Obvious Spanish, "jose", "san jacinto".
	case e.stringAt(e.pos, 4, "JOSE") || e.stringAt(0, 4, "SAN "):
		if (e.pos == 0 && (e.charAt(e.pos+4) == ' ' || e.pos+4 == len(e.in))) ||
			e.stringAt(0, 4, "SAN ") {
			e.addBoth("H")
		} else {
			e.add("J", "H")
		}
		e.pos++
	case e.pos == 0 && !e.stringAt(e.pos, 4, "JOSE"):
		// Yankelovich/Jankelowicz.
		e.add("J", "A")
		e.pos++
	// Spanish pron. of e.g. "bajador".
	case e.isVowel(e.pos-1) && !e.slavoGermanic &&
		(e.charAt(e.pos+1) == 'A' || e.charAt(e.pos+1) == 'O'):
		e.add("J", "H")
		e.pos++
	case e.pos == e.last:
		e.add("J", "")
		e.pos++
	case !e.stringAt(e.pos+1, 1, "L", "T", "K", "S", "N", "M", "B", "Z") &&
		!e.stringAt(e.pos-1, 1, "S", "K", "L"):
		e.addBoth("J")
		e.pos++
	default:
		e.pos++
	}
	if e.charAt(e.pos) == 'J' {
		e.pos++
	}
}

func (e *dmEncoder) encodeL() {
	if e.charAt(e.pos+1) == 'L' {
		// Spanish, e.g. "cabrillo", "gallegos".
		if (e.pos == len(e.in)-3 && e.stringAt(e.pos-1, 4, "ILLO", "ILLA", "ALLE")) ||
			((e.stringAt(e.last-1, 2, "AS", "OS") || e.stringAt(e.last, 1, "A", "O")) &&
				e.stringAt(e.pos-1, 4, "ALLE")) {
			e.add("L", "")
			e.pos += 2
			return
		}
		e.pos += 2
	} else {
		e.pos++
	}
	e.addBoth("L")
}

func (e *dmEncoder) encodeR() {
	// French, e.g. "rogier", but exclude "hochmeier".
	if e.pos == e.last && !e.slavoGermanic &&
		e.stringAt(e.pos-2, 2, "IE") && !e.stringAt(e.pos-4, 2, "ME", "MA") {
		e.add("", "R")
	} else {
		e.addBoth("R")
	}
	if e.charAt(e.pos+1) == 'R' {
		e.pos += 2
	} else {
		e.pos++
	}
}

func (e *dmEncoder) encodeS() {
	switch {
	// Special cases "island", "isle", "carlisle", "carlysle".
	case e.stringAt(e.pos-1, 3, "ISL", "YSL"):
		e.pos++
	// Special case "sugar-".
	case e.pos == 0 && e.stringAt(e.pos, 5, "SUGAR"):
		e.add("X", "S")
		e.pos++
	case e.stringAt(e.pos, 2, "SH"):
		// Germanic.
		if e.stringAt(e.pos+1, 4, "HEIM", "HOEK", "HOLM", "HOLZ") {
			e.addBoth("S")
		} else {
			e.addBoth("X")
		}
		e.pos += 2
	// Italian & Armenian.
	case e.stringAt(e.pos, 3, "SIO", "SIA") || e.stringAt(e.pos, 4, "SIAN"):
		if e.slavoGermanic {
			e.addBoth("S")
		} else {
			e.add("S", "X")
		}
		e.pos += 3
	// German & Anglicisations, e.g. "smith" match "schmidt".
	case (e.pos == 0 && e.stringAt(e.pos+1, 1, "M", "N", "L", "W")) ||
		e.stringAt(e.pos+1, 1, "Z"):
		e.add("S", "X")
		if e.stringAt(e.pos+1, 1, "Z") {
			e.pos += 2
		} else {
			e.pos++
		}
	case e.stringAt(e.pos, 2, "SC"):
		e.encodeSC()
	default:
		// French e.g. "resnais", "artois".
		if e.pos == e.last && e.stringAt(e.pos-2, 2, "AI", "OI") {
			e.add("", "S")
		} else {
			e.addBoth("S")
		}
		if e.stringAt(e.pos+1, 1, "S", "Z") {
			e.pos += 2
		} else {
			e.pos++
		}
	}
}

func (e *dmEncoder) encodeSC() {
	// Schlesinger's rule.
	if e.charAt(e.pos+2) == 'H' {
		// Dutch origin, e.g. "school", "schooner".
		if e.stringAt(e.pos+3, 2, "OO", "ER", "EN", "UY", "ED", "EM") {
			// "schermerhorn", "schenker".
			if e.stringAt(e.pos+3, 2, "ER", "EN") {
				e.add("X", "SK")
			} else {
				e.addBoth("SK")
			}
		} else {
			if e.pos == 0 && !e.isVowel(3) && e.charAt(3) != 'W' {
				e.add("X", "S")
			} else {
				e.addBoth("X")
			}
		}
	} else if e.stringAt(e.pos+2, 1, "I", "E", "Y") {
		e.addBoth("S")
	} else {
		e.addBoth("SK")
	}
	e.pos += 3
}

func (e *dmEncoder) encodeT() {
	switch {
	case e.stringAt(e.pos, 4, "TION") || e.stringAt(e.pos, 3, "TIA", "TCH"):
		e.addBoth("X")
		e.pos += 3
	case e.stringAt(e.pos, 2, "TH") || e.stringAt(e.pos, 3, "TTH"):
		// Special case "thomas", "thames", or Germanic.
		if e.stringAt(e.pos+2, 2, "OM", "AM") ||
			e.stringAt(0, 4, "VAN ", "VON ") || e.stringAt(0, 3, "SCH") {
			e.addBoth("T")
		} else {
			e.add("0", "T")
		}
		e.pos += 2
	default:
		if e.stringAt(e.pos+1, 1, "T", "D") {
			e.pos += 2
		} else {
			e.pos++
		}
		e.addBoth("T")
	}
}

func (e *dmEncoder) encodeW() {
	switch {
	// Can also be in the middle of a word, e.g. "unwritten".
	case e.stringAt(e.pos, 2, "WR"):
		e.addBoth("R")
		e.pos += 2
	case e.pos == 0 && (e.isVowel(e.pos+1) || e.stringAt(e.pos, 2, "WH")):
		// "Wasserman" should match "Vasserman".
		if e.isVowel(e.pos + 1) {
			e.add("A", "F")
		} else {
			// Need "Uomo" to match "Womo".
			e.addBoth("A")
		}
		e.pos++
	// "Arnow" should match "Arnoff".
	case (e.pos == e.last && e.isVowel(e.pos-1)) ||
		e.stringAt(e.pos-1, 5, "EWSKI", "EWSKY", "OWSKI", "OWSKY") ||
		e.stringAt(0, 3, "SCH"):
		e.add("", "F")
		e.pos++
	// Polish, e.g. "Filipowicz".
	case e.stringAt(e.pos, 4, "WICZ", "WITZ"):
		e.add("TS", "FX")
		e.pos += 4
	default:
		e.pos++
	}
}

func (e *dmEncoder) encodeZ() {
	// Chinese Pinyin, e.g. "Zhao".
	if e.charAt(e.pos+1) == 'H' {
		e.addBoth("J")
		e.pos += 2
		return
	}
	if e.stringAt(e.pos+1, 2, "ZO", "ZI", "ZA") ||
		(e.slavoGermanic && e.pos > 0 && e.charAt(e.pos-1) != 'T') {
		e.add("S", "TS")
	} else {
		e.addBoth("S")
	}
	if e.charAt(e.pos+1) == 'Z' {
		e.pos += 2
	} else {
		e.pos++
	}
}
