package strsim

import (
	"math"
	"testing"

	"ceaff/internal/rng"
)

// naiveDistance is the textbook O(n·m) full-matrix Levenshtein dynamic
// program, parameterized by substitution cost — the reference both the
// unit-cost two-row DP and the bit-parallel lev* kernel are checked against.
func naiveDistance(a, b []rune, subCost int) int {
	la, lb := len(a), len(b)
	d := make([][]int, la+1)
	for i := range d {
		d[i] = make([]int, lb+1)
		d[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		d[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			sub := d[i-1][j-1]
			if a[i-1] != b[j-1] {
				sub += subCost
			}
			m := d[i-1][j] + 1 // deletion
			if ins := d[i][j-1] + 1; ins < m {
				m = ins
			}
			if sub < m {
				m = sub
			}
			d[i][j] = m
		}
	}
	return d[la][lb]
}

// alphabets for random string generation: a small ASCII set (to force
// collisions and near-matches) and multi-byte rune sets covering the
// scripts of the paper's cross-lingual pairs.
var alphabets = [][]rune{
	[]rune("abcde"),
	[]rune("abcdefghijklmnopqrstuvwxyz0123456789 _-"),
	[]rune("éèêàçñöüß"),
	[]rune("日本語の漢字中文字符"),
	[]rune("aé日𝔘🌍"), // mixed widths: 1-, 2-, 3- and 4-byte encodings
}

func randString(s *rng.Source, alphabet []rune, maxLen int) string {
	n := int(s.Uint64() % uint64(maxLen+1))
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[s.Uint64()%uint64(len(alphabet))]
	}
	return string(out)
}

// TestDistancePropertyRandom cross-checks the production two-row DP against
// the naive reference over 1000 seeded random pairs for both cost models,
// and verifies the metric properties that must hold for any input:
// symmetry, identity, and the length bounds.
func TestDistancePropertyRandom(t *testing.T) {
	s := rng.New(20260805)
	for i := 0; i < 1000; i++ {
		alphabet := alphabets[i%len(alphabets)]
		a := randString(s, alphabet, 24)
		b := randString(s, alphabet, 24)
		ra, rb := []rune(a), []rune(b)

		for _, c := range []struct {
			subCost int
			dist    func(a, b string) int
		}{{1, Distance}, {2, DistanceSub2}} {
			subCost, dist := c.subCost, c.dist
			got := dist(a, b)
			want := naiveDistance(ra, rb, subCost)
			if got != want {
				t.Fatalf("pair %d (subCost %d): distance(%q, %q) = %d, reference = %d",
					i, subCost, a, b, got, want)
			}
			if sym := dist(b, a); sym != got {
				t.Fatalf("pair %d (subCost %d): asymmetric: d(a,b)=%d d(b,a)=%d", i, subCost, got, sym)
			}
		}

		if d := Distance(a, a); d != 0 {
			t.Fatalf("pair %d: d(a,a) = %d, want 0", i, d)
		}
		// Unit-cost distance is bounded by max(|a|,|b|) below by the length
		// difference; the sub-2 variant is bounded by |a|+|b|.
		d1 := Distance(a, b)
		lo := len(ra) - len(rb)
		if lo < 0 {
			lo = -lo
		}
		hi := len(ra)
		if len(rb) > hi {
			hi = len(rb)
		}
		if d1 < lo || d1 > hi {
			t.Fatalf("pair %d: Distance(%q, %q) = %d outside [%d, %d]", i, a, b, d1, lo, hi)
		}
		d2 := DistanceSub2(a, b)
		if d2 < d1 || d2 > len(ra)+len(rb) {
			t.Fatalf("pair %d: DistanceSub2(%q, %q) = %d outside [%d, %d]",
				i, a, b, d2, d1, len(ra)+len(rb))
		}

		// Ratio is in [0,1], symmetric, consistent with DistanceSub2, and 1
		// exactly for equal strings.
		r := Ratio(a, b)
		if r < 0 || r > 1 {
			t.Fatalf("pair %d: Ratio(%q, %q) = %v outside [0,1]", i, a, b, r)
		}
		if rs := Ratio(b, a); rs != r {
			t.Fatalf("pair %d: Ratio asymmetric: %v vs %v", i, r, rs)
		}
		total := len(ra) + len(rb)
		if total > 0 {
			want := float64(total-d2) / float64(total)
			if math.Abs(r-want) > 0 {
				t.Fatalf("pair %d: Ratio(%q, %q) = %v, want %v from DistanceSub2", i, a, b, r, want)
			}
		}
		if (a == b) != (r == 1) {
			t.Fatalf("pair %d: Ratio(%q, %q) = %v; equality and ratio-1 must coincide", i, a, b, r)
		}
	}
}

// TestDistanceUnicodeEdgeCases pins rune-wise (not byte-wise) semantics on
// multi-byte scripts: each case's expected distance counts characters.
func TestDistanceUnicodeEdgeCases(t *testing.T) {
	cases := []struct {
		a, b     string
		d1, d2   int // unit-cost and substitution-cost-2 distances
		ratioLow bool
	}{
		{"", "", 0, 0, false},
		{"", "日本語", 3, 3, false},
		{"日本語", "日本", 1, 1, false},
		{"日本語", "日本語", 0, 0, false},
		{"日本語", "中国語", 2, 4, false},
		{"café", "cafe", 1, 2, false},
		{"über", "uber", 1, 2, false},
		{"🌍🌍", "🌍", 1, 1, false},
		{"𝔘nicode", "Unicode", 1, 2, false},
		{"ab", "ba", 2, 2, false}, // transposition is two edits (no Damerau move)
		{"a", "b", 1, 2, true},    // sub-2 makes disjoint singles ratio 0
	}
	for _, c := range cases {
		if got := Distance(c.a, c.b); got != c.d1 {
			t.Errorf("Distance(%q, %q) = %d, want %d", c.a, c.b, got, c.d1)
		}
		if got := DistanceSub2(c.a, c.b); got != c.d2 {
			t.Errorf("DistanceSub2(%q, %q) = %d, want %d", c.a, c.b, got, c.d2)
		}
		if c.ratioLow {
			if r := Ratio(c.a, c.b); r != 0 {
				t.Errorf("Ratio(%q, %q) = %v, want 0", c.a, c.b, r)
			}
		}
	}
	if r := Ratio("", ""); r != 1 {
		t.Errorf("Ratio of two empty strings = %v, want 1", r)
	}
}

// TestMatrixMatchesRatio verifies the parallel matrix kernel agrees
// bit-for-bit with scalar Ratio on a seeded random name grid.
func TestMatrixMatchesRatio(t *testing.T) {
	s := rng.New(99)
	src := make([]string, 37)
	tgt := make([]string, 23)
	for i := range src {
		src[i] = randString(s, alphabets[i%len(alphabets)], 12)
	}
	for j := range tgt {
		tgt[j] = randString(s, alphabets[j%len(alphabets)], 12)
	}
	m := Matrix(src, tgt)
	for i, a := range src {
		for j, b := range tgt {
			want := Ratio(a, b)
			if got := m.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Matrix[%d,%d] = %v, Ratio(%q, %q) = %v", i, j, got, a, b, want)
			}
		}
	}
}
