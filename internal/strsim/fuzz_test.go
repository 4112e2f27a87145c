package strsim

import (
	"math"
	"strings"
	"testing"
)

// FuzzStrsimRatio checks the Levenshtein-ratio invariants on arbitrary
// (including invalid-UTF-8) string pairs: range [0,1], symmetry, identity,
// agreement with the paper's formula over DistanceSub2, agreement of the
// bit-parallel lev* kernel with the naive per-cell DP, and ratio 1 only
// for rune-equal inputs. Rune equality, not byte equality: distinct invalid
// byte sequences all decode to U+FFFD and legitimately compare identical.
func FuzzStrsimRatio(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"a", ""},
		{"abc", "abd"},
		{"kitten", "sitting"},
		{"北京", "北京市"},
		{"entity one", "one entity"},
		{"\xff", "\xfe"},
		{strings.Repeat("ab", 40), strings.Repeat("ba", 33)},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		r := Ratio(a, b)
		if math.IsNaN(r) || r < 0 || r > 1 {
			t.Fatalf("Ratio(%q, %q) = %v, outside [0, 1]", a, b, r)
		}
		if r2 := Ratio(b, a); r2 != r {
			t.Fatalf("asymmetric: Ratio(%q, %q)=%v but Ratio(%q, %q)=%v", a, b, r, b, a, r2)
		}
		if a == b && r != 1 {
			t.Fatalf("Ratio(%q, %q) = %v for identical strings", a, b, r)
		}
		ra, rb := []rune(a), []rune(b)
		total := len(ra) + len(rb)
		if total == 0 {
			if r != 1 {
				t.Fatalf("two empty strings: ratio %v, want 1", r)
			}
			return
		}
		d := DistanceSub2(a, b)
		want := float64(total-d) / float64(total)
		if r != want {
			t.Fatalf("Ratio(%q, %q) = %v, formula gives %v", a, b, r, want)
		}
		// The bit-parallel kernel must agree with the per-cell DP; bound the
		// O(|a|·|b|) oracle so long fuzz inputs stay fast.
		if len(ra)*len(rb) <= 1<<16 {
			if ref := naiveDistance(ra, rb, 2); d != ref {
				t.Fatalf("DistanceSub2(%q, %q) = %d, naive DP = %d", a, b, d, ref)
			}
		}
		if r == 1 && string(ra) != string(rb) {
			t.Fatalf("Ratio(%q, %q) = 1 for rune-distinct strings", a, b)
		}
	})
}
