package strsim

import (
	"math"
	"strings"
	"testing"

	"ceaff/internal/rng"
)

// kernelLengths are the pattern/text lengths (in runes) where the
// bit-parallel kernel changes shape: empty, one word minus, exactly and plus
// one rune, two full words, and lengths that need the carry chain across
// three or more words.
var kernelLengths = []int{0, 1, 63, 64, 65, 127, 128, 129, 200, 300}

func randStringLen(s *rng.Source, alphabet []rune, n int) string {
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[s.Uint64()%uint64(len(alphabet))]
	}
	return string(out)
}

// checkKernel compares DistanceSub2 and Ratio, both computed by the
// bit-parallel kernel, against the naive substitution-cost-2 DP for one pair.
func checkKernel(t *testing.T, a, b string) {
	t.Helper()
	ra, rb := []rune(a), []rune(b)
	want := naiveDistance(ra, rb, 2)
	if got := DistanceSub2(a, b); got != want {
		t.Fatalf("DistanceSub2(%q, %q) = %d, naive DP = %d (|a|=%d |b|=%d)", a, b, got, want, len(ra), len(rb))
	}
	total := len(ra) + len(rb)
	wantRatio := 1.0
	if total > 0 {
		wantRatio = float64(total-want) / float64(total)
	}
	if got := Ratio(a, b); math.Float64bits(got) != math.Float64bits(wantRatio) {
		t.Fatalf("Ratio(%q, %q) = %v, naive DP gives %v", a, b, got, wantRatio)
	}
}

// TestLCSKernelMatchesNaiveDP cross-checks the bit-parallel kernel against
// the naive DP on every property-test alphabet at the word-boundary lengths,
// in both argument orders (so each length is both pattern and text).
func TestLCSKernelMatchesNaiveDP(t *testing.T) {
	s := rng.New(20261017)
	for ai, alphabet := range alphabets {
		for _, la := range kernelLengths {
			for _, lb := range kernelLengths {
				if la+lb > 400 && (la+lb+ai)%3 != 0 {
					continue // keep the O(|a|·|b|) oracle affordable
				}
				a := randStringLen(s, alphabet, la)
				b := randStringLen(s, alphabet, lb)
				checkKernel(t, a, b)
				checkKernel(t, b, a)
			}
		}
	}
}

// TestLCSKernelStructuredInputs covers inputs random strings rarely hit:
// identical long strings (LCS = length, every carry fires), disjoint
// alphabets (LCS 0), one string a subsequence of the other, repeats of one
// rune, a pattern with hundreds of distinct non-ASCII runes, and invalid
// UTF-8 (each bad byte is its own U+FFFD rune).
func TestLCSKernelStructuredInputs(t *testing.T) {
	long := strings.Repeat("abcdefghij", 20) // 200 runes
	cjk := strings.Repeat("日本語の漢字", 30)      // 180 runes
	var wide []rune                          // 200 distinct CJK runes: the mask table regrows
	for c := rune(0x4E00); c < 0x4E00+200; c++ {
		wide = append(wide, c)
	}
	cases := [][2]string{
		{long, long},
		{cjk, cjk},
		{long, cjk},
		{long, long[1:] + "z"},
		{long, strings.Repeat("a", 64)},
		{strings.Repeat("a", 65), strings.Repeat("a", 129)},
		{strings.Repeat("🌍", 70), "🌍x🌍"},
		{strings.Repeat("aé日𝔘🌍", 30), strings.Repeat("🌍𝔘日éa", 13)},
		{"\xff\xfe", "\xfd"},
		{strings.Repeat("\xff", 100), strings.Repeat("a\xc3", 40)},
		{"caf\xc3", "caf\xc3\xa9"},
		{"", long},
		{string(wide), string(wide[100:]) + cjk + string(wide[:100])},
	}
	for _, c := range cases {
		checkKernel(t, c[0], c[1])
		checkKernel(t, c[1], c[0])
	}
}

// TestMatcherReuseAcrossPatterns reloads one matcher with patterns of
// shrinking and growing word counts and mixed scripts, checking that no
// mask of an earlier pattern leaks into a later one.
func TestMatcherReuseAcrossPatterns(t *testing.T) {
	s := rng.New(7)
	var m matcher
	for i := 0; i < 300; i++ {
		alphabet := alphabets[i%len(alphabets)]
		n := kernelLengths[(i*7)%len(kernelLengths)]
		a := randStringLen(s, alphabet, n)
		b := randString(s, alphabets[(i/2)%len(alphabets)], 80)
		m.setPattern(a)
		got := m.lcs([]rune(b))
		ra, rb := []rune(a), []rune(b)
		if want := (len(ra) + len(rb) - naiveDistance(ra, rb, 2)) / 2; got != want {
			t.Fatalf("pattern %d (%d runes): lcs = %d, want %d", i, len(ra), got, want)
		}
	}
}

// TestStrsimMatrixBitIdentity pins Matrix, bit for bit, against a per-cell
// reference built from the naive DP, on a grid mixing every alphabet and
// name lengths across the kernel's word boundaries. Enough rows to take the
// parallel path.
func TestStrsimMatrixBitIdentity(t *testing.T) {
	s := rng.New(4242)
	src := make([]string, 90)
	tgt := make([]string, 40)
	for i := range src {
		src[i] = randStringLen(s, alphabets[i%len(alphabets)], kernelLengths[i%len(kernelLengths)]/2+i%5)
	}
	for j := range tgt {
		tgt[j] = randStringLen(s, alphabets[(j+1)%len(alphabets)], kernelLengths[(j*3)%len(kernelLengths)]/2+j%3)
	}
	got := Matrix(src, tgt)
	for i, a := range src {
		ra := []rune(a)
		for j, b := range tgt {
			rb := []rune(b)
			total := len(ra) + len(rb)
			want := 1.0
			if total > 0 {
				want = float64(total-naiveDistance(ra, rb, 2)) / float64(total)
			}
			if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("Matrix[%d,%d] = %v, per-cell DP = %v (%q vs %q)", i, j, g, want, a, b)
			}
		}
	}
}

// TestMatrixRowAllocatesNothing shows the steady-state cost of a Matrix row:
// once the matcher holds a pattern, scoring it against every target
// allocates nothing, per cell or per row.
func TestMatrixRowAllocatesNothing(t *testing.T) {
	s := rng.New(3)
	targets := make([][]rune, 200)
	for j := range targets {
		targets[j] = []rune(randString(s, alphabets[j%len(alphabets)], 150))
	}
	row := make([]float64, len(targets))
	for _, pattern := range []string{"entity_name_42", "日本語の漢字", strings.Repeat("aé日𝔘🌍", 30)} {
		var m matcher
		m.setPattern(pattern)
		if allocs := testing.AllocsPerRun(20, func() { ratioRow(&m, targets, row) }); allocs != 0 {
			t.Fatalf("ratioRow for %d-rune pattern: %v allocs per row, want 0", m.n, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { m.setPattern(pattern) }); allocs != 0 {
			t.Fatalf("setPattern reload of %d-rune pattern: %v allocs, want 0", m.n, allocs)
		}
	}
}
