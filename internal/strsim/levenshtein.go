// Package strsim implements the string-level feature of CEAFF (§IV-C):
// Levenshtein distance (Eq. 2 of the paper), the variant lev* whose
// substitution costs 2, and the Levenshtein ratio
//
//	r(a,b) = (|a| + |b| - lev*(a,b)) / (|a| + |b|),
//
// plus parallel construction of the string similarity matrix Ml between two
// lists of entity names. Strings are compared rune-wise so multi-byte
// scripts (the ZH/JA analogues) measure in characters, not bytes.
//
// A substitution that costs 2 is never cheaper than a deletion plus an
// insertion, so lev* is the indel distance |a|+|b|−2·LCS(a,b). lev*, and with
// it the ratio and Ml, is therefore computed from the longest common
// subsequence by a bit-parallel kernel (lcs.go) instead of the per-cell
// dynamic program, which remains only behind the unit-cost Distance.
package strsim

import (
	"context"
	"sync"

	"ceaff/internal/mat"
)

// Distance returns the classic Levenshtein edit distance between a and b
// with unit costs for insertion, deletion and substitution (Eq. 2).
func Distance(a, b string) int {
	return distance([]rune(a), []rune(b))
}

// DistanceSub2 returns lev*(a,b): the edit distance where substitution
// costs 2 (equivalently, substitutions are realized as delete+insert). The
// paper uses this variant inside the Levenshtein ratio so that two
// completely different single characters get ratio 0, not 0.5.
func DistanceSub2(a, b string) int {
	total, lcs := pairLCS(a, b)
	return total - 2*lcs
}

// distance is the unit-cost Levenshtein DP behind Distance.
func distance(a, b []rune) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Two-row dynamic program; prev[j] = lev(i-1, j).
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= lb; j++ {
			del := prev[j] + 1
			ins := cur[j-1] + 1
			sub := prev[j-1]
			if ai != b[j-1] {
				sub++
			}
			m := del
			if ins < m {
				m = ins
			}
			if sub < m {
				m = sub
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// Ratio returns the Levenshtein ratio r(a,b) in [0, 1]: 1 for identical
// strings, 0 for strings with no common subsequence. Two empty strings are
// defined as identical (ratio 1).
func Ratio(a, b string) float64 {
	total, lcs := pairLCS(a, b)
	return ratio(total, lcs)
}

// ratio turns the rune total |a|+|b| and LCS(a,b) into r(a,b). The numerator
// |a|+|b|−lev*(a,b) is the integer 2·LCS, so every caller derives the same
// float64 from the same two integers.
func ratio(total, lcs int) float64 {
	if total == 0 {
		return 1
	}
	return float64(2*lcs) / float64(total)
}

// matchers recycles the kernel state of one-off pair comparisons, so Ratio
// and DistanceSub2 allocate nothing once warm.
var matchers = sync.Pool{New: func() any { return new(matcher) }}

// pairLCS returns |a|+|b| in runes and LCS(a, b), with a as the pattern.
func pairLCS(a, b string) (total, lcs int) {
	m := matchers.Get().(*matcher)
	m.setPattern(a)
	m.text = appendRunes(m.text[:0], b)
	total, lcs = m.n+len(m.text), m.lcs(m.text)
	matchers.Put(m)
	return total, lcs
}

// appendRunes decodes s onto dst exactly as the []rune(s) conversion does:
// one rune per code point, U+FFFD per invalid byte.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// Matrix computes the string similarity matrix Ml: rows are source names,
// columns target names, entries the Levenshtein ratio. The computation is
// embarrassingly parallel across source rows.
func Matrix(source, target []string) *mat.Dense {
	out, _ := matrix(nil, source, target)
	return out
}

// MatrixCtx is Matrix with cooperative cancellation between row chunks —
// the string feature is the most expensive similarity kernel on large
// candidate spaces, so deadline propagation must reach it.
func MatrixCtx(ctx context.Context, source, target []string) (*mat.Dense, error) {
	return matrix(ctx, source, target)
}

func matrix(ctx context.Context, source, target []string) (*mat.Dense, error) {
	out := mat.NewDense(len(source), len(target))
	// Decode targets once, into one flat buffer (a string has no more runes
	// than bytes, so it never regrows); every source row streams through
	// all of them.
	size := 0
	for _, t := range target {
		size += len(t)
	}
	flat := make([]rune, 0, size)
	tr := make([][]rune, len(target))
	for j, t := range target {
		start := len(flat)
		flat = appendRunes(flat, t)
		tr[j] = flat[start:len(flat):len(flat)]
	}
	err := mat.ParallelRowsCtx(ctx, len(source), func(lo, hi int) {
		m := matchers.Get().(*matcher)
		for i := lo; i < hi; i++ {
			m.setPattern(source[i])
			ratioRow(m, tr, out.Row(i))
		}
		matchers.Put(m)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ratioRow fills row[j] = r(pattern, targets[j]) for a matcher already
// loaded with the source name. It allocates nothing.
func ratioRow(m *matcher, targets [][]rune, row []float64) {
	for j, t := range targets {
		row[j] = ratio(m.n+len(t), m.lcs(t))
	}
}
