package strsim

import "math/bits"

// Bit-parallel longest common subsequence (Allison & Dix 1986; Hyyrö 2004).
//
// For a pattern a of m runes, the match mask M[c] has bit i set iff a[i] == c.
// A state vector V of m bits starts all ones; for each rune c of the text b
//
//	U = V & M[c]
//	V = (V + U) | (V &^ U)
//
// and afterwards LCS(a, b) is the number of zero bits among V's low m bits.
// Each text rune costs ⌈m/64⌉ word operations, with the addition's carry
// chained across words (bits.Add64) for patterns longer than 64 runes.
// Bits above m start as ones and stay ones: their masks are zero, so U is
// zero there and V &^ U keeps them set whatever the carry does.
//
// A text rune that does not occur in the pattern has an all-zero mask, which
// leaves V unchanged, so the kernel skips it.

// matcher holds one pattern's match masks and the kernel's working state.
// It is reused across patterns (setPattern clears only what the previous
// pattern set) and is not safe for concurrent use.
type matcher struct {
	n     int      // pattern length in runes
	words int      // ⌈n/64⌉, at least 1
	runes []rune   // the pattern, kept so setPattern can clear its masks
	ascii []uint64 // masks of runes below 128: words per rune, 128·words
	other runeSet  // masks of all other runes
	v     []uint64 // state vector, words long
	text  []rune   // decode buffer for one-off pair comparisons
}

// setPattern loads the match masks of a, decoded rune-wise exactly as the
// []rune(a) conversion decodes it.
func (m *matcher) setPattern(a string) {
	for _, c := range m.runes {
		if c < 128 {
			clear(m.ascii[int(c)*m.words : int(c+1)*m.words])
		}
	}
	m.runes = appendRunes(m.runes[:0], a)
	m.n = len(m.runes)
	m.words = (m.n + 63) / 64
	if m.words == 0 {
		m.words = 1
	}
	if need := 128 * m.words; len(m.ascii) < need {
		m.ascii = make([]uint64, need)
	}
	if len(m.v) < m.words {
		m.v = make([]uint64, m.words)
	}
	m.other.reset(m.words)
	for i, c := range m.runes {
		var mask []uint64
		if c < 128 {
			mask = m.ascii[int(c)*m.words : int(c+1)*m.words]
		} else {
			mask = m.other.insert(c)
		}
		mask[i/64] |= 1 << (i % 64)
	}
}

// mask returns the match mask of c, or nil when c is not in the pattern.
func (m *matcher) mask(c rune) []uint64 {
	if c < 128 {
		return m.ascii[int(c)*m.words : int(c+1)*m.words]
	}
	return m.other.lookup(c)
}

// lcs returns the length of the longest common subsequence of the pattern
// and b. It allocates nothing.
func (m *matcher) lcs(b []rune) int {
	if m.n == 0 || len(b) == 0 {
		return 0
	}
	if m.words == 1 {
		v := ^uint64(0)
		for _, c := range b {
			var mk uint64
			if c < 128 {
				mk = m.ascii[c]
			} else if s := m.other.lookup(c); s != nil {
				mk = s[0]
			}
			u := v & mk
			v = (v + u) | (v &^ u)
		}
		return bits.OnesCount64(^v)
	}
	v := m.v[:m.words]
	for w := range v {
		v[w] = ^uint64(0)
	}
	for _, c := range b {
		mk := m.mask(c)
		if mk == nil {
			continue
		}
		mk = mk[:len(v)]
		var carry uint64
		for w, vw := range v {
			u := vw & mk[w]
			var sum uint64
			sum, carry = bits.Add64(vw, u, carry)
			v[w] = sum | (vw &^ u)
		}
	}
	zeros := 0
	for _, vw := range v {
		zeros += bits.OnesCount64(^vw)
	}
	return zeros
}

// runeSet maps the pattern's runes at or above 128 to their match masks,
// kept in one flat array of words-sized masks. Clearing keeps the map's
// buckets, so reloading patterns allocates nothing once warm.
type runeSet struct {
	words int
	off   map[rune]int // offset of each rune's mask in masks
	masks []uint64
}

// reset empties the set for masks of the given width.
func (s *runeSet) reset(words int) {
	if s.off == nil {
		s.off = make(map[rune]int)
	}
	clear(s.off)
	s.words = words
	s.masks = s.masks[:0]
}

// insert returns c's mask, adding a zero mask on first sight.
func (s *runeSet) insert(c rune) []uint64 {
	off, ok := s.off[c]
	if !ok {
		off = len(s.masks)
		s.off[c] = off
		for w := 0; w < s.words; w++ {
			s.masks = append(s.masks, 0)
		}
	}
	return s.masks[off : off+s.words]
}

// lookup returns c's mask, or nil when c is not in the set.
func (s *runeSet) lookup(c rune) []uint64 {
	if len(s.off) == 0 {
		return nil
	}
	off, ok := s.off[c]
	if !ok {
		return nil
	}
	return s.masks[off : off+s.words]
}
