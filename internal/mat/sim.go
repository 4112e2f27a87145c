package mat

import (
	"context"
	"sort"
)

// CosineSim returns the matrix of cosine similarities between the rows of a
// (sources) and the rows of b (targets): out[i][j] = cos(a_i, b_j).
// This is how the paper turns structural and semantic embeddings into
// similarity matrices (Sims and Simt, §IV-A, §IV-B). Zero rows (and rows a
// NormalizeRowsL2-style non-finite guard would zero) yield similarity 0
// against everything rather than NaN.
//
// The kernel is fused and clone-free: reciprocal row norms are computed
// into pooled scratch and applied inside the tiled product, instead of
// cloning and normalizing both operands — which used to double the peak
// memory of the two largest allocations in the pipeline. Results agree with
// NaiveCosineSim to absolute 1e-12 (reciprocal-multiply vs divide rounding)
// and are bit-reproducible run-to-run.
func CosineSim(a, b *Dense) *Dense {
	return CosineSimInto(NewDense(a.Rows, b.Rows), a, b)
}

// CosineSimInto computes CosineSim(a, b) into dst (a.Rows×b.Rows) and
// returns dst — e.g. into a pooled GetDense buffer that is released once the
// similarities are consumed. Every element of dst is overwritten; dst must
// not alias a or b. Bits are those of CosineSim.
func CosineSimInto(dst, a, b *Dense) *Dense {
	cosineInto(nil, dst, a, b) // a nil ctx never cancels
	return dst
}

// CosineSimCtx is CosineSim with cooperative cancellation of the underlying
// parallel product. On cancellation the partial result is discarded and
// ctx's error is returned.
func CosineSimCtx(ctx context.Context, a, b *Dense) (*Dense, error) {
	out := NewDense(a.Rows, b.Rows)
	if err := cosineInto(ctx, out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// cosineInto is the one fused cosine kernel behind CosineSim, CosineSimInto
// and CosineSimCtx; a nil ctx runs it uncancellable.
func cosineInto(ctx context.Context, dst, a, b *Dense) error {
	checkMulT(a, b)
	checkDst(dst, a.Rows, b.Rows)
	defer kernelDone("cosine", kernelStart())
	inv := GetScratch(a.Rows + b.Rows) // one pooled buffer for both norm vectors
	invA, invB := inv[:a.Rows], inv[a.Rows:]
	fillInvNorms(a, invA)
	fillInvNorms(b, invB)
	err := ParallelRowsCtx(ctx, a.Rows, func(lo, hi int) {
		buf := GetScratch(a.Cols)
		cosineBlock(a, b, dst, invA, invB, buf, lo, hi)
		PutScratch(buf)
	})
	PutScratch(inv)
	return err
}

// MulTCtx is MulT with cooperative cancellation between row chunks.
func MulTCtx(ctx context.Context, a, b *Dense) (*Dense, error) {
	checkMulT(a, b)
	out := NewDense(a.Rows, b.Rows)
	err := ParallelRowsCtx(ctx, a.Rows, func(lo, hi int) {
		mulTBlock(a, b, out, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ArgmaxRow returns, for each row of m, the column index of the maximum
// element. Ties break toward the lower index for determinism.
func ArgmaxRow(m *Dense) []int {
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		best := 0
		for j := 1; j < len(r); j++ {
			if r[j] > r[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// ArgmaxCol returns, for each column of m, the row index of the maximum
// element. Ties break toward the lower index. A running best-value vector
// keeps the scan a single pass over contiguous rows, with no indexed
// re-lookups into earlier rows.
func ArgmaxCol(m *Dense) []int {
	out := make([]int, m.Cols)
	if m.Rows == 0 || m.Cols == 0 {
		return out
	}
	best := GetScratch(m.Cols)
	copy(best, m.Row(0))
	for i := 1; i < m.Rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			if v > best[j] {
				best[j] = v
				out[j] = i
			}
		}
	}
	PutScratch(best)
	return out
}

// TopKRow returns the indices of the k largest elements of each row in
// descending value order. k is clamped to the row length. For small k,
// selection runs in O(C log k) per row via a bounded heap over pooled
// scratch; when k is a large fraction of the row (k ≥ C/2, e.g. full
// preference lists for deferred acceptance) a plain sort of the row's
// indices is faster than heap selection, so it falls back to that. Ties
// break toward the lower index either way, matching a full stable
// descending sort exactly.
func TopKRow(m *Dense, k int) [][]int {
	if k > m.Cols {
		k = m.Cols
	}
	out := make([][]int, m.Rows)
	if k <= 0 {
		for i := range out {
			out[i] = []int{}
		}
		return out
	}
	if 2*k >= m.Cols {
		parallelRows(m.Rows, func(lo, hi int) {
			idx := GetScratchInts(m.Cols)
			for i := lo; i < hi; i++ {
				r := m.Row(i)
				for j := range idx {
					idx[j] = j
				}
				sortIdxDesc(r, idx, maxSortDepth(len(idx)))
				out[i] = append(make([]int, 0, k), idx[:k]...)
			}
			PutScratchInts(idx)
		})
		return out
	}
	parallelRows(m.Rows, func(lo, hi int) {
		heap := GetScratchInts(k)
		for i := lo; i < hi; i++ {
			out[i] = topKSelect(m.Row(i), k, heap)
		}
		PutScratchInts(heap)
	})
	return out
}

// idxLess is the total order of the full-sort path: value descending, ties
// ascending by index — identical to the bounded-heap path's order.
func idxLess(r []float64, x, y int) bool {
	if r[x] != r[y] {
		return r[x] > r[y]
	}
	return x < y
}

// maxSortDepth is the introsort depth limit: 2·⌈log2(n)⌉.
func maxSortDepth(n int) int {
	d := 0
	for n > 0 {
		d++
		n >>= 1
	}
	return 2 * d
}

// sortIdxDesc sorts idx by idxLess with a specialized introsort — direct
// comparisons instead of sort.Slice's interface dispatch, which is worth
// ~2× on the full-preference-list path of deferred acceptance. Quicksort
// with median-of-three pivots, insertion sort below 12 elements, and a
// sort.Slice fallback if recursion ever exceeds the introsort depth bound.
func sortIdxDesc(r []float64, idx []int, depth int) {
	for len(idx) > 12 {
		if depth == 0 {
			sort.Slice(idx, func(x, y int) bool { return idxLess(r, idx[x], idx[y]) })
			return
		}
		depth--
		// Median-of-three pivot, moved to idx[0].
		mid, last := len(idx)/2, len(idx)-1
		if idxLess(r, idx[mid], idx[0]) {
			idx[0], idx[mid] = idx[mid], idx[0]
		}
		if idxLess(r, idx[last], idx[0]) {
			idx[0], idx[last] = idx[last], idx[0]
		}
		if idxLess(r, idx[mid], idx[last]) {
			idx[mid], idx[last] = idx[last], idx[mid]
		}
		pivot := idx[last]
		// Lomuto partition around the pivot value.
		p := 0
		for j := 0; j < last; j++ {
			if idxLess(r, idx[j], pivot) {
				idx[p], idx[j] = idx[j], idx[p]
				p++
			}
		}
		idx[p], idx[last] = idx[last], idx[p]
		// Recurse into the smaller half, iterate on the larger.
		if p < len(idx)-p-1 {
			sortIdxDesc(r, idx[:p], depth)
			idx = idx[p+1:]
		} else {
			sortIdxDesc(r, idx[p+1:], depth)
			idx = idx[:p]
		}
	}
	// Insertion sort for small segments.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idxLess(r, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// topKSelect returns the indices of the k largest entries of r in descending
// value order (ties ascending by index), using heap (len k) as scratch. The
// heap is a min-heap on (value asc, index desc): its root is always the
// worst entry currently kept, so a better candidate replaces the root in
// O(log k).
func topKSelect(r []float64, k int, heap []int) []int {
	// worse reports whether entry x ranks strictly below entry y.
	worse := func(x, y int) bool {
		if r[x] != r[y] {
			return r[x] < r[y]
		}
		return x > y
	}
	n := 0
	for j := range r {
		if n < k {
			// Push: sift up.
			heap[n] = j
			c := n
			n++
			for c > 0 {
				p := (c - 1) / 2
				if !worse(heap[c], heap[p]) {
					break
				}
				heap[c], heap[p] = heap[p], heap[c]
				c = p
			}
			continue
		}
		if !worse(heap[0], j) {
			continue // j is no better than the worst kept entry
		}
		heap[0] = j
		siftDownIdx(r, heap, n, worse)
	}
	// Pop ascending-worst into the tail of the result.
	res := make([]int, n)
	for n > 0 {
		n--
		res[n] = heap[0]
		heap[0] = heap[n]
		siftDownIdx(r, heap, n, worse)
	}
	return res
}

// siftDownIdx restores the min-heap property from the root of heap[:n].
func siftDownIdx(r []float64, heap []int, n int, worse func(x, y int) bool) {
	c := 0
	for {
		l := 2*c + 1
		if l >= n {
			return
		}
		if rr := l + 1; rr < n && worse(heap[rr], heap[l]) {
			l = rr
		}
		if !worse(heap[l], heap[c]) {
			return
		}
		heap[c], heap[l] = heap[l], heap[c]
		c = l
	}
}

// RankOfColumn returns, for each row i, the 1-based rank of column truth[i]
// when the row is sorted descending. Used for Hits@k and MRR (Table VI).
func RankOfColumn(m *Dense, truth []int) []int {
	out := make([]int, m.Rows)
	parallelRows(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := m.Row(i)
			t := truth[i]
			tv := r[t]
			rank := 1
			for j, v := range r {
				if v > tv || (v == tv && j < t) {
					rank++
				}
			}
			out[i] = rank
		}
	})
	return out
}

// CSLS applies cross-domain similarity local scaling (Conneau et al.) to a
// similarity matrix: csls(i,j) = 2·sim(i,j) − r_src(i) − r_tgt(j), where
// r_src(i) is the mean similarity of row i's k nearest targets and r_tgt(j)
// the mean of column j's k nearest sources. CSLS penalizes "hub" entities
// that are close to everything, a known failure mode of nearest-neighbour
// retrieval in cross-lingual embedding spaces. k is clamped to the matrix
// dimensions.
func CSLS(sim *Dense, k int) *Dense {
	out := NewDense(sim.Rows, sim.Cols)
	cslsInto(out, sim, k)
	return out
}

// CSLSInPlace is CSLS writing through the input matrix, for callers that
// discard the raw similarities afterwards; it returns sim.
func CSLSInPlace(sim *Dense, k int) *Dense {
	cslsInto(sim, sim, k)
	return sim
}

// cslsInto writes the CSLS rescaling of sim into dst (which may alias sim:
// both top-k statistics are computed before any element is rewritten).
func cslsInto(dst, sim *Dense, k int) {
	if k <= 0 {
		k = 1
	}
	defer kernelDone("csls", kernelStart())
	rowMean := GetScratch(sim.Rows)
	colMean := GetScratch(sim.Cols)
	topKMeanRowsInto(rowMean, sim, k)
	topKMeanColsInto(colMean, sim, k)
	parallelRows(sim.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sr := sim.Row(i)
			dr := dst.Row(i)
			rm := rowMean[i]
			for j, v := range sr {
				dr[j] = 2*v - rm - colMean[j]
			}
		}
	})
	PutScratch(rowMean)
	PutScratch(colMean)
}

// topKMeanRowsInto writes, per row of m, the mean of the k largest entries.
// Selection uses a bounded value min-heap in pooled scratch.
func topKMeanRowsInto(out []float64, m *Dense, k int) {
	if k > m.Cols {
		k = m.Cols
	}
	if k <= 0 {
		for i := range out[:m.Rows] {
			out[i] = 0
		}
		return
	}
	parallelRows(m.Rows, func(lo, hi int) {
		heap := GetScratch(k)
		for i := lo; i < hi; i++ {
			out[i] = topKMeanVals(m.Row(i), k, heap)
		}
		PutScratch(heap)
	})
}

// topKMeanColsInto writes, per column of m, the mean of the k largest
// entries of that column. Columns are processed in contiguous blocks with
// one bounded heap per column in the block — a blocked column walk that
// touches every element exactly once, instead of materializing mᵀ.
func topKMeanColsInto(out []float64, m *Dense, k int) {
	if k > m.Rows {
		k = m.Rows
	}
	if k <= 0 {
		for j := range out[:m.Cols] {
			out[j] = 0
		}
		return
	}
	const colBlock = 256
	parallelRows(m.Cols, func(lo, hi int) {
		for c0 := lo; c0 < hi; c0 += colBlock {
			c1 := c0 + colBlock
			if c1 > hi {
				c1 = hi
			}
			topKMeanColBlock(out, m, k, c0, c1)
		}
	})
}

// topKMeanColBlock fills out[c0:c1) with per-column top-k means, walking
// rows once and maintaining one bounded heap per column of the block.
func topKMeanColBlock(out []float64, m *Dense, k, c0, c1 int) {
	w := c1 - c0
	heaps := GetScratch(w * k)
	counts := GetScratchInts(w)
	for j := range counts {
		counts[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)[c0:c1]
		for j, v := range r {
			h := heaps[j*k : (j+1)*k]
			counts[j] = heapPushBounded(h, counts[j], k, v)
		}
	}
	for j := 0; j < w; j++ {
		h := heaps[j*k : j*k+counts[j]]
		var s float64
		for _, v := range h {
			s += v
		}
		if counts[j] > 0 {
			out[c0+j] = s / float64(counts[j])
		} else {
			out[c0+j] = 0
		}
	}
	PutScratch(heaps)
	PutScratchInts(counts)
}

// topKMeanVals returns the mean of the k largest values of r, using heap
// (len k) as bounded min-heap scratch.
func topKMeanVals(r []float64, k int, heap []float64) float64 {
	n := 0
	for _, v := range r {
		n = heapPushBounded(heap, n, k, v)
	}
	if n == 0 {
		return 0
	}
	var s float64
	for _, v := range heap[:n] {
		s += v
	}
	return s / float64(n)
}

// heapPushBounded pushes v into the bounded min-heap h[:n] of capacity k and
// returns the new size. Once full, v replaces the root only when larger, so
// h always holds the k largest values seen.
func heapPushBounded(h []float64, n, k int, v float64) int {
	if n < k {
		h[n] = v
		c := n
		n++
		for c > 0 {
			p := (c - 1) / 2
			if h[c] >= h[p] {
				break
			}
			h[c], h[p] = h[p], h[c]
			c = p
		}
		return n
	}
	if !(v > h[0]) {
		return n
	}
	h[0] = v
	c := 0
	for {
		l := 2*c + 1
		if l >= n {
			return n
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[l] >= h[c] {
			return n
		}
		h[c], h[l] = h[l], h[c]
		c = l
	}
}

// WeightedSum returns Σ w[k]·ms[k] for equally-shaped matrices. It is the
// feature-fusion combination step (§V, Feature Fusion with Adaptive Weight).
func WeightedSum(ms []*Dense, w []float64) *Dense {
	checkWeightedSum(ms, w)
	return WeightedSumInto(NewDense(ms[0].Rows, ms[0].Cols), ms, w)
}

// WeightedSumInto computes Σ w[k]·ms[k] into dst and returns dst, for
// callers that can reuse a dead matrix's storage instead of allocating. dst
// may alias one of ms: the aliased input is scaled in place first, then the
// remaining terms accumulate in their given order.
func WeightedSumInto(dst *Dense, ms []*Dense, w []float64) *Dense {
	checkWeightedSum(ms, w)
	checkSameShape(dst, ms[0])
	alias := -1
	for k, m := range ms {
		checkSameShape(dst, m)
		if m == dst {
			alias = k
		}
	}
	if alias >= 0 {
		dst.ScaleInPlace(w[alias])
	} else {
		dst.Zero()
	}
	for k, m := range ms {
		if k == alias {
			continue
		}
		dst.AxpyInPlace(w[k], m)
	}
	return dst
}

func checkWeightedSum(ms []*Dense, w []float64) {
	if len(ms) == 0 {
		panic("mat: WeightedSum of no matrices")
	}
	if len(ms) != len(w) {
		panic("mat: WeightedSum weight count mismatch")
	}
}
