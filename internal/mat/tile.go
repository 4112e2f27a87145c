package mat

import "math"

// Cache-tiled kernel layer. The dense products and the fused cosine kernel
// walk their operands in 2-D tiles sized to stay cache-resident, with a
// register-blocked inner kernel that computes four output columns per pass
// over a row (four independent accumulator chains break the serial
// floating-point add dependency that bounds a single dot product).
//
// Determinism contract: every output element is accumulated as one
// sequential sum over k in ascending order — tiles partition the *output*
// (and the operand walk), never a single element's summation. Tiled Mul,
// MulT and TMul are therefore bit-identical to their naive references, and
// every kernel is bit-reproducible run-to-run regardless of worker
// scheduling. Only the fused CosineSim differs from its reference (by the
// rounding of multiplying with a precomputed reciprocal norm instead of
// dividing twice); the cross-check suite documents that tolerance.

// tileRows and tileCols are the tile dimensions: tileRows rows of the
// left/output operand by tileCols output columns (= rows of b for MulT,
// columns of b for Mul/TMul). The defaults keep a tile pair comfortably
// inside L1/L2 for the embedding widths that occur here (d ≤ 512).
var tileRows, tileCols = 32, 128

// SetTileSizes overrides the kernel tile dimensions and returns the previous
// values so tests can restore them. Non-positive arguments leave the
// corresponding dimension unchanged. Not safe to call concurrently with
// running kernels; intended for tests and benchmarks only.
func SetTileSizes(rows, cols int) (prevRows, prevCols int) {
	prevRows, prevCols = tileRows, tileCols
	if rows > 0 {
		tileRows = rows
	}
	if cols > 0 {
		tileCols = cols
	}
	return prevRows, prevCols
}

// dot4 computes four dot products of ar against b0..b3 in one pass. Each
// accumulator is its own sequential sum over k, so every result is
// bit-identical to dot(ar, bi); the four independent chains exist purely for
// instruction-level parallelism.
func dot4(ar, b0, b1, b2, b3 []float64) (s0, s1, s2, s3 float64) {
	for i, v := range ar {
		s0 += v * b0[i]
		s1 += v * b1[i]
		s2 += v * b2[i]
		s3 += v * b3[i]
	}
	return s0, s1, s2, s3
}

// axpy adds a·x[j] to y[j] for every j < len(x), four elements per
// iteration. Each y[j] still receives exactly one a·x[j] addition, so the
// result is bit-identical to the plain loop; the unrolling only keeps the
// loop from being bound by instruction fetch.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	j := 0
	for ; j+4 <= len(x); j += 4 {
		xs := x[j : j+4 : j+4]
		ys := y[j : j+4 : j+4]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
	}
	for ; j < len(x); j++ {
		y[j] += a * x[j]
	}
}

// mulTBlock fills rows [lo, hi) of out = a·bᵀ with 2-D tiling: an a-tile of
// tileRows rows stays hot while b-tiles of tileCols rows stream through it,
// four output columns per inner pass.
func mulTBlock(a, b, out *Dense, lo, hi int) {
	rt, ct := tileRows, tileCols
	for ii := lo; ii < hi; ii += rt {
		ihi := ii + rt
		if ihi > hi {
			ihi = hi
		}
		for jj := 0; jj < b.Rows; jj += ct {
			jhi := jj + ct
			if jhi > b.Rows {
				jhi = b.Rows
			}
			for i := ii; i < ihi; i++ {
				ar := a.Row(i)
				or := out.Row(i)
				j := jj
				for ; j+4 <= jhi; j += 4 {
					or[j], or[j+1], or[j+2], or[j+3] =
						dot4(ar, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
				}
				for ; j < jhi; j++ {
					or[j] = dot(ar, b.Row(j))
				}
			}
		}
	}
}

// mulBlock fills rows [lo, hi) of out = a·b, tiled so that the b-panel of
// tileRows×tileCols stays cache-resident across every row of the block. The
// k-loop stays ascending per output element (kk is the only k partition and
// runs outermost-ascending), preserving bit-identity with NaiveMul.
func mulBlock(a, b, out *Dense, lo, hi int) {
	rt, ct := tileRows, tileCols
	for jj := 0; jj < b.Cols; jj += ct {
		jhi := jj + ct
		if jhi > b.Cols {
			jhi = b.Cols
		}
		for kk := 0; kk < a.Cols; kk += rt {
			khi := kk + rt
			if khi > a.Cols {
				khi = a.Cols
			}
			for i := lo; i < hi; i++ {
				ar := a.Row(i)[kk:khi]
				or := out.Row(i)[jj:jhi]
				for k, av := range ar {
					if av == 0 {
						continue
					}
					axpy(av, b.Row(kk + k)[jj:jhi], or)
				}
			}
		}
	}
}

// tmulBlock accumulates rows [lo, hi) of the aᵀ·b product into dst, tiled
// over output columns so the dst panel stays cache-resident across the k
// sweep. k runs ascending in the outer loop, so per-element accumulation
// order matches NaiveTMul exactly.
func tmulBlock(a, b, dst *Dense, lo, hi int) {
	ct := tileCols
	for jj := 0; jj < b.Cols; jj += ct {
		jhi := jj + ct
		if jhi > b.Cols {
			jhi = b.Cols
		}
		for k := lo; k < hi; k++ {
			ar := a.Row(k)
			br := b.Row(k)[jj:jhi]
			for i, av := range ar {
				if av == 0 {
					continue
				}
				axpy(av, br, dst.Row(i)[jj:jhi])
			}
		}
	}
}

// fillInvNorms writes the reciprocal L2 norm of each row of m into inv.
// Zero rows, rows with non-finite norms (NaN/Inf entries or squared-sum
// overflow) and norms too small to invert get 0 — mirroring the
// NormalizeRowsL2 guard, so the fused cosine kernel degrades a corrupt
// embedding to "no signal" exactly like the clone-and-normalize path did.
func fillInvNorms(m *Dense, inv []float64) {
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		n := math.Sqrt(dot(r, r))
		if n == 0 || math.IsNaN(n) || math.IsInf(n, 0) {
			inv[i] = 0
			continue
		}
		v := 1 / n
		if math.IsInf(v, 0) { // denormal norm: treat as no signal
			v = 0
		}
		inv[i] = v
	}
}

// cosineBlock fills rows [lo, hi) of out with cos(a_i, b_j) using the
// precomputed reciprocal norms: row i of a is scaled once into buf (len
// a.Cols), dotted against raw b rows tile by tile, and each dot is scaled by
// invB[j]. Rows or columns with zero reciprocal norm yield exactly 0. Every
// element of the row range is written, so out need not start zeroed.
func cosineBlock(a, b, out *Dense, invA, invB, buf []float64, lo, hi int) {
	rt, ct := tileRows, tileCols
	for ii := lo; ii < hi; ii += rt {
		ihi := ii + rt
		if ihi > hi {
			ihi = hi
		}
		for jj := 0; jj < b.Rows; jj += ct {
			jhi := jj + ct
			if jhi > b.Rows {
				jhi = b.Rows
			}
			for i := ii; i < ihi; i++ {
				or := out.Row(i)
				ia := invA[i]
				if ia == 0 {
					clear(or[jj:jhi]) // no signal: similarity 0
					continue
				}
				ar := a.Row(i)
				for d, v := range ar {
					buf[d] = v * ia
				}
				j := jj
				for ; j+4 <= jhi; j += 4 {
					s0, s1, s2, s3 := dot4(buf, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
					or[j] = scaleOrZero(s0, invB[j])
					or[j+1] = scaleOrZero(s1, invB[j+1])
					or[j+2] = scaleOrZero(s2, invB[j+2])
					or[j+3] = scaleOrZero(s3, invB[j+3])
				}
				for ; j < jhi; j++ {
					or[j] = scaleOrZero(dot(buf, b.Row(j)), invB[j])
				}
			}
		}
	}
}

// scaleOrZero returns s·inv, or exactly 0 when inv is 0 — a dot against a
// zeroed (corrupt) row may be NaN, and NaN·0 would leak it through.
func scaleOrZero(s, inv float64) float64 {
	if inv == 0 {
		return 0
	}
	return s * inv
}

// NaiveMul is the retained reference implementation of Mul: a plain
// single-threaded i-k-j walk. The cross-check suite and the Kernel*Naive
// benchmarks compare the tiled kernels against these references.
func NaiveMul(a, b *Dense) *Dense {
	checkMul(a, b)
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}

// NaiveMulT is the retained reference implementation of MulT: one full dot
// product per output element.
func NaiveMulT(a, b *Dense) *Dense {
	checkMulT(a, b)
	out := NewDense(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := 0; j < b.Rows; j++ {
			or[j] = dot(ar, b.Row(j))
		}
	}
	return out
}

// NaiveTMul is the retained reference implementation of TMul: a sequential
// k-i-j scatter accumulation.
func NaiveTMul(a, b *Dense) *Dense {
	checkTMul(a, b)
	out := NewDense(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		ar := a.Row(k)
		br := b.Row(k)
		for i, av := range ar {
			if av == 0 {
				continue
			}
			dr := out.Row(i)
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
	return out
}

// NaiveCosineSim is the retained reference implementation of CosineSim:
// clone both operands, normalize rows, multiply. The fused kernel agrees
// with it to absolute 1e-12 (reciprocal-multiply vs divide rounding), with
// identical zero-row / non-finite semantics.
func NaiveCosineSim(a, b *Dense) *Dense {
	an := a.Clone()
	bn := b.Clone()
	an.NormalizeRowsL2()
	bn.NormalizeRowsL2()
	return NaiveMulT(an, bn)
}
