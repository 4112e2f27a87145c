package mat

import (
	"fmt"
	"sync"
)

// CSR is a compressed-sparse-row matrix. It is the storage for the GCN's
// normalized adjacency Â, which on a KG with n entities and |T| triples has
// O(n + |T|) non-zeros — dense storage would be O(n²).
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len nnz
	Val        []float64 // len nnz

	// Transposed view (CSC of the same matrix), built lazily by the first
	// TMulDense call and cached: the GCN backward pass multiplies by Âᵀ
	// every epoch over the same adjacency, so the one-time O(nnz) build
	// amortizes immediately. Guarded by tOnce for concurrent first use.
	tOnce   sync.Once
	tColPtr []int     // len Cols+1
	tRowIdx []int     // len nnz, ascending within each column
	tVal    []float64 // len nnz
}

// COO is a coordinate-format triplet used while assembling a sparse matrix.
type COO struct {
	Row, Col int
	Val      float64
}

// NewCSR assembles a CSR matrix from coordinate entries. Duplicate (row,
// col) entries are summed, matching the semantics of assembling an adjacency
// matrix from parallel edges.
func NewCSR(rows, cols int, entries []COO) *CSR {
	// Coalesce duplicates first.
	type key struct{ r, c int }
	acc := make(map[key]float64, len(entries))
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("mat: COO entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols))
		}
		acc[key{e.Row, e.Col}] += e.Val
	}
	counts := make([]int, rows)
	for k := range acc {
		counts[k.r]++
	}
	rowPtr := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		rowPtr[i+1] = rowPtr[i] + counts[i]
	}
	nnz := rowPtr[rows]
	colIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, rows)
	copy(next, rowPtr[:rows])
	for k, v := range acc {
		p := next[k.r]
		colIdx[p] = k.c
		val[p] = v
		next[k.r]++
	}
	// Sort columns within each row for deterministic iteration.
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		insertionSortPair(colIdx[lo:hi], val[lo:hi])
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

func insertionSortPair(idx []int, val []float64) {
	for i := 1; i < len(idx); i++ {
		ci, vi := idx[i], val[i]
		j := i - 1
		for j >= 0 && idx[j] > ci {
			idx[j+1], val[j+1] = idx[j], val[j]
			j--
		}
		idx[j+1], val[j+1] = ci, vi
	}
}

// NNZ returns the number of stored non-zeros.
func (s *CSR) NNZ() int { return len(s.Val) }

// MulDense returns s·d for dense d, parallelized across sparse rows on the
// persistent worker pool. This is the GCN propagation step Â·H.
//
// Determinism: each output row is written by exactly one row block, and its
// accumulation walks the row's non-zeros in ascending column order — the
// same per-element chain as NaiveMulDense, so the result is bit-identical
// to the serial reference at any worker count.
func (s *CSR) MulDense(d *Dense) *Dense {
	return s.MulDenseInto(NewDense(s.Rows, d.Cols), d)
}

// MulDenseInto computes s·d into dst (s.Rows×d.Cols) and returns dst. Every
// element of dst is overwritten; dst must not alias d. Bits are those of
// MulDense.
func (s *CSR) MulDenseInto(dst, d *Dense) *Dense {
	s.checkMulDense(dst, d)
	defer kernelDone("csr_mul", kernelStart())
	parallelRows(s.Rows, func(lo, hi int) {
		mulDenseRows(s, d, dst, lo, hi)
	})
	return dst
}

func (s *CSR) checkMulDense(dst, d *Dense) {
	if s.Cols != d.Rows {
		panic(fmt.Sprintf("mat: CSR mul dimension mismatch %dx%d · %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
	checkDst(dst, s.Rows, d.Cols)
}

func (s *CSR) checkTMulDense(dst, d *Dense) {
	if s.Rows != d.Rows {
		panic(fmt.Sprintf("mat: CSR tmul dimension mismatch (%dx%d)ᵀ · %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
	checkDst(dst, s.Cols, d.Cols)
}

// mulDenseRows overwrites output rows [lo, hi) with those of s·d.
func mulDenseRows(s *CSR, d, out *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		or := out.Row(i)
		clear(or)
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			axpy(s.Val[p], d.Row(s.ColIdx[p]), or)
		}
	}
}

// transpose builds the cached CSC view: per output column of s, the rows
// holding a non-zero in that column in ascending row order. It is the
// partition that makes TMulDense embarrassingly parallel without changing a
// single accumulation chain.
func (s *CSR) transpose() {
	nnz := len(s.Val)
	colPtr := make([]int, s.Cols+1)
	for _, c := range s.ColIdx {
		colPtr[c+1]++
	}
	for c := 0; c < s.Cols; c++ {
		colPtr[c+1] += colPtr[c]
	}
	rowIdx := make([]int, nnz)
	val := make([]float64, nnz)
	next := make([]int, s.Cols)
	copy(next, colPtr[:s.Cols])
	// Walking rows ascending fills each column's entries in ascending row
	// order — exactly the order the serial scatter visits them.
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			c := s.ColIdx[p]
			q := next[c]
			rowIdx[q] = i
			val[q] = s.Val[p]
			next[c]++
		}
	}
	s.tColPtr, s.tRowIdx, s.tVal = colPtr, rowIdx, val
}

// TMulDense returns sᵀ·d. The GCN backward pass needs Âᵀ·G; since our Â is
// symmetric this equals MulDense, but the general form keeps the kernel
// honest for non-symmetric propagation matrices (e.g. functionality-weighted
// adjacency).
//
// The serial reference (NaiveTMulDense) scatters row i's contributions into
// output rows colIdx[p] for i ascending. Parallelizing that scatter directly
// would race on shared output rows, so this kernel instead gathers through a
// lazily cached transpose index: output row c is one sequential sum over the
// rows holding a non-zero in column c, in ascending row order — the exact
// accumulation chain the serial scatter produces for that element. Output
// rows are disjoint across workers, so the result is bit-identical to the
// serial reference at any worker count, with no merge step.
func (s *CSR) TMulDense(d *Dense) *Dense {
	return s.TMulDenseInto(NewDense(s.Cols, d.Cols), d)
}

// TMulDenseInto computes sᵀ·d into dst (s.Cols×d.Cols) and returns dst.
// Every element of dst is overwritten; dst must not alias d. Bits are those
// of TMulDense.
func (s *CSR) TMulDenseInto(dst, d *Dense) *Dense {
	s.checkTMulDense(dst, d)
	defer kernelDone("csr_tmul", kernelStart())
	s.tOnce.Do(s.transpose)
	parallelRows(s.Cols, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			or := dst.Row(c)
			clear(or)
			for q := s.tColPtr[c]; q < s.tColPtr[c+1]; q++ {
				axpy(s.tVal[q], d.Row(s.tRowIdx[q]), or)
			}
		}
	})
	return dst
}

// NaiveMulDense is the retained serial reference for MulDense: a plain
// single-threaded row walk. The SpMM cross-check suite and the
// KernelSpMM*Naive benchmarks compare the parallel kernels against it for
// bit equality.
func (s *CSR) NaiveMulDense(d *Dense) *Dense {
	return s.NaiveMulDenseInto(NewDense(s.Rows, d.Cols), d)
}

// NaiveMulDenseInto is NaiveMulDense into a caller-owned dst, overwritten
// entirely; dst must not alias d.
func (s *CSR) NaiveMulDenseInto(dst, d *Dense) *Dense {
	s.checkMulDense(dst, d)
	mulDenseRows(s, d, dst, 0, s.Rows)
	return dst
}

// NaiveTMulDense is the retained serial reference for TMulDense: the
// sequential scatter over sparse rows that the pre-parallel implementation
// used. TMulDense must agree with it bit for bit.
func (s *CSR) NaiveTMulDense(d *Dense) *Dense {
	return s.NaiveTMulDenseInto(NewDense(s.Cols, d.Cols), d)
}

// NaiveTMulDenseInto is NaiveTMulDense into a caller-owned dst, overwritten
// entirely; dst must not alias d.
func (s *CSR) NaiveTMulDenseInto(dst, d *Dense) *Dense {
	s.checkTMulDense(dst, d)
	dst.Zero()
	for i := 0; i < s.Rows; i++ {
		dr := d.Row(i)
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			v := s.Val[p]
			or := dst.Row(s.ColIdx[p])
			for j, dv := range dr {
				or[j] += v * dv
			}
		}
	}
	return dst
}

// ToDense expands the sparse matrix; intended for tests on small inputs.
func (s *CSR) ToDense() *Dense {
	out := NewDense(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			out.Set(i, s.ColIdx[p], s.Val[p])
		}
	}
	return out
}
