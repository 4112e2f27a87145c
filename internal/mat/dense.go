// Package mat implements the small linear-algebra kernel the reproduction
// needs: dense row-major float64 matrices, CSR sparse matrices, parallel
// matrix products and cosine-similarity matrices. It exists because the
// build is stdlib-only; the API is deliberately minimal and geared to the
// shapes that occur in entity alignment (tall-skinny embedding matrices and
// square-ish similarity matrices).
package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Dense is a row-major dense matrix of float64.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("mat: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix's backing array.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0 in place.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%8.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// checkMul panics unless a×b is dimensionally valid.
func checkMul(a, b *Dense) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// checkMulT panics unless a×bᵀ is dimensionally valid.
func checkMulT(a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: mulT dimension mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// checkTMul panics unless aᵀ×b is dimensionally valid.
func checkTMul(a, b *Dense) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: tmul dimension mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// checkDst panics unless dst is rows×cols: the Into kernels overwrite a
// caller-owned destination and never resize it.
func checkDst(dst *Dense, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("mat: destination %dx%d, want %dx%d", dst.Rows, dst.Cols, rows, cols))
	}
}

// Mul returns a·b, cache-tiled (see tile.go) and parallelized across row
// blocks. Bit-identical to NaiveMul.
func Mul(a, b *Dense) *Dense {
	return MulInto(NewDense(a.Rows, b.Cols), a, b)
}

// MulInto computes a·b into dst (a.Rows×b.Cols) and returns dst, for callers
// that reuse one destination across calls. Every element of dst is
// overwritten; dst must not alias a or b. Bits are those of Mul.
func MulInto(dst, a, b *Dense) *Dense {
	checkMul(a, b)
	checkDst(dst, a.Rows, b.Cols)
	defer kernelDone("mul", kernelStart())
	parallelRows(a.Rows, func(lo, hi int) {
		clear(dst.Data[lo*dst.Cols : hi*dst.Cols])
		mulBlock(a, b, dst, lo, hi)
	})
	return dst
}

// MulT returns a·bᵀ without materializing the transpose, cache-tiled with a
// register-blocked four-column inner kernel. Bit-identical to NaiveMulT.
func MulT(a, b *Dense) *Dense {
	return MulTInto(NewDense(a.Rows, b.Rows), a, b)
}

// MulTInto computes a·bᵀ into dst (a.Rows×b.Rows) and returns dst. Every
// element of dst is overwritten; dst must not alias a or b. Bits are those
// of MulT.
func MulTInto(dst, a, b *Dense) *Dense {
	checkMulT(a, b)
	checkDst(dst, a.Rows, b.Rows)
	defer kernelDone("mult", kernelStart())
	parallelRows(a.Rows, func(lo, hi int) {
		mulTBlock(a, b, dst, lo, hi)
	})
	return dst
}

// TMul returns aᵀ·b without materializing the transpose. The parallel
// reduction is deterministic: per-block partial products merge in block
// order after every worker finishes, never in goroutine-completion order —
// float addition is not associative, so merge order would otherwise leak
// scheduling noise into the result bits (and break the pipeline's
// bit-for-bit repeatability contract). The block partition follows
// runtime.NumCPU(), so the bits are fixed per core count, not across core
// counts (DESIGN.md §18).
func TMul(a, b *Dense) *Dense {
	return TMulInto(NewDense(a.Cols, b.Cols), a, b)
}

// TMulInto computes aᵀ·b into dst (a.Cols×b.Cols) and returns dst. Every
// element of dst is overwritten; dst must not alias a or b. Bits are those
// of TMul.
func TMulInto(dst, a, b *Dense) *Dense {
	checkTMul(a, b)
	checkDst(dst, a.Cols, b.Cols)
	defer kernelDone("tmul", kernelStart())
	dst.Zero()
	workers := runtime.NumCPU()
	if a.Rows < 64 || workers <= 1 {
		tmulBlock(a, b, dst, 0, a.Rows)
		return dst
	}
	if workers > a.Rows {
		workers = a.Rows
	}
	chunk := (a.Rows + workers - 1) / workers
	nblocks := (a.Rows + chunk - 1) / chunk
	locals := make([]*Dense, nblocks)
	var wg sync.WaitGroup
	workerOnce.Do(startWorkers)
	for bi := 0; bi < nblocks; bi++ {
		lo := bi * chunk
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		bi, lo, hi := bi, lo, hi
		submit(func() {
			defer wg.Done()
			local := GetDense(a.Cols, b.Cols) // pooled per-block partial
			tmulBlock(a, b, local, lo, hi)
			locals[bi] = local
		})
	}
	wg.Wait()
	for _, local := range locals {
		dst.AddInPlace(local)
		PutDense(local)
	}
	return dst
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// AddInPlace adds b to m element-wise.
func (m *Dense) AddInPlace(b *Dense) {
	checkSameShape(m, b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// SubInPlace subtracts b from m element-wise.
func (m *Dense) SubInPlace(b *Dense) {
	checkSameShape(m, b)
	for i, v := range b.Data {
		m.Data[i] -= v
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AxpyInPlace adds s*b to m element-wise (BLAS axpy).
func (m *Dense) AxpyInPlace(s float64, b *Dense) {
	checkSameShape(m, b)
	for i, v := range b.Data {
		m.Data[i] += s * v
	}
}

func checkSameShape(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// NormalizeRowsL2 scales each row to unit L2 norm in place. Zero rows are
// left untouched (dividing by a zero norm would spray NaN through every
// similarity computed from them), and rows whose norm is non-finite — NaN
// or Inf entries, or overflow in the squared sum — are zeroed out so a
// single corrupt embedding degrades to "no signal" instead of poisoning
// downstream matrices.
func (m *Dense) NormalizeRowsL2() {
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		n := math.Sqrt(dot(r, r))
		if n == 0 {
			continue
		}
		if math.IsNaN(n) || math.IsInf(n, 0) {
			for j := range r {
				r[j] = 0
			}
			continue
		}
		for j := range r {
			r[j] /= n
		}
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	return math.Sqrt(dot(m.Data, m.Data))
}

// MaxAbs returns the largest absolute element, 0 for an empty matrix.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// ApplyInPlace replaces each element x by f(x).
func (m *Dense) ApplyInPlace(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// ReLUInPlace applies max(0, x) element-wise.
func (m *Dense) ReLUInPlace() {
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = 0
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Dot exposes the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: dot length mismatch")
	}
	return dot(a, b)
}

// parallelRows, ParallelRows and ParallelRowsCtx live in workerpool.go: the
// kernels dispatch row blocks onto a persistent fixed-size worker pool
// instead of spawning goroutines per call.
