package mat

import (
	"math"
	"testing"

	"ceaff/internal/rng"
)

// dirty returns a rows×cols matrix full of NaN, so an Into kernel that skips
// an element, or accumulates onto the destination instead of overwriting it,
// shows in the bits.
func dirty(rows, cols int) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = math.NaN()
	}
	return d
}

// TestIntoKernelsMatchAllocating pins every destination-taking kernel to its
// allocating twin, bit for bit, writing into a NaN-filled destination over
// the randomized tile-straddling shape sweep — including zero rows for the
// cosine kernel, whose "no signal" rows must still be written.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	useTinyTiles(t, 4, 8)
	s := rng.New(2026)
	for _, sh := range crossCheckShapes(s) {
		m, n, d := sh[0], sh[1], sh[2]
		a := NewDense(m, d)
		b := NewDense(n, d)
		fillRandom(a, s)
		fillRandom(b, s)
		if m > 0 {
			clear(a.Row(0)) // zero row: cosine writes 0 without the product
		}
		c := NewDense(m, n)
		fillRandom(c, s)
		bt := b.Transpose()

		assertBitsEqual(t, "MulInto", MulInto(dirty(m, n), a, bt), Mul(a, bt), sh)
		assertBitsEqual(t, "MulTInto", MulTInto(dirty(m, n), a, b), MulT(a, b), sh)
		assertBitsEqual(t, "TMulInto", TMulInto(dirty(d, n), a, c), TMul(a, c), sh)
		assertBitsEqual(t, "CosineSimInto", CosineSimInto(dirty(m, n), a, b), CosineSim(a, b), sh)
	}
}

// TestCSRIntoMatchesAllocating does the same for the sparse products, over
// shapes large enough to take the parallel row split.
func TestCSRIntoMatchesAllocating(t *testing.T) {
	s := rng.New(17)
	for _, sh := range [][3]int{{0, 3, 2}, {5, 7, 3}, {70, 90, 5}, {300, 200, 16}} {
		rows, cols, k := sh[0], sh[1], sh[2]
		sp := NewCSR(rows, cols, randomCOO(s, max(rows, 1), max(cols, 1), 4*rows))
		d := NewDense(cols, k)
		fillRandom(d, s)
		g := NewDense(rows, k)
		fillRandom(g, s)

		assertBitsEqual(t, "MulDenseInto", sp.MulDenseInto(dirty(rows, k), d), sp.MulDense(d), sh)
		assertBitsEqual(t, "NaiveMulDenseInto", sp.NaiveMulDenseInto(dirty(rows, k), d), sp.MulDense(d), sh)
		assertBitsEqual(t, "TMulDenseInto", sp.TMulDenseInto(dirty(cols, k), g), sp.TMulDense(g), sh)
		assertBitsEqual(t, "NaiveTMulDenseInto", sp.NaiveTMulDenseInto(dirty(cols, k), g), sp.TMulDense(g), sh)
	}
}

// TestIntoRejectsWrongDestination checks the shape guard: an Into kernel
// never resizes its destination.
func TestIntoRejectsWrongDestination(t *testing.T) {
	a, b := NewDense(3, 2), NewDense(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("MulInto into a 3x3 destination for a 3x4 product did not panic")
		}
	}()
	MulInto(NewDense(3, 3), a, b)
}
