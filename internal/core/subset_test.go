package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"ceaff/internal/blocking"
	"ceaff/internal/mat"
	"ceaff/internal/match"
)

func subsetTestMatrix() *mat.Dense {
	return mat.FromRows([][]float64{
		{0.9, 0.2, 0.1, 0.0},
		{0.8, 0.7, 0.3, 0.1},
		{0.1, 0.6, 0.5, 0.2},
	})
}

func TestAlignRowsMatchesFullDecision(t *testing.T) {
	fused := subsetTestMatrix()
	full := match.DeferredAcceptance(fused)
	got, err := AlignRows(context.Background(), fused, []int{0, 1, 2}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("row %d: subset decision %d != full decision %d", i, got[i], full[i])
		}
	}
}

func TestAlignRowsSubsetCompetes(t *testing.T) {
	fused := subsetTestMatrix()
	// Sources 0 and 1 both prefer target 0; collectively source 0 (score
	// 0.9) must win it and source 1 fall back to target 1.
	got, err := AlignRows(context.Background(), fused, []int{0, 1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("collective subset decision = %v, want [0 1]", got)
	}
	// Reordering the request must permute the answer, not change it.
	rev, err := AlignRows(context.Background(), fused, []int{1, 0}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rev[0] != 1 || rev[1] != 0 {
		t.Fatalf("reversed subset decision = %v, want [1 0]", rev)
	}
}

func TestAlignRowsValidation(t *testing.T) {
	fused := subsetTestMatrix()
	if _, err := AlignRows(context.Background(), nil, []int{0}, 0, nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := AlignRows(context.Background(), fused, []int{3}, 0, nil); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := AlignRows(context.Background(), fused, []int{1, 1}, 0, nil); err == nil {
		t.Error("duplicate rows accepted")
	}
	got, err := AlignRows(context.Background(), fused, nil, 0, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty rows: got %v, %v", got, err)
	}
}

// TestAlignRowGroupsValidation runs the former grouped cases through
// AlignRows, one call per row set: a bad row after a good one is still
// rejected, and a row may appear in several sets because each call is its
// own competition.
func TestAlignRowGroupsValidation(t *testing.T) {
	ctx := context.Background()
	fused := subsetTestMatrix()
	if _, err := AlignRows(ctx, nil, []int{0}, 0, nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := AlignRows(ctx, fused, []int{0, 5}, 0, nil); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := AlignRows(ctx, fused, []int{1, 1}, 0, nil); err == nil {
		t.Error("within-set duplicate accepted")
	}
	var got []match.Assignment
	for _, rows := range [][]int{{0, 1}, {0}, {}} {
		a, err := AlignRows(ctx, fused, rows, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	if len(got[0]) != 2 || len(got[1]) != 1 || got[1][0] != 0 || len(got[2]) != 0 {
		t.Fatalf("per-set results malformed: %v", got)
	}
}

func TestAlignRowsCancelled(t *testing.T) {
	fused := subsetTestMatrix()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AlignRows(ctx, fused, []int{0, 1}, 0, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AlignRows returned %v, want context.Canceled", err)
	}
}

func TestAlignRowsTopK(t *testing.T) {
	fused := subsetTestMatrix()
	full := match.DeferredAcceptanceTopK(fused, 2)
	got, err := AlignRows(context.Background(), fused, []int{0, 1, 2}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("row %d: top-k subset decision %d != full %d", i, got[i], full[i])
		}
	}
}

// randDense fills a rows×cols matrix from a deterministic LCG, quantized so
// score ties actually occur and exercise the tie-break paths.
func randDense(rows, cols int, seed uint64) *mat.Dense {
	m := mat.NewDense(rows, cols)
	s := seed
	for i := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64((s>>33)%97) / 97
	}
	return m
}

// TestAlignGatheredSingleRowFastPath pins the single-row short circuit
// bit-identical to the full deferred-acceptance machinery, including ties
// and preference truncation.
func TestAlignGatheredSingleRowFastPath(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		m := randDense(1, 1+trial%37, uint64(trial)+1)
		want := match.DeferredAcceptance(m)
		got, err := AlignGathered(ctx, m, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] {
			t.Fatalf("trial %d: fast path %d != DAA %d (row %v)", trial, got[0], want[0], m.Row(0))
		}
		wantK := match.DeferredAcceptanceTopK(m, 3)
		gotK, err := AlignGathered(ctx, m, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotK[0] != wantK[0] {
			t.Fatalf("trial %d: fast path topK %d != DAA topK %d", trial, gotK[0], wantK[0])
		}
	}
	// NaN rows must take the full algorithm, not the scan.
	m := mat.FromRows([][]float64{{0.5, nan(), 0.9}})
	want := match.DeferredAcceptance(m)
	got, err := AlignGathered(ctx, m, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("NaN row: fast path %d != DAA %d", got[0], want[0])
	}
	// Zero-column rows stay unmatched either way.
	empty, err := AlignGathered(ctx, mat.NewDense(1, 0), 0, nil)
	if err != nil || empty[0] != -1 {
		t.Fatalf("empty row: got %v, %v", empty, err)
	}
}

func nan() float64 { return math.NaN() }

// TestAlignRowsSparseMatchesDense pins the sparse subset decision against
// the dense AlignRows on full candidate lists (every target
// a candidate of every source): same competition, same tie-breaks, same
// assignments.
func TestAlignRowsSparseMatchesDense(t *testing.T) {
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		n := 4 + trial%12
		fused := randDense(n, n, uint64(trial)*13+3)
		cands := make(blocking.Candidates, n)
		scores := make([][]float64, n)
		for i := 0; i < n; i++ {
			cands[i] = make([]int, n)
			for j := range cands[i] {
				cands[i][j] = j
			}
			scores[i] = fused.Row(i)
		}
		s := uint64(trial) + 17
		next := func(mod int) int {
			s = s*6364136223846793005 + 1442695040888963407
			return int((s >> 33) % uint64(mod))
		}
		rows := []int{}
		seen := map[int]bool{}
		for len(rows) < 1+next(n) {
			r := next(n)
			if !seen[r] {
				seen[r] = true
				rows = append(rows, r)
			}
		}
		topK := 0
		if trial%2 == 0 {
			topK = 1 + next(n+2)
		}
		want, err := AlignRows(ctx, fused, rows, topK, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AlignRowsSparse(ctx, cands, scores, rows, topK, nil)
		if err != nil {
			t.Fatal(err)
		}
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("trial %d pos %d (rows %v, topK %d): sparse %d != dense %d",
					trial, p, rows, topK, got[p], want[p])
			}
		}
	}
}

func TestAlignRowsSparseValidation(t *testing.T) {
	ctx := context.Background()
	cands := blocking.Candidates{{0, 1}, {1}}
	scores := [][]float64{{0.9, 0.1}, {0.8}}
	if _, err := AlignRowsSparse(ctx, cands, scores[:1], []int{0}, 0, nil); err == nil {
		t.Error("mismatched cands/scores accepted")
	}
	if _, err := AlignRowsSparse(ctx, cands, scores, []int{2}, 0, nil); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := AlignRowsSparse(ctx, cands, scores, []int{0, 0}, 0, nil); err == nil {
		t.Error("duplicate rows accepted")
	}
	got, err := AlignRowsSparse(ctx, cands, scores, nil, 0, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty rows: got %v, %v", got, err)
	}
	// Both sources want target 1's column? Source 0 prefers target 0 (0.9);
	// source 1 only candidates target 1: no competition, both matched.
	asn, err := AlignRowsSparse(ctx, cands, scores, []int{0, 1}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if asn[0] != 0 || asn[1] != 1 {
		t.Fatalf("sparse subset assignment %v, want [0 1]", asn)
	}
}
