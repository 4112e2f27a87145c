package serve

import (
	"context"
	"reflect"
	"testing"

	"ceaff/internal/blocking"
	"ceaff/internal/mat"
)

// literalSparseEngine builds a SparseEngine directly from a dense matrix
// with full candidate lists — the configuration in which blocked serving
// must agree with dense serving exactly.
func literalSparseEngine(fused *mat.Dense) *SparseEngine {
	n := fused.Rows
	src := make([]string, n)
	tgt := make([]string, fused.Cols)
	byName := map[string]int{}
	for i := range src {
		src[i] = string(rune('a' + i))
		byName[src[i]] = i
	}
	for j := range tgt {
		tgt[j] = string(rune('A' + j))
	}
	cands := make(blocking.Candidates, n)
	scores := make([][]float64, n)
	for i := 0; i < n; i++ {
		cands[i] = make([]int, fused.Cols)
		for j := range cands[i] {
			cands[i][j] = j
		}
		scores[i] = fused.Row(i)
	}
	e := &SparseEngine{
		cands:    cands,
		scores:   scores,
		feats:    [3][][]float64{nil, nil, scores}, // "string" feature = fused
		srcNames: src,
		tgtNames: tgt,
		byName:   byName,
		greedy:   make([]int, n),
	}
	for i := range cands {
		e.greedy[i] = sparseArgmax(cands[i], scores[i])
	}
	return e
}

// TestSparseEngineBitIdentity pins blocked serving against dense serving on
// full candidate lists: collective, greedy, and candidates answers agree
// field for field. Runs in the GOMAXPROCS=1/4 determinism suite.
func TestSparseEngineBitIdentity(t *testing.T) {
	const n = 18
	fused := tiedTestMatrix(n)
	dense := literalEngine(fused)
	sparse := literalSparseEngine(fused)
	ctx := context.Background()

	if sparse.NumSources() != dense.NumSources() {
		t.Fatal("source universe size differs")
	}
	for _, rows := range [][]int{{0}, {3, 7}, {1, 2, 3, 4, 5}, {17, 0, 9}} {
		want, err := dense.AlignCollective(ctx, rows, "")
		if err != nil {
			t.Fatal(err)
		}
		got, err := sparse.AlignCollective(ctx, rows, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rows %v:\n got %+v\nwant %+v", rows, got, want)
		}
		if gg, wg := sparse.AlignGreedy(rows), dense.AlignGreedy(rows); !reflect.DeepEqual(gg, wg) {
			t.Fatalf("greedy rows %v:\n got %+v\nwant %+v", rows, gg, wg)
		}
	}
	for row := 0; row < n; row += 5 {
		for _, k := range []int{1, 3, n} {
			want, err := dense.Candidates(ctx, row, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sparse.Candidates(ctx, row, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("candidates row %d k %d:\n got %+v\nwant %+v", row, k, got, want)
			}
		}
	}
}

// TestSparseEngineTruncatedCandidates exercises genuinely sparse lists: a
// source with no candidates stays unmatched everywhere, and decisions only
// ever name in-list targets.
func TestSparseEngineTruncatedCandidates(t *testing.T) {
	e := &SparseEngine{
		cands:    blocking.Candidates{{1, 2}, {}, {0, 2}},
		scores:   [][]float64{{0.9, 0.4}, {}, {0.7, 0.8}},
		srcNames: []string{"a", "b", "c"},
		tgtNames: []string{"A", "B", "C"},
		byName:   map[string]int{"a": 0, "b": 1, "c": 2},
		greedy:   []int{0, 0, 0},
	}
	for i, cs := range e.cands {
		e.greedy[i] = sparseArgmax(cs, e.scores[i])
	}
	ctx := context.Background()

	out, err := e.AlignCollective(ctx, []int{0, 1, 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !out[0].Matched || out[0].TargetIndex != 1 {
		t.Fatalf("source a: %+v, want target 1", out[0])
	}
	if out[1].Matched || out[1].TargetIndex != -1 {
		t.Fatalf("candidate-less source matched: %+v", out[1])
	}
	if !out[2].Matched || out[2].TargetIndex != 2 {
		t.Fatalf("source c: %+v, want target 2", out[2])
	}
	if out[0].Rank != 1 || out[2].Rank != 1 {
		t.Fatalf("candidate-local ranks wrong: %+v", out)
	}

	g := e.AlignGreedy([]int{1})
	if g[0].Matched {
		t.Fatalf("greedy matched a candidate-less source: %+v", g[0])
	}
	cands, err := e.Candidates(ctx, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Fatalf("candidate-less source listed %+v", cands)
	}
	if _, err := e.Candidates(ctx, 9, 1); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	for key, want := range map[string]int{"0": 0, "c": 2} {
		if got, ok := e.Resolve(key); !ok || got != want {
			t.Fatalf("Resolve(%q) = %d,%v", key, got, ok)
		}
	}
}
