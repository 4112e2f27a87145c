package core

import (
	"context"
	"fmt"
	"math"

	"ceaff/internal/blocking"
	"ceaff/internal/mat"
	"ceaff/internal/match"
)

// validateRowSet rejects out-of-range and duplicated row indices with the
// same diagnostics for every gather entry point. A duplicated source would
// compete with itself for its own best target, silently demoting one copy.
func validateRowSet(rows []int, bound int) error {
	seen := make(map[int]int, len(rows))
	for p, r := range rows {
		if r < 0 || r >= bound {
			return fmt.Errorf("core: row %d out of range [0,%d)", r, bound)
		}
		if q, dup := seen[r]; dup {
			return fmt.Errorf("core: rows %d and %d both select source %d", q, p, r)
		}
		seen[r] = p
	}
	return nil
}

// AlignGathered runs the collective decision over an already-gathered
// preference matrix: sub's rows compete for all targets under strategy st,
// exactly as the batch pipeline decides. A nil st selects the pipeline
// default, deferred acceptance; topK > 0 truncates each source's preference
// list as in Config.PreferenceTopK. Callers that build their own
// submatrices (the shard router's fan-out merge, a replica's owned rows)
// and AlignRows all decide through this one function.
//
// A single-row matrix short-circuits to a linear argmax scan when the
// strategy advertises Caps().ArgmaxSingle (deferred acceptance always
// does): a lone proposing source ends up with its first preference, which
// is its maximal target with ties toward the lower index — exactly
// mat.TopKRow's order — so the scan is bit-identical to the full machinery
// at a fraction of the cost (no O(C log C) preference sort). Rows
// containing NaN fall through to the full algorithm, whose NaN ordering the
// fast path does not reproduce.
func AlignGathered(ctx context.Context, sub *mat.Dense, topK int, st match.Strategy) (match.Assignment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sub.Rows == 1 && (st == nil || st.Caps().ArgmaxSingle) {
		if j, ok := singleRowChoice(sub.Row(0)); ok {
			return match.Assignment{j}, nil
		}
	}
	if st != nil {
		return st.Decide(sub, topK), nil
	}
	if topK > 0 {
		return match.DeferredAcceptanceTopK(sub, topK), nil
	}
	return match.DeferredAcceptance(sub), nil
}

// singleRowChoice picks the target a lone proposing source ends up with:
// the maximum value, ties toward the lower index (TopKRow's total order).
// ok is false when the row contains NaN, which breaks that total order.
func singleRowChoice(row []float64) (int, bool) {
	if len(row) == 0 {
		return -1, true
	}
	best := 0
	for j, v := range row {
		if math.IsNaN(v) {
			return 0, false
		}
		if v > row[best] {
			best = j
		}
	}
	return best, true
}

// AlignRows runs the collective EA decision over a subset of sources — the
// online query path of the serving layer. The selected rows of the fused
// matrix compete for all targets under the same mechanics as the full
// pipeline, without rerunning the offline decision over every source.
//
// The rows are gathered into one pooled submatrix — a scratch-arena draw,
// so steady-state serving traffic does not allocate a fresh decision
// matrix — and decided by AlignGathered under st (nil selects the pipeline
// default, deferred acceptance). The result is positional: entry p is the
// target chosen for rows[p], -1 if unmatched. Out-of-range and duplicate
// rows are rejected.
//
// Cancellation is cooperative at row granularity during the gather and
// checked once more before the decision.
func AlignRows(ctx context.Context, fused *mat.Dense, rows []int, topK int, st match.Strategy) (match.Assignment, error) {
	if fused == nil {
		return nil, fmt.Errorf("core: AlignRows on nil matrix")
	}
	if err := validateRowSet(rows, fused.Rows); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return match.Assignment{}, nil
	}
	sub := mat.GetDense(len(rows), fused.Cols)
	defer mat.PutDense(sub)
	for p, r := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		copy(sub.Row(p), fused.Row(r))
	}
	return AlignGathered(ctx, sub, topK, st)
}

// AlignRowsSparse is the collective subset decision over the blocked
// pipeline's candidate structure: the selected sources compete for targets
// restricted to their candidate lists. A nil st selects the pipeline
// default, sparse deferred acceptance with the same proposal order and
// tie-breaks as the sparse batch decision (match.SparseDAA); strategies
// without sparse support are rejected. scores is the fused candidate-score
// structure (Result.FusedSparse), aligned with cands. The returned
// assignment is positional: entry p is the global target index chosen for
// rows[p], -1 when the source exhausts its candidates. Out-of-range and
// duplicate rows are rejected as in AlignRows.
func AlignRowsSparse(ctx context.Context, cands blocking.Candidates, scores [][]float64, rows []int, topK int, st match.Strategy) (match.Assignment, error) {
	if st != nil && !st.Caps().Sparse {
		return nil, fmt.Errorf("core: %s assignment needs the dense cost matrix; use the dense pipeline or a sparse decision mode", st.Name())
	}
	if len(cands) != len(scores) {
		return nil, fmt.Errorf("core: AlignRowsSparse: %d candidate rows, %d score rows", len(cands), len(scores))
	}
	if len(rows) == 0 {
		return match.Assignment{}, nil
	}
	if err := validateRowSet(rows, len(cands)); err != nil {
		return nil, err
	}
	subC := make(blocking.Candidates, len(rows))
	subS := make([][]float64, len(rows))
	for p, r := range rows {
		subC[p] = cands[r]
		subS[p] = scores[r]
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st != nil {
		return st.DecideSparse(subC, subS, topK)
	}
	return match.SparseDAA(subC, subS, topK), nil
}
