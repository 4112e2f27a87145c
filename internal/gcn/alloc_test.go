package gcn

import (
	"runtime"
	"testing"

	"ceaff/internal/align"
	"ceaff/internal/kg"
)

// steadyTrainer returns a trainer on a pair of n-entity ring graphs with
// chords, past its first epoch (whose forward pass allocates the graphs'
// buffers), and a func that runs one more epoch. Mining is off: its pools
// hold a few indexes per seed by design.
func steadyTrainer(t *testing.T, n int, serial bool) (*trainer, func()) {
	t.Helper()
	chords := make([][2]int, 0, n/5)
	for i := 0; i+7 < n; i += 5 {
		chords = append(chords, [2]int{i, i + 7})
	}
	g1 := ringKG("a", n, chords)
	g2 := ringKG("b", n, chords)
	seeds := make([]align.Pair, 0, n/3)
	for i := 0; i < n; i += 3 {
		seeds = append(seeds, align.Pair{U: kg.EntityID(i), V: kg.EntityID(i)})
	}
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.HardNegativeEvery = 0
	cfg.ForceSerial = serial
	tr, err := newTrainer(g1, g2, seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	epoch := func() {
		if _, err := tr.step(); err != nil {
			t.Fatal(err)
		}
		tr.epoch++
	}
	epoch()
	return tr, epoch
}

// TestEpochAllocationsIndependentOfGraphSize pins the allocation-free epoch
// by count: once the forward buffers exist, every embedding-sized matrix of
// an epoch comes from the scratch arena, so what an epoch still allocates —
// matrix headers, the worker pool's per-block closures, an arena miss —
// does not grow with the graph. An 8× larger graph may cost a few arena
// misses more, never one allocation per row (2100 more here) or per cell.
func TestEpochAllocationsIndependentOfGraphSize(t *testing.T) {
	const slack = 32
	for _, serial := range []bool{false, true} {
		_, small := steadyTrainer(t, 300, serial)
		_, large := steadyTrainer(t, 2400, serial)
		a, b := testing.AllocsPerRun(5, small), testing.AllocsPerRun(5, large)
		if b > a+slack {
			t.Errorf("serial=%v: %v allocations per epoch at 2400 entities vs %v at 300; want at most %d more",
				serial, b, a, slack)
		}
	}
}

// TestEpochAllocatesNoEmbeddingMatrix pins it by volume: a steady-state
// epoch allocates less than half of one n×dim embedding matrix in total.
// Before the forward buffers were kept and the backward temporaries pooled,
// every epoch allocated ten of them.
func TestEpochAllocatesNoEmbeddingMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under -race; the count test above still runs")
	}
	const n, epochs = 2400, 5
	for _, serial := range []bool{false, true} {
		tr, epoch := steadyTrainer(t, n, serial)
		epoch() // let every arena size class fill
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < epochs; i++ {
			epoch()
		}
		runtime.ReadMemStats(&after)
		perEpoch := (after.TotalAlloc - before.TotalAlloc) / epochs
		embedding := uint64(n * tr.cfg.Dim * 8)
		if perEpoch > embedding/2 {
			t.Errorf("serial=%v: %d bytes allocated per epoch; one %dx%d embedding is %d",
				serial, perEpoch, n, tr.cfg.Dim, embedding)
		}
	}
}
