package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"ceaff/internal/align"
	"ceaff/internal/bench"
	"ceaff/internal/core"
	"ceaff/internal/eval"
	"ceaff/internal/fusion"
	"ceaff/internal/gcn"
	"ceaff/internal/kg"
	"ceaff/internal/mat"
	"ceaff/internal/match"
	"ceaff/internal/rng"
	"ceaff/internal/strsim"
	"ceaff/internal/wordvec"
)

// The align workload: core.RunContext with core.DefaultConfig on the
// generated HARD DBP-WD* pair at scale 2 (900 seeds, 2100 test pairs).
// GCN training and the string feature both sit on the critical path, all
// three features carry fusion weight, and accuracy stays well below 1, so
// a speed-up that costs quality shows.
const (
	alignDataset = bench.HardMonoName
	alignScale   = 2
	alignSetups  = 9
)

// alignInput generates the corpus and splits its gold pairs into seed and
// test alignments by seed, as ceaffd -splitseed does for a loaded corpus.
// The graphs and names stay fixed, so seeds move accuracy and run time
// far less than regenerating the whole pair would.
func alignInput(seed uint64) (*core.Input, error) {
	spec, ok := bench.SpecByName(alignDataset, alignScale)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", alignDataset)
	}
	d, err := bench.Generate(spec)
	if err != nil {
		return nil, err
	}
	seeds, tests := align.Split(d.Gold, spec.SeedFrac, rng.New(seed))
	return &core.Input{G1: d.G1, G2: d.G2, Seeds: seeds, Tests: tests, Emb1: d.Emb1, Emb2: d.Emb2}, nil
}

// alignRun is one timed core.RunContext.
type alignRun struct {
	res      *core.Result
	seconds  float64
	gcCycles uint32
}

func runPipeline(ctx context.Context, in *core.Input, cfg core.Config) (alignRun, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	res, err := core.RunContext(ctx, in, cfg)
	secs := since(t)
	runtime.ReadMemStats(&after)
	return alignRun{res: res, seconds: secs, gcCycles: after.NumGC - before.NumGC}, err
}

// checkAlignResult applies the output checks to one pipeline result.
func checkAlignResult(r *result, run alignRun, first *alignRun) {
	if err := match.Validate(run.res.Fused, run.res.Assignment); err != nil {
		r.problem("align: %v", err)
	}
	if first != nil && math.Float64bits(run.res.Accuracy) != math.Float64bits(first.res.Accuracy) {
		r.problem("align: accuracy %v differs from the first run's %v", run.res.Accuracy, first.res.Accuracy)
	}
	if len(run.res.Degraded) > 0 {
		r.problem("align: features degraded: %+v", run.res.Degraded)
	}
}

func runAlign(ctx context.Context, opt options) (*result, error) {
	r := &result{}
	var in *core.Input
	setups := make([]float64, alignSetups)
	for i := range setups {
		t := time.Now()
		var err error
		if in, err = alignInput(opt.seed); err != nil {
			return nil, err
		}
		setups[i] = since(t)
	}
	if opt.trace {
		return r, traceAlign(ctx, opt, in, r)
	}
	cfg := core.DefaultConfig()
	var runs []alignRun
	var secs []float64
	start := time.Now()
	for len(runs) < 2 || since(start) < opt.seconds {
		run, err := runPipeline(ctx, in, cfg)
		r.attempted++
		if err != nil {
			r.failed++
			r.problem("align: %v", err)
			break
		}
		var first *alignRun
		if len(runs) > 0 {
			first = &runs[0]
		}
		checkAlignResult(r, run, first)
		runs = append(runs, run)
		secs = append(secs, run.seconds)
	}
	if len(runs) == 0 {
		return r, nil
	}
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	p50 := median(secs)
	n := len(runs)
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("p50_ms", "ms", p50*1000, n)
	r.set("max_rps", "1/s", float64(len(in.Tests))/p50, n)
	r.set("accuracy", "fraction", runs[0].res.Accuracy, len(in.Tests))
	r.set("ok_ratio", "fraction", float64(n)/float64(r.attempted), r.attempted)
	r.set("peak_rss_mib", "MiB", rss, 1)
	return r, nil
}

// traceAlign runs the pipeline once untraced, then calls each stage's
// public function one at a time on the same input, in the order core
// uses, with a span and an allocation delta around each call.
func traceAlign(ctx context.Context, opt options, in *core.Input, r *result) error {
	cfg := core.DefaultConfig()
	run, err := runPipeline(ctx, in, cfg)
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("align: %v", err)
		return nil
	}
	checkAlignResult(r, run, nil)
	untracedAcc := run.res.Accuracy
	run.res = nil

	tr := newTracer()
	root := tr.begin("align.stages", -1)
	var stageSum time.Duration
	var allocMiB float64
	// stage times fn under a span and returns its duration; allocMiB
	// receives the bytes it allocated.
	stage := func(name string, fn func() error) (time.Duration, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id := tr.begin(name, root)
		err := fn()
		d := tr.end(id)
		runtime.ReadMemStats(&after)
		allocMiB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		stageSum += d
		return d, err
	}

	testSrc, testTgt := align.SourceIDs(in.Tests), align.TargetIDs(in.Tests)
	seedSrc, seedTgt := align.SourceIDs(in.Seeds), align.TargetIDs(in.Seeds)
	srcNames, tgtNames := namesOf(in.G1, testSrc), namesOf(in.G2, testTgt)
	seedSrcNames, seedTgtNames := namesOf(in.G1, seedSrc), namesOf(in.G2, seedTgt)

	var model *gcn.Model
	train, err := stage("gcn.TrainContext", func() (err error) {
		model, err = gcn.TrainContext(ctx, in.G1, in.G2, in.Seeds, cfg.GCN)
		return err
	})
	if err != nil {
		return err
	}
	gcnAlloc := allocMiB
	var ms *mat.Dense
	simDur, _ := stage("gcn.CenteredSimilarityMatrix", func() error {
		ms = model.CenteredSimilarityMatrix(testSrc, testTgt)
		model.CenteredSimilarityMatrix(seedSrc, seedTgt)
		return nil
	})
	model = nil

	var n1, n2 *mat.Dense
	embed1, _ := stage("wordvec.NameEmbedding", func() error {
		n1 = wordvec.NameEmbedding(in.Emb1, srcNames)
		n2 = wordvec.NameEmbedding(in.Emb2, tgtNames)
		return nil
	})
	var mn *mat.Dense
	cos1, err := stage("mat.CosineSimCtx", func() (err error) {
		mn, err = mat.CosineSimCtx(ctx, n1, n2)
		return err
	})
	if err != nil {
		return err
	}
	var sn1, sn2 *mat.Dense
	embed2, _ := stage("wordvec.NameEmbedding", func() error {
		sn1 = wordvec.NameEmbedding(in.Emb1, seedSrcNames)
		sn2 = wordvec.NameEmbedding(in.Emb2, seedTgtNames)
		return nil
	})
	cos2, err := stage("mat.CosineSimCtx", func() error {
		_, err := mat.CosineSimCtx(ctx, sn1, sn2)
		return err
	})
	if err != nil {
		return err
	}

	var ml *mat.Dense
	strDur, err := stage("strsim.MatrixCtx", func() (err error) {
		if ml, err = strsim.MatrixCtx(ctx, srcNames, tgtNames); err != nil {
			return err
		}
		_, err = strsim.MatrixCtx(ctx, seedSrcNames, seedTgtNames)
		return err
	})
	if err != nil {
		return err
	}
	strAlloc := allocMiB
	cells := float64(len(srcNames)*len(tgtNames) + len(seedSrcNames)*len(seedTgtNames))

	var fused *mat.Dense
	fuseDur, _ := stage("fusion.TwoStage", func() error {
		fused = fusion.TwoStage(ms, mn, ml, cfg.FusionOpts).Fused
		return nil
	})
	fuseAlloc := allocMiB

	st, err := core.StrategyFor(cfg.Decision)
	if err != nil {
		return err
	}
	var asn match.Assignment
	daDur, _ := stage("match.Strategy.Decide", func() error {
		asn = st.Decide(fused, cfg.PreferenceTopK)
		return nil
	})
	var acc float64
	evalDur, _ := stage("eval", func() error {
		acc = eval.Accuracy(asn)
		eval.Ranking(fused)
		eval.PrecisionRecall(asn)
		return nil
	})
	total := tr.end(root)
	if math.Float64bits(acc) != math.Float64bits(untracedAcc) {
		r.problem("align: stage-by-stage accuracy %v differs from the pipeline's %v", acc, untracedAcc)
	}

	s := func(d time.Duration) float64 { return d.Seconds() }
	r.set("gcn.train_s", "s", s(train), 1)
	r.set("gcn.epoch_ms", "ms", s(train)*1000/float64(cfg.GCN.Epochs), cfg.GCN.Epochs)
	r.set("gcn.alloc_mib", "MiB", gcnAlloc, 1)
	r.set("gcn.similarity_s", "s", s(simDur), 2)
	r.set("wordvec.embed_s", "s", s(embed1+embed2), 4)
	r.set("mat.cosine_s", "s", s(cos1+cos2), 2)
	r.set("strsim.matrix_s", "s", s(strDur), 2)
	r.set("strsim.cells_per_us", "1/us", cells/float64(strDur.Microseconds()), 2)
	r.set("strsim.alloc_mib", "MiB", strAlloc, 1)
	r.set("fusion.twostage_s", "s", s(fuseDur), 1)
	r.set("fusion.alloc_mib", "MiB", fuseAlloc, 1)
	r.set("match.da_s", "s", s(daDur), 1)
	r.set("eval.s", "s", s(evalDur), 1)
	r.set("core.stage_sum_s", "s", s(stageSum), 1)
	r.set("core.overlap_ratio", "ratio", s(stageSum)/run.seconds, 1)
	r.set("runtime.gc_cycles", "count", float64(run.gcCycles), 1)
	// The traced run's own cost: wall time of the stage sequence spent
	// outside the stage spans (MemStats reads and span bookkeeping).
	r.set("trace.overhead_ms", "ms", (total-stageSum).Seconds()*1000, 1)
	return tr.write(filepath.Join(opt.work, "spans.json"))
}

func namesOf(g *kg.KG, ids []kg.EntityID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.EntityName(id)
	}
	return out
}
