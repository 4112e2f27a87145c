// Command perfbench is the repository benchmark. It runs one workload —
// offline alignment (align) or the ceaffd daemon under open-loop load
// (serve-hot, serve-cold, fleet) — checks every output, and prints the
// end-to-end metrics, or with -trace 1 the per-layer metrics, as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// this command and cmd/ceaffd from the checkout first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// WORKLOADS.md documents each workload, the layers it exercises and
// bypasses, and every metric.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	// problems lists failed output checks; any makes the run incorrect.
	problems []string
	metrics  map[string]metric
}

func (r *result) set(name, unit string, v float64, samples int) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %s is %v", name, v))
	}
	r.metrics[name] = metric{Value: v, Unit: unit, samples: samples}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// options carries the command line to a workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	ceaffd  string // daemon binary
	work    string // working directory inside the checkout
}

var workloads = map[string]func(context.Context, options) (*result, error){
	"align":      runAlign,
	"serve-hot":  func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, serveHot) },
	"serve-cold": func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, serveCold) },
	"fleet":      func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, serveFleet) },
}

func main() {
	name := flag.String("workload", "", "workload: align, serve-hot, serve-cold or fleet")
	seed := flag.Uint64("seed", 1, "workload seed: drives the corpus, request keys and request order")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead")
	ceaffd := flag.String("ceaffd", ".bench_build/ceaffd", "ceaffd binary built from this checkout")
	work := flag.String("work", ".bench_build/run", "working directory for addresses, logs and spans")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload align|serve-hot|serve-cold|fleet, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	// The load generator owns at most one connection per CPU and the
	// process at most one OS thread per CPU.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, ceaffd: *ceaffd,
		work: filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		fatal(err)
	}
	env := environment(*name, *seed, *trace)
	res, err := run(ctx, opt)
	if err != nil {
		fatal(err)
	}
	if len(res.problems) == 0 {
		list := endToEnd
		if opt.trace {
			list = perLayer
		}
		if err := res.complete(list, opt.trace); err != nil {
			fatal(err)
		}
	}
	report(env, res)
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// environment describes where and what was measured.
func environment(workload string, seed uint64, trace int) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"commit":     sourceDigest("."),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

// sourceDigest identifies the measured code: the SHA-256 of every Go
// source and module file of the checkout, outside build output. Checkouts
// are not always git repositories, so no revision id is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// report prints the environment, a table of every metric with its unit
// and sample count, any failed checks, and last the JSON result line.
func report(env map[string]any, res *result) {
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %14s  %-9s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%-36s %14.4f  %-9s %d\n", n, m.Value, m.Unit, m.samples)
	}
	for _, p := range res.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// peakRSSMiB reads VmHWM, the peak resident set, of process pid ("self"
// for this one) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// since returns seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// endToEnd lists the metrics every untraced run reports, with units.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"max_rps", "1/s"},
	{"accuracy", "fraction"}, {"ok_ratio", "fraction"}, {"peak_rss_mib", "MiB"},
}

// perLayer lists the metrics every traced run reports, with units. A layer
// the workload does not run reads 0 with 0 samples.
var perLayer = [][2]string{
	{"gcn.train_s", "s"}, {"gcn.epoch_ms", "ms"}, {"gcn.alloc_mib", "MiB"}, {"gcn.similarity_s", "s"},
	{"wordvec.embed_s", "s"}, {"mat.cosine_s", "s"},
	{"strsim.matrix_s", "s"}, {"strsim.cells_per_us", "1/us"}, {"strsim.alloc_mib", "MiB"},
	{"fusion.twostage_s", "s"}, {"fusion.alloc_mib", "MiB"}, {"match.da_s", "s"}, {"eval.s", "s"},
	{"core.stage_sum_s", "s"}, {"core.overlap_ratio", "ratio"}, {"runtime.gc_cycles", "count"},
	{"serve.outside_ms", "ms"}, {"serve.queue_ms", "ms"}, {"serve.shed_ratio", "fraction"},
	{"serve.cache.hit_ratio", "fraction"}, {"serve.cache.group_hit_ratio", "fraction"},
	{"serve.cache.admit_ratio", "fraction"}, {"serve.cache.evictions_per_request", "count"},
	{"serve.coalesce.rows_per_batch", "count"},
	{"serve.aligner.calls_per_request", "count"}, {"serve.aligner.rows_per_call", "count"},
	{"serve.aligner.ms", "ms"}, {"serve.aligner.busy_share", "fraction"}, {"serve.handler.self_ms", "ms"},
	{"serve.router.gather_ms", "ms"}, {"serve.router.gathers_per_request", "count"},
	{"serve.router.decide_ms", "ms"}, {"serve.router.hedge_ratio", "fraction"},
	{"serve.router.hedge_win_ratio", "fraction"}, {"serve.router.retries_per_request", "count"},
	{"loadgen.late_ms", "ms"}, {"trace.overhead_ms", "ms"},
}

// complete checks that the result carries exactly the listed metrics with
// their units; with fill, a missing one is a layer the workload does not
// run and reads 0.
func (r *result) complete(list [][2]string, fill bool) error {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	want := map[string]bool{}
	for _, m := range list {
		want[m[0]] = true
		got, ok := r.metrics[m[0]]
		switch {
		case !ok && fill:
			r.metrics[m[0]] = metric{Unit: m[1]}
		case !ok:
			return fmt.Errorf("metric %s not measured", m[0])
		case got.Unit != m[1]:
			return fmt.Errorf("metric %s in %s, want %s", m[0], got.Unit, m[1])
		}
	}
	for n := range r.metrics {
		if !want[n] {
			return fmt.Errorf("metric %s is not listed", n)
		}
	}
	return nil
}
