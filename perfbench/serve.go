package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ceaff/internal/baselines"
	"ceaff/internal/bench"
	"ceaff/internal/core"
)

// serveSpec defines one serving workload. The daemon receives only corpus
// and topology flags, so it runs with every other setting at its default.
type serveSpec struct {
	name    string
	dataset string
	scale   string // -scale flag; empty keeps the daemon default
	blocked bool
	fleet   bool    // a router in front of two replica partitions
	nominal float64 // requests per second of the measured window
	ceiling float64 // top of the capacity ladder, requests per second
	setups  int     // cold starts per run; setup_s is their median
	batch   int     // sources per align request
	// candidates is the share of requests that are candidate lookups.
	candidates float64
	zipf       bool   // Zipf(1.1) keys instead of uniform ones
	strategy   string // per-request strategy; empty is the default
}

var (
	// serveHot: a dense daemon whose 1400 sources fit the 4096-entry
	// result cache; Zipf single-source aligns and 10% candidate lookups.
	serveHot = serveSpec{name: "serve-hot", dataset: bench.DBP15KZhEn, nominal: 800, ceiling: 3200, setups: 3,
		batch: 1, candidates: 0.1, zipf: true}
	// serveCold: a blocked daemon whose 7000 sources exceed the cache;
	// uniform 8-source batches, so groups almost never hit. A cold start
	// takes about 5 s here and 3 s for the fleet, so these two start twice
	// per run where serve-hot starts three times.
	serveCold = serveSpec{name: "serve-cold", dataset: bench.LargeScaleName, scale: "0.02", blocked: true,
		nominal: 150, ceiling: 1200, setups: 2, batch: 8}
	// serveFleet: a router over two replica processes; uniform 8-source
	// batches naming the auction, which is never cached, so every request
	// gathers rows from both partitions over the wire. Its ladder stops at
	// three times the nominal rate, below its capacity on a quiet 2-CPU
	// machine: above that, capacity moved with CPU steal by more than a
	// gate could tolerate.
	serveFleet = serveSpec{name: "fleet", dataset: bench.DBP15KZhEn, fleet: true, nominal: 100, ceiling: 300, setups: 2,
		batch: 8, strategy: "auction"}
)

// corpusFlags are the daemon flags naming the corpus.
func (s serveSpec) corpusFlags() []string {
	f := []string{"-fast", "-dataset", s.dataset}
	if s.scale != "" {
		f = append(f, "-scale", s.scale)
	}
	if s.blocked {
		f = append(f, "-blocked")
	}
	return f
}

// Request phases: each draws its requests from its own seeded stream.
const (
	phaseWarm    = 1
	phaseNominal = 2
	phaseSample  = 3
	phaseRung    = 10 // + rung index
)

const (
	warmSeconds     = 1.0
	rungSeconds     = 1.25
	minRungRequests = 300
	rungPause       = 200 * time.Millisecond
	sampleRequests  = 16
	requestTimeout  = 2 * time.Second
)

// reqGen draws requests for one phase of one seed.
type reqGen struct {
	spec serveSpec
	n    int   // source universe
	perm []int // Zipf rank → source, fixed per seed
	r    *rand.Rand
	zipf *rand.Zipf
}

func newReqGen(spec serveSpec, n int, seed uint64, phase int) *reqGen {
	g := &reqGen{spec: spec, n: n, r: rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(phase)))}
	if spec.zipf {
		g.perm = rand.New(rand.NewSource(int64(seed))).Perm(n)
		g.zipf = rand.NewZipf(g.r, 1.1, 1, uint64(n-1))
	}
	return g
}

func (g *reqGen) key() int {
	if g.zipf != nil {
		return g.perm[g.zipf.Uint64()]
	}
	return g.r.Intn(g.n)
}

func (g *reqGen) next() request {
	if g.spec.candidates > 0 && g.r.Float64() < g.spec.candidates {
		row := g.key()
		return request{path: "/v1/entity/" + strconv.Itoa(row) + "/candidates?k=10", rows: []int{row}, k: 10}
	}
	rows := make([]int, 0, g.spec.batch)
	for len(rows) < g.spec.batch {
		row := g.key()
		dup := false
		for _, x := range rows {
			dup = dup || x == row
		}
		if !dup {
			rows = append(rows, row)
		}
	}
	var b bytes.Buffer
	b.WriteString(`{"sources":[`)
	for i, row := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"` + strconv.Itoa(row) + `"`)
	}
	b.WriteByte(']')
	if g.spec.strategy != "" {
		b.WriteString(`,"strategy":"` + g.spec.strategy + `"`)
	}
	b.WriteByte('}')
	return request{path: "/v1/align", body: b.Bytes(), rows: rows}
}

// requests draws the requests of phase sent at rate for seconds, at least
// atLeast of them.
func requests(spec serveSpec, n int, seed uint64, phase int, rate, seconds float64, atLeast int) []request {
	count := int(math.Ceil(rate * seconds))
	if count < atLeast {
		count = atLeast
	}
	g := newReqGen(spec, n, seed, phase)
	out := make([]request, count)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// corpus regenerates the daemon's corpus in-process, as ceaffd does from
// the same flags, so answers can be checked against it.
func corpus(spec serveSpec) (*core.Input, error) {
	scale := 1.0
	if spec.scale != "" {
		var err error
		if scale, err = strconv.ParseFloat(spec.scale, 64); err != nil {
			return nil, err
		}
	}
	bs, ok := bench.SpecByName(spec.dataset, scale)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", spec.dataset)
	}
	bs.Dim = baselines.FastSettings().Dim // ceaffd -fast
	d, err := bench.Generate(bs)
	if err != nil {
		return nil, err
	}
	return &core.Input{G1: d.G1, G2: d.G2, Seeds: d.SeedPairs, Tests: d.TestPairs, Emb1: d.Emb1, Emb2: d.Emb2}, nil
}

// nominalStats holds what the measured window at the nominal rate gives.
type nominalStats struct {
	p50, okRatio, accuracy      float64
	attempted, failed, answered int
}

// summarize computes the end-to-end serving figures of one window and
// records its failed checks. Accuracy counts each distinct source once,
// by its first answer, so a few hot keys cannot dominate it.
func summarize(r *result, where string, outs []outcome, reqs []request, nSources int) nominalStats {
	lat := latenciesMs(outs)
	st := nominalStats{p50: quantile(lat, 0.5), attempted: len(outs)}
	first := make([]int8, nSources) // 0 unseen, 1 hit, 2 miss
	hits := 0
	for i, o := range outs {
		if o.failed() {
			st.failed++
			if st.failed <= 3 {
				r.problem("%s: request %d (%s): %v", where, i, reqs[i].path, o.err)
			}
			continue
		}
		if reqs[i].body == nil {
			continue
		}
		for p, row := range reqs[i].rows {
			if first[row] != 0 {
				continue
			}
			first[row] = 2
			if o.hits&(1<<p) != 0 {
				first[row] = 1
				hits++
			}
			st.answered++
		}
	}
	if st.failed > 3 {
		r.problem("%s: %d failed requests in all", where, st.failed)
	}
	st.okRatio = float64(st.attempted-st.failed) / float64(st.attempted)
	if st.answered > 0 {
		st.accuracy = float64(hits) / float64(st.answered)
	}
	return st
}

// capped reports a latency percentile, where +Inf (a failure on that
// percentile) reads as the client timeout.
func capped(msv float64) float64 {
	return math.Min(msv, ms(requestTimeout))
}

func runServe(ctx context.Context, opt options, spec serveSpec) (*result, error) {
	in, err := corpus(spec)
	if err != nil {
		return nil, err
	}
	n := len(in.Tests)
	if opt.trace {
		return traceServe(ctx, opt, spec, in)
	}
	r := &result{}
	warm := requests(spec, n, opt.seed, phaseWarm, spec.nominal, warmSeconds, 0)
	nominal := requests(spec, n, opt.seed, phaseNominal, spec.nominal, opt.seconds, 0)
	sample := requests(spec, n, opt.seed, phaseSample, 1, sampleRequests, 0)

	t0 := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "phase %-9s done at %6.1f s\n", name, since(t0))
	}
	var fl *fleet
	defer func() { fl.stop() }()
	// Each start's peak RSS is read before it stops; the last start's after
	// it has served. Their median is steadier than one start's peak, which
	// moves with where the daemon's garbage collections fall.
	setups := make([]float64, spec.setups)
	rss := make([]float64, spec.setups)
	for i := range setups {
		if fl != nil {
			if rss[i-1], err = fl.peakRSS(); err != nil {
				return nil, err
			}
			fl.stop()
		}
		if fl, err = startFleet(ctx, opt, spec); err != nil {
			return nil, err
		}
		setups[i] = fl.setup
	}

	phase("setup")
	check := answerChecker{nTargets: n}.check
	lg := newLoadgen(fl.base, runtime.NumCPU(), requestTimeout, check)
	lg.pauseGC = true
	defer lg.close()
	countWrong(r, "warm-up", lg.run(ctx, warm, spec.nominal))
	outs := lg.run(ctx, nominal, spec.nominal)
	st := summarize(r, "nominal", outs, nominal, n)
	r.attempted, r.failed = st.attempted, st.failed
	// The tail is printed but not reported: on a shared 2-CPU machine its
	// run-to-run spread is far wider than any bound a gate could use.
	lat := latenciesMs(outs)
	fmt.Fprintf(os.Stderr, "nominal %.0f/s: p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f ms; p99 late %.3f ms\n",
		spec.nominal, quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99),
		lat[len(lat)-1], quantile(lateMs(outs), 0.99))
	if late := quantile(dispatchLateMs(outs), 0.99); late > maxDispatchLateMs {
		r.problem("nominal: generator fell behind its schedule: p99 dispatch %.1f ms late", late)
	}

	phase("nominal")
	rates := ladderRates(spec.nominal, spec.ceiling)
	probed, best := searchLadder(rates, func(k int) rung {
		time.Sleep(rungPause)
		reqs := requests(spec, n, opt.seed, phaseRung+k, rates[k], rungSeconds, minRungRequests)
		outs := lg.run(ctx, reqs, rates[k])
		countWrong(r, fmt.Sprintf("ladder %.0f/s", rates[k]), outs)
		return measureRung(rates[k], outs)
	})
	maxRPS := probed[len(probed)-1].Goodput
	if best >= 0 {
		maxRPS = probed[best].Goodput
	}
	for _, p := range probed {
		fmt.Fprintf(os.Stderr, "ladder %8.1f/s p99 %8.2f ms errors %4d backlog %-5v goodput %8.1f/s pass %v\n",
			p.Rate, p.P99ms, p.Errors, p.Backlog, p.Goodput, p.pass())
	}

	phase("ladder")
	got := sampleAnswers(ctx, lg, sample)
	r.attempted += len(sample)
	if rss[len(rss)-1], err = fl.peakRSS(); err != nil {
		return nil, err
	}
	fl.stop()
	fl = nil
	phase("stop")
	if bad := compareReference(ctx, spec, in, sample, got); bad != "" {
		r.failed++
		r.problem("sample: %s", bad)
	}
	phase("reference")

	r.set("setup_s", "s", median(setups), len(setups))
	r.set("p50_ms", "ms", capped(st.p50), st.attempted)
	r.set("max_rps", "1/s", maxRPS, len(probed))
	r.set("accuracy", "fraction", st.accuracy, st.answered)
	r.set("ok_ratio", "fraction", st.okRatio, st.attempted)
	r.set("peak_rss_mib", "MiB", median(rss), len(rss))
	return r, nil
}

// maxDispatchLateMs bounds how late the generator itself may hand a request
// to a connection; beyond it the schedule was not kept and the run is void.
const maxDispatchLateMs = 20

// countWrong records answers that broke the output contract in a phase
// whose latency is not reported (warm-up, ladder). Failures there — shed
// or slow requests above capacity — are expected and only decide the
// ladder rule.
func countWrong(r *result, where string, outs []outcome) {
	for i, o := range outs {
		if o.wrong {
			r.failed++
			r.problem("%s: request %d: %v", where, i, o.err)
		}
	}
}

// sampleAnswers sends the sample one request at a time and returns each
// answer's body; a failed request leaves a nil body, which no reference
// answer matches.
func sampleAnswers(ctx context.Context, lg *loadgen, sample []request) [][]byte {
	got := make([][]byte, len(sample))
	for i := range sample {
		status, _, body, err := lg.roundTrip(ctx, lg.clients[0], &sample[i])
		if err == nil && status == http.StatusOK {
			got[i] = body
		}
	}
	return got
}

// daemon is one running ceaffd process.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	logPath  string
	addrFile string
	base     string
	exited   chan struct{}
}

func startDaemon(opt options, name string, args []string) (*daemon, error) {
	d := &daemon{
		name:     name,
		logPath:  filepath.Join(opt.work, name+".log"),
		addrFile: filepath.Join(opt.work, name+".addr"),
		exited:   make(chan struct{}),
	}
	_ = os.Remove(d.addrFile)
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-addrfile", d.addrFile)
	d.cmd = exec.Command(opt.ceaffd, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// failed describes an early exit with the tail of the daemon's log.
func (d *daemon) failed() error {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return fmt.Errorf("%s exited during start-up: %s", d.name, strings.TrimSpace(string(b)))
}

// waitAddr waits for the daemon to bind and publish its address.
func (d *daemon) waitAddr(ctx context.Context) error {
	for {
		if b, err := os.ReadFile(d.addrFile); err == nil && strings.Contains(string(b), ":") {
			d.base = "http://" + strings.TrimSpace(string(b))
			return nil
		}
		if err := pollWait(ctx, d); err != nil {
			return err
		}
	}
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	for {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := pollWait(ctx, d); err != nil {
			return err
		}
	}
}

const pollInterval = 5 * time.Millisecond

func pollWait(ctx context.Context, d *daemon) error {
	select {
	case <-d.exited:
		return d.failed()
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(pollInterval):
		return nil
	}
}

// stop drains the daemon with SIGTERM, escalating to SIGKILL, and waits
// for it to exit.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// fleet is the set of daemons one workload runs.
type fleet struct {
	procs []*daemon
	base  string  // where clients send requests
	setup float64 // seconds from first start to every process ready
}

const bootTimeout = 120 * time.Second

func startFleet(ctx context.Context, opt options, spec serveSpec) (fl *fleet, err error) {
	ctx, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()
	fl = &fleet{}
	defer func() {
		if err != nil {
			fl.stop()
			fl = nil
		}
	}()
	t := time.Now()
	if !spec.fleet {
		d, err := startDaemon(opt, spec.name, spec.corpusFlags())
		if err != nil {
			return fl, err
		}
		fl.procs = append(fl.procs, d)
	} else {
		var urls []string
		for i := 0; i < 2; i++ {
			args := append(spec.corpusFlags(), "-replica", "-partition", fmt.Sprintf("%d/2", i))
			d, err := startDaemon(opt, fmt.Sprintf("replica%d", i), args)
			if err != nil {
				return fl, err
			}
			fl.procs = append(fl.procs, d)
		}
		for _, d := range fl.procs {
			if err := d.waitAddr(ctx); err != nil {
				return fl, err
			}
			urls = append(urls, d.base)
		}
		d, err := startDaemon(opt, "router", []string{"-router", "-replicas", strings.Join(urls, ",")})
		if err != nil {
			return fl, err
		}
		fl.procs = append(fl.procs, d)
	}
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	for _, d := range fl.procs {
		if err := d.waitAddr(ctx); err != nil {
			return fl, err
		}
		if err := d.waitReady(ctx, c); err != nil {
			return fl, err
		}
	}
	fl.setup = since(t)
	fl.base = fl.procs[len(fl.procs)-1].base
	return fl, nil
}

// peakRSS sums VmHWM over the fleet's processes.
func (fl *fleet) peakRSS() (float64, error) {
	total := 0.0
	for _, d := range fl.procs {
		v, err := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// stop stops every process, router first.
func (fl *fleet) stop() {
	if fl == nil {
		return
	}
	for i := len(fl.procs) - 1; i >= 0; i-- {
		fl.procs[i].stop()
	}
}
