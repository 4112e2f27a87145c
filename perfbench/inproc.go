package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ceaff/internal/align"
	"ceaff/internal/baselines"
	"ceaff/internal/blocking"
	"ceaff/internal/core"
	"ceaff/internal/obs"
	"ceaff/internal/serve"
)

// buildEngine builds in-process the engine ceaffd builds from spec's
// corpus flags, with the daemon's default settings: dense (*serve.Engine),
// or blocked with token and neighbour blocking padded to 20 candidates.
func buildEngine(ctx context.Context, spec serveSpec, in *core.Input) (serve.Aligner, error) {
	cfg := core.DefaultConfig()
	cfg.GCN = baselines.FastSettings().GCN // ceaffd -fast
	if !spec.blocked {
		return serve.NewEngine(ctx, in, cfg)
	}
	srcNames := namesOf(in.G1, align.SourceIDs(in.Tests))
	tgtNames := namesOf(in.G2, align.TargetIDs(in.Tests))
	b := &blocking.Blocker{
		Generators: []blocking.Generator{
			blocking.NewTokenIndex(srcNames, tgtNames, 0),
			blocking.NewNeighborExpansion(in.G1, in.G2, in.Seeds, in.Tests),
		},
		NumTargets:    len(in.Tests),
		MinCandidates: 20,
		Seed:          11,
	}
	return serve.NewSparseEngine(ctx, in, cfg, b.Generate())
}

// compareReference answers the sample from an in-process engine built from
// the same corpus and compares each body byte for byte with the daemon's
// answer; it returns a description of the first mismatch, or "".
func compareReference(ctx context.Context, spec serveSpec, in *core.Input, sample []request, got [][]byte) string {
	a, err := buildEngine(ctx, spec, in)
	if err != nil {
		return fmt.Sprintf("build the reference engine: %v", err)
	}
	srv := serve.NewServer(serve.DefaultServerConfig(), nil)
	srv.SetAligner(a)
	h := srv.Handler()
	for i := range sample {
		method, body := http.MethodGet, []byte(nil)
		if sample[i].body != nil {
			method, body = http.MethodPost, sample[i].body
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, sample[i].path, bytes.NewReader(body)))
		if got[i] == nil || rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), got[i]) {
			return fmt.Sprintf("request %d (%s %s): daemon answered %.300q, in-process engine %d %.300q",
				i, sample[i].path, sample[i].body, got[i], rec.Code, rec.Body.Bytes())
		}
	}
	return ""
}

// layerStats accumulates the timing shims' measurements. The shims time
// only while on is set.
type layerStats struct {
	on     atomic.Bool
	tr     *tracer
	parent atomic.Int64 // span the shims' spans hang under

	calls, rows, alignNanos atomic.Int64
	gathers, gatherNanos    atomic.Int64
	decideNanos             atomic.Int64 // aligner time outside its gathers
}

func (ls *layerStats) reset() {
	for _, c := range []*atomic.Int64{&ls.calls, &ls.rows, &ls.alignNanos, &ls.gathers, &ls.gatherNanos, &ls.decideNanos} {
		c.Store(0)
	}
}

// callKey carries the aligner call's gather record to the transport shim.
type callKey struct{}

// callRecord collects the gather intervals one aligner call caused.
type callRecord struct {
	span int
	mu   sync.Mutex
	iv   [][2]time.Time
}

// covered returns the length of the union of the recorded intervals.
func (c *callRecord) covered() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(c.iv, func(a, b int) bool { return c.iv[a][0].Before(c.iv[b][0]) })
	var total time.Duration
	var end time.Time
	for _, iv := range c.iv {
		if iv[0].After(end) {
			end = iv[0]
		}
		if iv[1].After(end) {
			total += iv[1].Sub(end)
			end = iv[1]
		}
	}
	return total
}

// alignerShim times every collective call into the installed Aligner. It
// forwards grouped calls exactly as the server's coalescer would make them.
type alignerShim struct {
	serve.Aligner
	ls *layerStats
}

func (s *alignerShim) timed(ctx context.Context, rows int, fn func(context.Context) error) error {
	if !s.ls.on.Load() {
		return fn(ctx)
	}
	rec := &callRecord{span: s.ls.tr.begin("serve.Aligner", int(s.ls.parent.Load()))}
	start := time.Now()
	err := fn(context.WithValue(ctx, callKey{}, rec))
	d := time.Since(start)
	s.ls.tr.end(rec.span)
	s.ls.calls.Add(1)
	s.ls.rows.Add(int64(rows))
	s.ls.alignNanos.Add(int64(d))
	s.ls.decideNanos.Add(int64(d - rec.covered()))
	return err
}

func (s *alignerShim) AlignCollective(ctx context.Context, rows []int, strategy string) (out []serve.Decision, err error) {
	err = s.timed(ctx, len(rows), func(ctx context.Context) error {
		out, err = s.Aligner.AlignCollective(ctx, rows, strategy)
		return err
	})
	return out, err
}

func (s *alignerShim) AlignCollectiveGroups(ctx context.Context, groups [][]int, strategies []string) (out [][]serve.Decision, err error) {
	rows := 0
	for _, g := range groups {
		rows += len(g)
	}
	err = s.timed(ctx, rows, func(ctx context.Context) error {
		if ga, ok := s.Aligner.(serve.GroupAligner); ok {
			out, err = ga.AlignCollectiveGroups(ctx, groups, strategies)
			return err
		}
		out = make([][]serve.Decision, len(groups))
		for i, g := range groups {
			strategy := ""
			if len(strategies) != 0 {
				strategy = strategies[i]
			}
			if out[i], err = s.Aligner.AlignCollective(ctx, g, strategy); err != nil {
				return err
			}
		}
		return nil
	})
	return out, err
}

// transportShim times every row gather a router makes.
type transportShim struct {
	serve.Transport
	ls *layerStats
}

func (t *transportShim) Gather(ctx context.Context, wantVersion uint64, rows []int, withFeatures bool) (*serve.ShardRows, error) {
	if !t.ls.on.Load() {
		return t.Transport.Gather(ctx, wantVersion, rows, withFeatures)
	}
	start := time.Now()
	sr, err := t.Transport.Gather(ctx, wantVersion, rows, withFeatures)
	end := time.Now()
	t.ls.gathers.Add(1)
	t.ls.gatherNanos.Add(int64(end.Sub(start)))
	parent := int(t.ls.parent.Load())
	if rec, ok := ctx.Value(callKey{}).(*callRecord); ok {
		rec.mu.Lock()
		rec.iv = append(rec.iv, [2]time.Time{start, end})
		rec.mu.Unlock()
		parent = rec.span
	}
	t.ls.tr.record("serve.Transport.Gather", parent, start, end)
	return sr, err
}

// inproc is an in-process topology serving on loopback.
type inproc struct {
	srv     *serve.Server
	shim    *alignerShim
	router  *serve.Router
	servers []*serve.Server
	serving sync.WaitGroup // one per Serve loop
	base    string
}

func (p *inproc) version() uint64 {
	if p.router != nil {
		return p.router.Version()
	}
	return 0
}

// close stops the router's probe loop and every server, and waits for
// their Serve loops to return.
func (p *inproc) close() {
	if p.router != nil {
		p.router.Close()
	}
	for _, s := range p.servers {
		_ = s.Close()
	}
	p.serving.Wait()
}

// listen serves s on a loopback port until close.
func (p *inproc) listen(s *serve.Server) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	p.serving.Add(1)
	go func() {
		defer p.serving.Done()
		_ = s.Serve(l)
	}()
	return "http://" + l.Addr().String(), nil
}

// startInproc builds spec's topology through serve's public constructors,
// with the timing shims installed and the benchmark's registry.
func startInproc(ctx context.Context, spec serveSpec, in *core.Input, reg *obs.Registry, ls *layerStats) (p *inproc, err error) {
	a, err := buildEngine(ctx, spec, in)
	if err != nil {
		return nil, err
	}
	p = &inproc{}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	p.srv = serve.NewServer(serve.DefaultServerConfig(), reg)
	p.servers = append(p.servers, p.srv)
	if !spec.fleet {
		p.shim = &alignerShim{Aligner: a, ls: ls}
		p.srv.SetAligner(p.shim)
	} else {
		var transports []serve.Transport
		for i := 0; i < 2; i++ {
			part, err := serve.NewPartition(a.(*serve.Engine), i, 2)
			if err != nil {
				return p, err
			}
			rs := serve.NewServer(serve.DefaultServerConfig(), nil)
			rs.SetPartition(part)
			rs.SetAligner(part)
			p.servers = append(p.servers, rs)
			base, err := p.listen(rs)
			if err != nil {
				return p, err
			}
			transports = append(transports, &transportShim{
				Transport: &serve.HTTPTransport{Base: base, Client: &http.Client{}}, ls: ls})
		}
		rcfg := serve.DefaultRouterConfig()
		rcfg.OnVersion = func(v uint64) { p.srv.Publish(p.shim, v) }
		if p.router, err = serve.NewRouter(ctx, rcfg, transports, reg); err != nil {
			return p, err
		}
		p.shim = &alignerShim{Aligner: p.router, ls: ls}
		p.srv.Publish(p.shim, p.router.Version())
		p.router.Start(ctx)
	}
	p.base, err = p.listen(p.srv)
	return p, err
}

// snapshot reads the registry figures the per-layer metrics difference.
type snapshot struct {
	c map[string]int64
	h map[string]obs.HistogramStats
}

var (
	snapCounters = []string{"serve.shed", "serve.cache.hits", "serve.cache.misses", "serve.cache.group_hits",
		"serve.cache.admitted", "serve.cache.rejected", "serve.cache.evictions", "serve.coalesce.rows",
		"serve.coalesce.batches", "serve.replica.hedges", "serve.replica.hedge_wins", "serve.replica.retries"}
	snapHists = []string{"serve.request.seconds", "serve.queue.seconds"}
)

func takeSnapshot(reg *obs.Registry) snapshot {
	s := snapshot{c: map[string]int64{}, h: map[string]obs.HistogramStats{}}
	for _, n := range snapCounters {
		s.c[n] = reg.Counter(n).Value()
	}
	for _, n := range snapHists {
		s.h[n] = reg.Histogram(n).Stats()
	}
	return s
}

// delta is the registry's change between two snapshots: counter increments,
// and per histogram the count and sum added. Histogram quantiles are not
// used; they stop moving once a histogram holds its sample cap.
type delta struct {
	c     map[string]float64
	count map[string]float64
	sum   map[string]float64
}

func diff(a, b snapshot) delta {
	d := delta{c: map[string]float64{}, count: map[string]float64{}, sum: map[string]float64{}}
	for n := range b.c {
		d.c[n] = float64(b.c[n] - a.c[n])
	}
	for n := range b.h {
		d.count[n] = float64(b.h[n].Count - a.h[n].Count)
		d.sum[n] = b.h[n].Sum - a.h[n].Sum
	}
	return d
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceServe replays the nominal-rate schedule against an in-process
// server twice — shims off, then on — and reports the per-layer metrics
// of the traced pass.
func traceServe(ctx context.Context, opt options, spec serveSpec, in *core.Input) (*result, error) {
	r := &result{}
	n := len(in.Tests)
	reg := obs.NewRegistry()
	tr := newTracer()
	ls := &layerStats{tr: tr}
	ls.parent.Store(-1)
	p, err := startInproc(ctx, spec, in, reg, ls)
	if err != nil {
		return nil, err
	}
	defer p.close()

	warm := requests(spec, n, opt.seed, phaseWarm, spec.nominal, warmSeconds, 0)
	nominal := requests(spec, n, opt.seed, phaseNominal, spec.nominal, opt.seconds, 0)
	lg := newLoadgen(p.base, runtime.NumCPU(), requestTimeout, answerChecker{nTargets: n}.check)
	defer lg.close()
	pass := func(traced bool) ([]outcome, snapshot, snapshot, time.Duration) {
		ls.on.Store(false)
		p.srv.Publish(p.shim, p.version()) // empties the result cache
		countWrong(r, "warm-up", lg.run(ctx, warm, spec.nominal))
		ls.reset()
		ls.on.Store(traced)
		root := tr.begin(fmt.Sprintf("replay traced=%v", traced), -1)
		ls.parent.Store(int64(root))
		before := takeSnapshot(reg)
		t := time.Now()
		outs := lg.run(ctx, nominal, spec.nominal)
		wall := time.Since(t)
		after := takeSnapshot(reg)
		tr.end(root)
		ls.on.Store(false)
		return outs, before, after, wall
	}
	plain, _, _, _ := pass(false)
	outs, before, after, wall := pass(true)
	stPlain := summarize(r, "untraced replay", plain, nominal, n)
	st := summarize(r, "traced replay", outs, nominal, n)
	r.attempted, r.failed = stPlain.attempted+st.attempted, stPlain.failed+st.failed

	d := diff(before, after)
	reqs := float64(len(outs))
	var sentToDone float64
	ok := 0
	for _, o := range outs {
		if !o.failed() {
			sentToDone += ms(o.done - o.sent)
			ok++
		}
	}
	serverMs := ratio(d.sum["serve.request.seconds"], d.count["serve.request.seconds"]) * 1000
	calls := float64(ls.calls.Load())
	alignMs := float64(ls.alignNanos.Load()) / 1e6
	gathers := float64(ls.gathers.Load())
	multi := 0.0
	if spec.batch > 1 && spec.strategy == "" {
		for _, q := range nominal {
			if q.body != nil {
				multi++
			}
		}
	}

	r.set("serve.outside_ms", "ms", ratio(sentToDone, float64(ok))-serverMs, ok)
	r.set("serve.queue_ms", "ms", ratio(d.sum["serve.queue.seconds"], d.count["serve.queue.seconds"])*1000,
		int(d.count["serve.queue.seconds"]))
	r.set("serve.shed_ratio", "fraction", d.c["serve.shed"]/reqs, len(outs))
	r.set("serve.cache.hit_ratio", "fraction",
		ratio(d.c["serve.cache.hits"], d.c["serve.cache.hits"]+d.c["serve.cache.misses"]),
		int(d.c["serve.cache.hits"]+d.c["serve.cache.misses"]))
	r.set("serve.cache.group_hit_ratio", "fraction", ratio(d.c["serve.cache.group_hits"], multi), int(multi))
	r.set("serve.cache.admit_ratio", "fraction",
		ratio(d.c["serve.cache.admitted"], d.c["serve.cache.admitted"]+d.c["serve.cache.rejected"]),
		int(d.c["serve.cache.admitted"]+d.c["serve.cache.rejected"]))
	r.set("serve.cache.evictions_per_request", "count", d.c["serve.cache.evictions"]/reqs, len(outs))
	r.set("serve.coalesce.rows_per_batch", "count",
		ratio(d.c["serve.coalesce.rows"], d.c["serve.coalesce.batches"]), int(d.c["serve.coalesce.batches"]))
	r.set("serve.aligner.calls_per_request", "count", calls/reqs, len(outs))
	r.set("serve.aligner.rows_per_call", "count", ratio(float64(ls.rows.Load()), calls), int(calls))
	r.set("serve.aligner.ms", "ms", ratio(alignMs, calls), int(calls))
	r.set("serve.aligner.busy_share", "fraction", alignMs/ms(wall), int(calls))
	r.set("serve.handler.self_ms", "ms", serverMs-alignMs/reqs, len(outs))
	r.set("serve.router.gather_ms", "ms", ratio(float64(ls.gatherNanos.Load())/1e6, gathers), int(gathers))
	r.set("serve.router.gathers_per_request", "count", gathers/reqs, len(outs))
	if p.router != nil {
		r.set("serve.router.decide_ms", "ms", ratio(float64(ls.decideNanos.Load())/1e6, calls), int(calls))
	}
	r.set("serve.router.hedge_ratio", "fraction", ratio(d.c["serve.replica.hedges"], gathers), int(gathers))
	r.set("serve.router.hedge_win_ratio", "fraction",
		ratio(d.c["serve.replica.hedge_wins"], d.c["serve.replica.hedges"]), int(d.c["serve.replica.hedges"]))
	r.set("serve.router.retries_per_request", "count", d.c["serve.replica.retries"]/reqs, len(outs))
	r.set("loadgen.late_ms", "ms", quantile(lateMs(outs), 0.99), len(outs))
	r.set("trace.overhead_ms", "ms", capped(st.p50)-capped(stPlain.p50), len(outs))
	return r, tr.write(filepath.Join(opt.work, "spans.json"))
}
