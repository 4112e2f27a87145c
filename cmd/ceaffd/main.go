// Command ceaffd is the fault-tolerant alignment serving daemon: it loads
// a corpus (or synthesizes a benchmark pair), runs the offline CEAFF
// pipeline once at startup, and serves per-entity alignment queries over
// HTTP with admission control, per-request deadlines, a circuit breaker
// with greedy fallback, per-request panic isolation and graceful drain.
//
// Usage:
//
//	ceaffd [-addr 127.0.0.1:8080] [-addrfile path]
//	       [-dataset "SRPRS EN-FR*"] [-scale 1.0] [-fast]
//	       [-load dir] [-vec1 file.vec] [-vec2 file.vec] [-seedfrac 0.3]
//	       [-topk 0] [-decision collective|independent|greedy11|hungarian|auction]
//	       [-max-inflight 16] [-max-queue 64]
//	       [-default-timeout 5s] [-max-timeout 30s] [-drain-timeout 15s]
//	       [-breaker-window 20] [-breaker-threshold 0.5] [-breaker-cooldown 10s]
//	       [-wal path] [-rebuild-threshold 1] [-rebuild-interval 0]
//	       [-cache-size 4096]
//	       [-shards 0]
//	       [-replica -partition i/N]
//	       [-router -replicas url1,...,urlN] [-probe-interval 1s]
//	       [-gather-timeout 2s] [-replica-retries 3]
//	       [-replica-breaker-cooldown 2s] [-hedge-delay 0] [-no-hedge]
//	       [-boot-timeout 120s]
//	       [-blocked] [-min-candidates 20] [-stop-threshold 0]
//	       [-lsh-tables 0] [-lsh-bits 12] [-max-bucket 0] [-max-seed-fanout 0]
//
// Endpoints:
//
//	POST /v1/align                      {"sources": ["idx-or-name", ...],
//	                                     "strategy": "da|greedy|greedy11|hungarian|auction"}
//	POST /v1/mutate                     {"mutations": [{"op": "add_triple", ...}]}
//	GET  /v1/entity/{id}/candidates?k=10
//	GET  /healthz    liveness (200 from process start)
//	GET  /readyz     readiness (200 once the offline pipeline finished,
//	                 503 while warming up or draining; the body reports
//	                 engine_version and stale)
//	GET  /metrics    JSON snapshot of the obs registry
//
// The daemon serves /healthz immediately and flips /readyz once the
// offline pipeline completes. SIGTERM/SIGINT starts a graceful drain:
// the listener closes, in-flight requests finish under -drain-timeout,
// and the process exits 0; if the drain deadline passes, connections are
// force-closed and it exits 1.
//
// The heavy-traffic path: every /v1/align request runs its own collective
// decision on its handler goroutine, under its own deadline; single-source
// answers, the matched unilateral rows of multi-source batches and
// candidate lists land in a -cache-size LRU keyed by engine version
// (invalidated wholesale on hot-swap); responses are encoded through the
// arena-backed zero-allocation encoder. With -shards N, the source space
// is partitioned across N consistent-hash partitions served in process by
// the same Router as -router mode, each partition behind a local
// transport; answers stay bit-identical to the unsharded engine. With
// -blocked, the candidate-first pipeline builds a sparse engine
// (token/neighbour/LSH blocking, candidate-local scores) — serving from
// Result.FusedSparse in O(|test|·candidates) memory. -blocked and -shards
// are mutually exclusive, and neither supports -wal yet.
//
// The replicated path runs shards as separate processes. A replica
// (-replica -partition i/N) builds the corpus, keeps its slice of the
// source space, and serves the framed binary row-gather protocol on
// POST /v1/shard alongside the ordinary query surface. A router
// (-router -replicas url1,...,urlN) builds no engine: it verifies the
// fleet is coherent (one split, one corpus, one engine version), gathers
// rows over the wire and makes every collective decision centrally —
// byte-identical to the unsharded engine. Per replica it runs health
// probes (-probe-interval), a circuit breaker
// (-replica-breaker-cooldown), deadlines carved from the remaining
// request budget (-gather-timeout), bounded retries (-replica-retries)
// and hedged second requests to standby replicas (-hedge-delay,
// -no-hedge; duplicate partition announcements in -replicas are
// standbys). A partition lost past retry exhaustion degrades the answer
// (200 + Engine-Partial + "degraded":true rows) instead of failing it,
// and a new engine version is adopted only once the whole fleet agrees.
//
// With -wal, the engine accepts online mutations: POST /v1/mutate batches
// are validated, appended to the durable CRC-framed log at the given path
// (acknowledged only after fsync), and a background loop rebuilds the
// engine — warm-started from the GCN checkpoint persisted next to the WAL
// — once -rebuild-threshold mutations are pending (or on every
// -rebuild-interval tick). On boot the WAL is replayed over the freshly
// built base corpus, so a crash at any point recovers every acknowledged
// mutation deterministically. The WAL is bound to the base corpus: reuse
// the same -dataset/-scale/-splitseed (or -load) flags across restarts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ceaff/internal/align"
	"ceaff/internal/baselines"
	"ceaff/internal/bench"
	"ceaff/internal/blocking"
	"ceaff/internal/core"
	"ceaff/internal/dataio"
	"ceaff/internal/gcn"
	"ceaff/internal/kg"
	"ceaff/internal/mat"
	"ceaff/internal/obs"
	"ceaff/internal/rng"
	"ceaff/internal/robust"
	"ceaff/internal/serve"
	"ceaff/internal/wal"
	"ceaff/internal/wordvec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ceaffd: ")

	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file once listening")
	dataset := flag.String("dataset", bench.SRPRSEnFr, "standard dataset name to synthesize")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	fast := flag.Bool("fast", false, "use small test-grade substrate settings")
	load := flag.String("load", "", "load an OpenEA-layout corpus directory instead of generating")
	vec1 := flag.String("vec1", "", "word embeddings (.vec) for the source KG's language")
	vec2 := flag.String("vec2", "", "word embeddings (.vec) for the target KG's language")
	seedFrac := flag.Float64("seedfrac", 0.3, "seed fraction when the corpus has no predefined split")
	splitSeed := flag.Uint64("splitseed", 1, "PRNG seed for the seed/test split")
	topK := flag.Int("topk", 0, "preference-list truncation for collective queries (0 = full lists)")
	decision := flag.String("decision", "collective", "offline EA decision: collective, independent, greedy11, hungarian or auction")
	maxInFlight := flag.Int("max-inflight", 16, "maximum concurrently executing alignment requests")
	maxQueue := flag.Int("max-queue", 64, "maximum requests waiting for a slot before shedding")
	defaultTimeout := flag.Duration("default-timeout", 5*time.Second, "per-request deadline when the client sends no X-Deadline-Ms budget")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "upper bound on client-requested budgets")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-drain deadline after SIGTERM/SIGINT")
	breakerWindow := flag.Int("breaker-window", 20, "circuit-breaker sliding-window size")
	breakerThreshold := flag.Float64("breaker-threshold", 0.5, "failure fraction that opens the breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "open-state cooldown before the half-open probe")
	walPath := flag.String("wal", "", "durable mutation log path; enables POST /v1/mutate")
	rebuildThreshold := flag.Int("rebuild-threshold", 1, "pending mutations that trigger a background rebuild")
	rebuildInterval := flag.Duration("rebuild-interval", 0, "periodic drain of sub-threshold pending mutations (0 = threshold only)")
	cacheSize := flag.Int("cache-size", 4096, "versioned LRU result-cache entries (0 = off)")
	shards := flag.Int("shards", 0, "partition the source space across N consistent-hash partitions served in process by the router (0 = unsharded)")
	replica := flag.Bool("replica", false, "serve one partition of the source space and the binary row-gather protocol")
	partition := flag.String("partition", "", "replica: which slice to own, as i/N (e.g. 0/3)")
	router := flag.Bool("router", false, "route queries across remote replica processes instead of building an engine")
	replicas := flag.String("replicas", "", "router: comma-separated replica base URLs (http://host:port)")
	probeInterval := flag.Duration("probe-interval", time.Second, "router: replica health-probe cadence")
	gatherTimeout := flag.Duration("gather-timeout", 2*time.Second, "router: per-try gather budget when the request has no deadline")
	replicaRetries := flag.Int("replica-retries", 3, "router: gather attempts per partition per request")
	replicaBreakerCooldown := flag.Duration("replica-breaker-cooldown", 2*time.Second, "router: per-replica breaker open-state cooldown")
	hedgeDelay := flag.Duration("hedge-delay", 0, "router: fixed hedged-request delay (0 = p95-derived)")
	noHedge := flag.Bool("no-hedge", false, "router: disable hedged second requests")
	bootTimeout := flag.Duration("boot-timeout", 120*time.Second, "router: how long to wait for replicas to come up")
	blocked := flag.Bool("blocked", false, "build the engine with the candidate-first blocked pipeline")
	minCandidates := flag.Int("min-candidates", 20, "blocked: pad every source up to this many candidates")
	stopThreshold := flag.Int("stop-threshold", 0, "blocked: token-index stop threshold (0 = targets/10)")
	lshTables := flag.Int("lsh-tables", 0, "blocked: enable embedding-LSH blocking with this many tables (0 = off)")
	lshBits := flag.Int("lsh-bits", 12, "blocked: hyperplane bits per LSH table")
	maxBucket := flag.Int("max-bucket", 0, "blocked: skip LSH buckets larger than this (0 = no cap)")
	maxSeedFanout := flag.Int("max-seed-fanout", 0, "blocked: skip seeds adjacent to more than this many targets (0 = no cap)")
	flag.Parse()

	if *blocked && *walPath != "" {
		log.Fatal("-blocked does not support -wal: the rebuild path produces dense engines")
	}
	if *blocked && *decision == "hungarian" {
		log.Fatal("-blocked does not support -decision hungarian: the Hungarian solver needs the dense cost matrix")
	}
	if *shards > 0 && *walPath != "" {
		log.Fatal("-shards does not support -wal: rebuilds would publish unsharded engines")
	}
	if *blocked && *shards > 0 {
		log.Fatal("-blocked and -shards are mutually exclusive")
	}
	if *replica && *router {
		log.Fatal("-replica and -router are mutually exclusive")
	}
	if *replica && (*blocked || *shards > 0 || *walPath != "") {
		log.Fatal("-replica does not combine with -blocked, -shards or -wal: a replica serves one static dense partition")
	}
	if *router && (*blocked || *shards > 0 || *walPath != "") {
		log.Fatal("-router does not combine with -blocked, -shards or -wal: the router builds no engine of its own")
	}
	var partIndex, partTotal int
	if *replica {
		var err error
		partIndex, partTotal, err = parsePartition(*partition)
		if err != nil {
			log.Fatal(err)
		}
	} else if *partition != "" {
		log.Fatal("-partition requires -replica")
	}
	if *router != (*replicas != "") {
		log.Fatal("-router and -replicas go together")
	}

	rt := obs.NewRuntime()
	mat.SetMetrics(rt.Metrics)

	scfg := serve.DefaultServerConfig()
	scfg.MaxInFlight = *maxInFlight
	scfg.MaxQueue = *maxQueue
	scfg.DefaultTimeout = *defaultTimeout
	scfg.MaxTimeout = *maxTimeout
	scfg.Breaker.Window = *breakerWindow
	scfg.Breaker.FailureThreshold = *breakerThreshold
	scfg.Breaker.Cooldown = *breakerCooldown
	scfg.CacheSize = *cacheSize
	srv := serve.NewServer(scfg, rt.Metrics)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", l.Addr())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// Serve /healthz from the start; /readyz flips once the offline
	// pipeline below installs the engine.
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	rcfg := serve.DefaultRouterConfig()
	rcfg.ProbeInterval = *probeInterval
	rcfg.GatherTimeout = *gatherTimeout
	rcfg.Retry.MaxAttempts = *replicaRetries
	rcfg.Breaker.Cooldown = *replicaBreakerCooldown
	rcfg.HedgeDelay = *hedgeDelay
	rcfg.DisableHedge = *noHedge
	if *router {
		urls := splitReplicas(*replicas)
		if len(urls) == 0 {
			log.Fatal("-replicas lists no URLs")
		}
		transports := make([]serve.Transport, len(urls))
		client := &http.Client{}
		for i, u := range urls {
			transports[i] = &serve.HTTPTransport{Base: u, Client: client}
		}
		rtr := startRouter(ctx, srv, rcfg, transports, *bootTimeout, rt.Metrics)
		awaitDrain(ctx, stop, srv, serveErr, *drainTimeout, rtr.Close)
		return
	}

	cfg := core.DefaultConfig()
	if *fast {
		cfg.GCN = baselines.FastSettings().GCN
	}
	cfg.PreferenceTopK = *topK
	switch *decision {
	case "collective":
		cfg.Decision = core.Collective
	case "independent":
		cfg.Decision = core.Independent
	case "greedy11":
		cfg.Decision = core.GreedyOneToOne
	case "hungarian":
		cfg.Decision = core.Assignment
	case "auction":
		cfg.Decision = core.AuctionAssignment
	default:
		log.Fatalf("unknown decision mode %q", *decision)
	}

	in, err := buildInput(*load, *vec1, *vec2, *dataset, *scale, *fast, *seedFrac, *splitSeed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("offline pipeline: %d seeds, %d test pairs", len(in.Seeds), len(in.Tests))
	start := time.Now()
	pipeCtx := obs.Into(ctx, rt)

	// closers release what the serving mode started, in order, once the
	// HTTP side has drained.
	var closers []func()
	switch {
	case *blocked:
		bstart := time.Now()
		guardHardNegatives(in, &cfg.GCN)
		cands := buildCandidates(in, *minCandidates, *stopThreshold,
			*lshTables, *lshBits, *maxBucket, *maxSeedFanout)
		st := cands.Stats()
		log.Printf("blocking: avg %.1f cand/src, max %d, recall %.4f (%.1fs)",
			st.AvgCandidates, st.MaxCandidates, st.Recall, time.Since(bstart).Seconds())
		engine, err := serve.NewSparseEngine(pipeCtx, in, cfg, cands)
		if err != nil {
			fatalStartup(ctx, err)
		}
		for _, d := range engine.Degraded() {
			log.Printf("degraded: %s feature dropped: %s", d.Feature, d.Reason)
		}
		srv.SetAligner(engine)
		log.Printf("ready after %.1fs (%d sources, blocked)", time.Since(start).Seconds(), engine.NumSources())
	case *replica:
		engine, err := serve.NewEngine(pipeCtx, in, cfg)
		if err != nil {
			fatalStartup(ctx, err)
		}
		logDegraded(engine)
		p, err := serve.NewPartition(engine, partIndex, partTotal)
		if err != nil {
			fatalStartup(ctx, err)
		}
		srv.SetPartition(p)
		srv.SetAligner(p)
		log.Printf("replica ready after %.1fs: partition %d/%d owns %d of %d sources",
			time.Since(start).Seconds(), partIndex, partTotal, p.Owned(), p.NumSources())
	case *walPath == "":
		engine, err := serve.NewEngine(pipeCtx, in, cfg)
		if err != nil {
			fatalStartup(ctx, err)
		}
		logDegraded(engine)
		if *shards > 0 {
			parts, err := serve.NewPartitions(engine, *shards)
			if err != nil {
				fatalStartup(ctx, err)
			}
			transports := make([]serve.Transport, len(parts))
			for i, p := range parts {
				transports[i] = &serve.LocalTransport{P: p}
			}
			rtr := startRouter(ctx, srv, rcfg, transports, *bootTimeout, rt.Metrics)
			closers = append(closers, rtr.Close)
		} else {
			srv.SetAligner(engine)
		}
		log.Printf("ready after %.1fs (%d sources)", time.Since(start).Seconds(), engine.NumSources())
	default:
		// Durable update mode: replay the WAL over the deterministically
		// rebuilt base corpus, publish the recovered engine, and run the
		// background rebuild loop for new mutations.
		rb := &serve.Rebuilder{Cfg: cfg, CheckpointPath: *walPath + ".ckpt", Reg: rt.Metrics}
		wlog, info, err := wal.Open(*walPath, serve.BaseFingerprint(in), rt.Metrics)
		if err != nil {
			log.Fatal(err)
		}
		if info.TornBytes > 0 {
			log.Printf("wal: truncated %d torn bytes (unacknowledged tail)", info.TornBytes)
		}
		store, err := serve.NewStore(in, info.Records)
		if err != nil {
			log.Fatal(err)
		}
		if len(info.Records) > 0 {
			log.Printf("wal: replayed %d mutations up to seq %d", len(info.Records), store.Seq())
		}
		snap, seq := store.Snapshot()
		aligner, err := rb.Build(pipeCtx, snap, seq)
		if err != nil {
			fatalStartup(ctx, err)
		}
		if e, ok := aligner.(*serve.Engine); ok {
			logDegraded(e)
		}
		srv.Publish(aligner, seq)
		ucfg := serve.DefaultUpdaterConfig()
		ucfg.RebuildThreshold = *rebuildThreshold
		ucfg.RebuildInterval = *rebuildInterval
		upd := serve.NewUpdater(ucfg, store, wlog, rb.Build, srv, rt.Metrics, seq)
		upd.Start(ctx)
		srv.SetMutator(upd)
		// Stop the rebuild loop, then release the log. A mutation
		// acknowledged during the drain is already durable — the next boot
		// replays it.
		closers = append(closers, upd.Close, func() { wlog.Close() })
		log.Printf("ready after %.1fs at engine version %d (wal %s)",
			time.Since(start).Seconds(), seq, *walPath)
	}

	// The offline pipeline's last collection can run while its temporaries
	// are still live, which sets the next trigger at twice that size. Until
	// the heap reaches it, every byte serving allocates would add to the
	// resident set on top of the pipeline's dead temporaries. Collecting
	// once here starts serving from the engine's live heap, so request
	// garbage reuses the freed spans.
	runtime.GC()
	awaitDrain(ctx, stop, srv, serveErr, *drainTimeout, closers...)
}

// startRouter connects a Router to its partitions, verifies the fleet is
// coherent (one split, one corpus, one engine version), starts the health
// probes and publishes the router. It is the one bootstrap of both
// -router mode (replica processes behind HTTP transports) and -shards
// (in-process partitions behind local transports). Remote replicas run the
// full offline pipeline before answering, so the fleet is polled until it
// is up or bootTimeout runs out.
func startRouter(ctx context.Context, srv *serve.Server, rcfg serve.RouterConfig,
	transports []serve.Transport, bootTimeout time.Duration, reg *obs.Registry) *serve.Router {
	var rtr *serve.Router
	// The fleet-wide version agreement lands here: republishing the router
	// bumps response headers and invalidates the version-keyed cache.
	rcfg.OnVersion = func(v uint64) { srv.Publish(rtr, v) }
	start := time.Now()
	bootCtx, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()
	boot := robust.RetryPolicy{
		MaxAttempts: int(bootTimeout/(500*time.Millisecond)) + 1,
		BaseDelay:   500 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Multiplier:  1,
	}
	err := boot.Do(bootCtx, func(int) error {
		var rerr error
		rtr, rerr = serve.NewRouter(bootCtx, rcfg, transports, reg)
		return rerr
	})
	if err != nil {
		fatalStartup(ctx, err)
	}
	rtr.Start(ctx)
	srv.Publish(rtr, rtr.Version())
	log.Printf("router ready after %.1fs: %d partitions across %d transports, %d sources, engine version %d",
		time.Since(start).Seconds(), rtr.NumPartitions(), len(transports), rtr.NumSources(), rtr.Version())
	return rtr
}

// awaitDrain blocks until SIGTERM/SIGINT or a listener failure. On a
// signal it drains the server under drainTimeout, runs closers in order
// and exits 1 if the drain deadline passed.
func awaitDrain(ctx context.Context, stop context.CancelFunc, srv *serve.Server, serveErr <-chan error,
	drainTimeout time.Duration, closers ...func()) {
	select {
	case <-ctx.Done():
		stop()
		log.Printf("signal received, draining (deadline %s)", drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		for _, c := range closers {
			c()
		}
		if err != nil {
			log.Printf("drain deadline exceeded, force-closing: %v", err)
			srv.Close()
			os.Exit(1)
		}
		log.Printf("drained cleanly")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}

// splitReplicas parses the -replicas list, trimming blanks.
func splitReplicas(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

// parsePartition parses a -partition spec of the form i/N.
func parsePartition(s string) (index, total int, err error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("-partition %q: want i/N (e.g. 0/3)", s)
	}
	index, err = strconv.Atoi(s[:slash])
	if err == nil {
		total, err = strconv.Atoi(s[slash+1:])
	}
	if err != nil || total < 1 || index < 0 || index >= total {
		return 0, 0, fmt.Errorf("-partition %q: want i/N with 0 <= i < N", s)
	}
	return index, total, nil
}

// fatalStartup distinguishes a SIGTERM during warm-up (clean exit 0) from a
// genuine pipeline failure.
func fatalStartup(ctx context.Context, err error) {
	if ctx.Err() != nil {
		log.Printf("startup interrupted: %v", err)
		os.Exit(0)
	}
	log.Fatal(err)
}

func logDegraded(e *serve.Engine) {
	for _, d := range e.Degraded() {
		log.Printf("degraded: %s feature dropped: %s", d.Feature, d.Reason)
	}
}

// buildInput assembles the pipeline input from a corpus directory or a
// synthesized benchmark pair.
func buildInput(load, vec1, vec2, dataset string, scale float64, fast bool, seedFrac float64, splitSeed uint64) (*core.Input, error) {
	if load != "" {
		return loadCorpusInput(load, vec1, vec2, seedFrac, splitSeed)
	}
	spec, ok := bench.SpecByName(dataset, scale)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	if fast {
		spec.Dim = baselines.FastSettings().Dim
	}
	d, err := bench.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &core.Input{G1: d.G1, G2: d.G2, Seeds: d.SeedPairs, Tests: d.TestPairs, Emb1: d.Emb1, Emb2: d.Emb2}, nil
}

// loadCorpusInput mirrors cmd/ceaff: read an OpenEA-layout corpus, attach
// embedders, and split gold links when no predefined split exists.
func loadCorpusInput(dir, vec1, vec2 string, seedFrac float64, splitSeed uint64) (*core.Input, error) {
	c, err := dataio.Load(dir)
	if err != nil {
		return nil, err
	}
	emb1, err := loadVec(vec1, 0xE1)
	if err != nil {
		return nil, err
	}
	emb2, err := loadVec(vec2, 0xE2)
	if err != nil {
		return nil, err
	}
	if emb1.Dim() != emb2.Dim() {
		return nil, fmt.Errorf("embedding dimensions differ: %d vs %d", emb1.Dim(), emb2.Dim())
	}
	seeds, tests := c.Train, c.Test
	if seeds == nil {
		seeds, tests = align.Split(c.Links, seedFrac, rng.New(splitSeed))
	}
	return &core.Input{G1: c.G1, G2: c.G2, Seeds: seeds, Tests: tests, Emb1: emb1, Emb2: emb2}, nil
}

func loadVec(path string, salt uint64) (wordvec.Embedder, error) {
	if path == "" {
		return wordvec.NewHash(48, salt), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lex, err := wordvec.ReadVec(f, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return lex, nil
}

// guardHardNegatives disables GCN hard-negative mining when the dense
// similarity block it needs would dwarf the blocked pipeline's memory
// budget — same policy as the ceaff CLI's blocked mode.
func guardHardNegatives(in *core.Input, cfg *gcn.Config) {
	if cfg.HardNegativeEvery <= 0 {
		return
	}
	n := in.G1.NumEntities()
	if m := in.G2.NumEntities(); m > n {
		n = m
	}
	if cells := len(in.Seeds) * n; cells > 200_000_000 {
		log.Printf("disabling GCN hard-negative mining: %d seeds x %d entities needs a dense %d-cell similarity block",
			len(in.Seeds), n, cells)
		cfg.HardNegativeEvery = 0
	}
}

// buildCandidates combines token, neighbour and (optionally) LSH blocking
// over the input's test pairs — the daemon-side twin of the ceaff CLI's
// blocked mode.
func buildCandidates(in *core.Input, minCand, stopThreshold, lshTables, lshBits, maxBucket, maxSeedFanout int) blocking.Candidates {
	names := func(g *kg.KG, ids []kg.EntityID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = g.EntityName(id)
		}
		return out
	}
	srcNames := names(in.G1, align.SourceIDs(in.Tests))
	tgtNames := names(in.G2, align.TargetIDs(in.Tests))
	ne := blocking.NewNeighborExpansion(in.G1, in.G2, in.Seeds, in.Tests)
	ne.MaxSeedFanout = maxSeedFanout
	gens := []blocking.Generator{
		blocking.NewTokenIndex(srcNames, tgtNames, stopThreshold),
		ne,
	}
	if lshTables > 0 {
		lsh := blocking.NewEmbeddingLSHFromNames(in.Emb1, in.Emb2, srcNames, tgtNames, 17)
		lsh.Tables = lshTables
		lsh.Bits = lshBits
		lsh.MaxBucket = maxBucket
		gens = append(gens, lsh)
	}
	b := &blocking.Blocker{
		Generators:    gens,
		NumTargets:    len(in.Tests),
		MinCandidates: minCand,
		Seed:          11,
	}
	return b.Generate()
}
