package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ceaff/internal/match"
	"ceaff/internal/obs"
	"ceaff/internal/robust"
	"ceaff/internal/wal"
)

// Config parameterizes the HTTP server. The zero value is unusable; start
// from DefaultServerConfig.
type Config struct {
	// MaxInFlight bounds concurrently executing alignment requests.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// requests are shed with 429.
	MaxQueue int
	// RetryAfter is advertised in the Retry-After header of shed responses.
	RetryAfter time.Duration
	// DefaultTimeout bounds a request that sends no budget header.
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested budget (X-Deadline-Ms).
	MaxTimeout time.Duration
	// MaxBatch bounds the number of sources per align request.
	MaxBatch int
	// DefaultTopK is the candidates-endpoint k when the query omits it;
	// MaxTopK caps it.
	DefaultTopK, MaxTopK int
	// Breaker configures the circuit breaker over the collective path.
	Breaker BreakerConfig
	// CacheSize bounds the versioned result cache (entries); 0 disables it.
	CacheSize int
	// Now replaces the clock used for queue-wait accounting and deadline
	// budgeting; tests inject a fake to pin the elapsed-wait subtraction.
	// Nil uses time.Now.
	Now func() time.Time
}

// DefaultServerConfig returns production-shaped defaults.
func DefaultServerConfig() Config {
	return Config{
		MaxInFlight:    16,
		MaxQueue:       64,
		RetryAfter:     time.Second,
		DefaultTimeout: 5 * time.Second,
		MaxTimeout:     30 * time.Second,
		MaxBatch:       256,
		DefaultTopK:    10,
		MaxTopK:        100,
		Breaker:        DefaultBreakerConfig(),
		CacheSize:      4096,
	}
}

// Server is the fault-tolerant alignment daemon: HTTP transport over an
// Aligner, guarded by admission control, per-request deadlines, a circuit
// breaker with greedy fallback, and per-request panic isolation.
//
// Lifecycle: NewServer → (SetAligner once the offline pipeline finishes) →
// Serve → Shutdown. /healthz answers 200 from the moment Serve starts;
// /readyz answers 200 only between SetAligner and Shutdown.
type Server struct {
	cfg       Config
	reg       *obs.Registry
	admission *Admission
	breaker   *Breaker
	aligner   atomic.Pointer[alignerBox]
	mutator   atomic.Pointer[mutatorBox]
	partition atomic.Pointer[Partition]
	draining  atomic.Bool
	http      *http.Server

	// engineVersion is the WAL sequence number the served engine reflects;
	// stale flags that a newer state exists but its rebuild failed.
	engineVersion atomic.Uint64
	stale         atomic.Bool

	cache *resultCache

	requests         *obs.Counter
	fallbacks        *obs.Counter
	panics           *obs.Counter
	deadlineRejected *obs.Counter
	strategyRejected *obs.Counter
	latency          *obs.Histogram
	queueWait        *obs.Histogram
	handlerTime      *obs.Histogram
}

// alignerBox wraps the interface so atomic.Pointer has a concrete type. It
// carries the engine version so the cache keys and the served snapshot load
// atomically — a request can never pair the new engine with the old version
// (or vice versa) across a hot-swap.
type alignerBox struct {
	a       Aligner
	version uint64
}

// mutatorBox likewise for the mutation surface.
type mutatorBox struct{ m Mutator }

// NewServer builds a server around cfg. reg may be nil (metrics off), but
// the daemon always passes one so /metrics has content.
func NewServer(cfg Config, reg *obs.Registry) *Server {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = DefaultServerConfig().MaxBatch
	}
	if cfg.DefaultTopK < 1 {
		cfg.DefaultTopK = DefaultServerConfig().DefaultTopK
	}
	if cfg.MaxTopK < cfg.DefaultTopK {
		cfg.MaxTopK = cfg.DefaultTopK
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = DefaultServerConfig().DefaultTimeout
	}
	if cfg.MaxTimeout < cfg.DefaultTimeout {
		cfg.MaxTimeout = cfg.DefaultTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultServerConfig().RetryAfter
	}
	s := &Server{
		cfg:              cfg,
		reg:              reg,
		admission:        NewAdmission(cfg.MaxInFlight, cfg.MaxQueue, reg),
		breaker:          NewBreaker(cfg.Breaker, reg),
		requests:         reg.Counter("serve.requests"),
		fallbacks:        reg.Counter("serve.fallback"),
		panics:           reg.Counter("serve.panics"),
		deadlineRejected: reg.Counter("serve.deadline.rejected"),
		strategyRejected: reg.Counter("serve.strategy.rejected"),
		latency:          reg.Histogram("serve.request.seconds"),
		queueWait:        reg.Histogram("serve.queue.seconds"),
		handlerTime:      reg.Histogram("serve.handler.seconds"),
	}
	s.cache = newResultCache(cfg.CacheSize, reg)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("POST /v1/align", s.guard(http.HandlerFunc(s.handleAlign)))
	mux.Handle("GET /v1/entity/{id}/candidates", s.guard(http.HandlerFunc(s.handleCandidates)))
	mux.Handle("POST /v1/mutate", s.guard(http.HandlerFunc(s.handleMutate)))
	mux.Handle("POST /v1/shard", s.guard(http.HandlerFunc(s.handleShard)))
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	return s
}

// readHeaderTimeout bounds how long a connection may take to send request
// headers. Headers arrive before admission, so this guards connection
// slots; the body, read after admission, is bounded by the request's own
// deadline instead (readBody).
const readHeaderTimeout = 10 * time.Second

// readBody runs read, the handler's one pass over the request body, under
// the request's deadline: a client trickling its body cannot hold an
// admission slot past its budget. The deadline is lifted once the body is
// read. Left armed, it would fire in the server's background connection
// read and cancel the request as context.Canceled before the handler's
// own deadline reports context.DeadlineExceeded. Writers without read
// deadlines (httptest recorders) read unbounded; checking for the method
// directly, unlike http.ResponseController, costs them no allocation.
//
// A body that fails to read or decode marks the response Connection:
// close. Otherwise net/http would drain what is left of it before
// answering, and for a trickling client that wait has no deadline.
func readBody(w http.ResponseWriter, r *http.Request, read func() error) error {
	if deadline, ok := r.Context().Deadline(); ok {
		if c, ok := w.(interface{ SetReadDeadline(time.Time) error }); ok && c.SetReadDeadline(deadline) == nil {
			defer c.SetReadDeadline(time.Time{})
		}
	}
	err := read()
	if err != nil {
		w.Header().Set("Connection", "close")
	}
	return err
}

// SetAligner installs the query engine and flips the server ready. It is
// called once the offline pipeline completes, so the daemon can expose
// /healthz while still warming up. The engine version is left unchanged;
// versioned installs go through Publish.
func (s *Server) SetAligner(a Aligner) {
	s.Publish(a, s.engineVersion.Load())
}

// Publish atomically swaps in a new engine snapshot reflecting WAL sequence
// version and clears any stale flag. Requests in flight keep the snapshot
// they loaded at admission; new requests see the new one immediately.
func (s *Server) Publish(a Aligner, version uint64) {
	s.aligner.Store(&alignerBox{a: a, version: version})
	s.engineVersion.Store(version)
	s.stale.Store(false)
	// Invalidate wholesale: no answer computed under the previous snapshot
	// may be served after the swap. (Version-carrying keys already prevent
	// cross-version reads; the reset reclaims the dead entries immediately.)
	s.cache.Reset()
	s.reg.Gauge("serve.engine.version").Set(float64(version))
	s.reg.Gauge("serve.engine.stale").Set(0)
	s.reg.Counter("serve.engine.swaps").Inc()
}

// MarkStale records that the served engine lags durable state because a
// rebuild failed. The service keeps answering — degraded to staleness, not
// down — and every response advertises Engine-Stale: true until the next
// successful Publish.
func (s *Server) MarkStale() {
	s.stale.Store(true)
	s.reg.Gauge("serve.engine.stale").Set(1)
}

// EngineVersion returns the WAL sequence number of the served engine.
func (s *Server) EngineVersion() uint64 { return s.engineVersion.Load() }

// Stale reports whether the served engine is marked stale.
func (s *Server) Stale() bool { return s.stale.Load() }

// SetMutator installs the mutation surface. Without one (no -wal), POST
// /v1/mutate answers 501.
func (s *Server) SetMutator(m Mutator) {
	s.mutator.Store(&mutatorBox{m: m})
}

// SetPartition exposes p over the binary row-gather protocol at POST
// /v1/shard — the replica daemon's side of the Router's HTTPTransport.
// Without one the endpoint answers 501.
func (s *Server) SetPartition(p *Partition) {
	s.partition.Store(p)
}

// now is the server's injectable clock.
func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// Ready reports whether the server has an engine and is not draining.
func (s *Server) Ready() bool {
	return s.aligner.Load() != nil && !s.draining.Load()
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	return s.http.Serve(l)
}

// Handler exposes the routed handler (with all middleware) for in-process
// use — tests drive it through httptest without a real listener.
func (s *Server) Handler() http.Handler { return s.http.Handler }

// Shutdown drains the server: /readyz flips to 503 so load balancers stop
// sending, the listener closes, keep-alive connections are asked to wind
// down, and in-flight requests run to completion — or until ctx expires,
// at which point Shutdown returns ctx's error and the caller decides
// whether to force-close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.http.SetKeepAlivesEnabled(false)
	return s.http.Shutdown(ctx)
}

// Close force-closes all connections; the escalation path when the drain
// deadline passes.
func (s *Server) Close() error { return s.http.Close() }

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// guard wraps an alignment handler with the robustness middleware, applied
// outermost first: panic isolation, readiness, admission, deadline. The
// slot is taken before the body is read, so the handler reads it through
// readBody, under the same deadline as the rest of the request.
func (s *Server) guard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		defer s.latency.Time()()
		defer func() {
			if v := recover(); v != nil {
				s.panics.Inc()
				writeJSON(w, http.StatusInternalServerError,
					errorBody{Error: fmt.Sprintf("internal error: %v", v)})
			}
		}()
		if s.aligner.Load() == nil || s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "not ready"})
			return
		}
		w.Header().Set("Engine-Version", strconv.FormatUint(s.engineVersion.Load(), 10))
		w.Header().Set("Engine-Stale", strconv.FormatBool(s.stale.Load()))
		budget, err := s.requestBudget(r)
		if err != nil {
			s.deadlineRejected.Inc()
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		queued := s.now()
		if err := s.admission.Acquire(r.Context()); err != nil {
			if errors.Is(err, ErrShed) {
				w.Header().Set("Retry-After",
					strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
				writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "overloaded"})
				return
			}
			// Client went away while queued; nothing useful to write.
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "cancelled while queued"})
			return
		}
		defer s.admission.Release()
		// Queue wait and handler execution are separate histograms: under
		// load the admission queue dominates latency long before the
		// handlers slow down, and a single end-to-end number hides which
		// regime the server is in.
		waited := s.now().Sub(queued)
		s.queueWait.Observe(waited)
		defer s.handlerTime.Time()()

		// The budget is end-to-end from the client's perspective: time
		// already burnt waiting for an admission slot comes out of it, so
		// neither the body read (readBody) nor a handler fanning out to
		// replica gathers can hold the slot past the granted deadline. A
		// budget fully consumed in the queue is answered 504 without running
		// the handler.
		remaining := budget - waited
		if remaining <= 0 {
			s.reg.Counter("serve.deadline.exhausted").Inc()
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "deadline exhausted while queued"})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), remaining)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// requestBudget resolves the request's deadline: the client's X-Deadline-Ms
// header clamped to MaxTimeout, or DefaultTimeout when absent. A header that
// is present but not a positive integer is a client error, answered with 400
// rather than silently running under the default budget the client did not
// ask for.
func (s *Server) requestBudget(r *http.Request) (time.Duration, error) {
	h := r.Header.Get("X-Deadline-Ms")
	if h == "" {
		return s.cfg.DefaultTimeout, nil
	}
	ms, err := strconv.Atoi(h)
	if err != nil || ms < 1 {
		return 0, fmt.Errorf("malformed X-Deadline-Ms %q: want a positive integer of milliseconds", h)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
		return
	}
	writeJSON(w, http.StatusOK, readyzBody{
		Status:        "ready",
		EngineVersion: s.engineVersion.Load(),
		Stale:         s.stale.Load(),
	})
}

// readyzBody is the ready-state answer: readiness never flips during a
// rebuild or after a failed one — staleness is reported here instead.
type readyzBody struct {
	Status        string `json:"status"`
	EngineVersion uint64 `json:"engine_version"`
	Stale         bool   `json:"stale"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// alignRequest is the POST /v1/align body.
type alignRequest struct {
	// Sources are decimal test-source indices or source entity names.
	Sources []string `json:"sources"`
	// Strategy selects the decision strategy for this request by name or
	// alias ("da", "greedy", "greedy11", "hungarian", "auction", ...);
	// empty means the engine default (deferred acceptance). Names the
	// engine does not support — unknown, or dense-only on a blocked
	// engine — are rejected with 400. The degraded greedy fallback ignores
	// the field: fallback answers always come from the precomputed ranking.
	Strategy string `json:"strategy,omitempty"`
}

// alignResponse is the POST /v1/align answer.
type alignResponse struct {
	// Degraded is true when the answer came from the greedy fallback
	// instead of the collective decision.
	Degraded bool       `json:"degraded"`
	Results  []Decision `json:"results"`
}

// Request bodies are capped before decoding so a client cannot make the
// server buffer an unbounded body only to reject it for its batch size: a
// body may hold MaxBatch items (align source keys or mutations) of up to
// maxBodyBytesPerItem each, plus maxBodyEnvelope bytes for the rest of the
// object.
const (
	maxBodyBytesPerItem = 4 << 10
	maxBodyEnvelope     = 4 << 10
)

// decodeBody decodes r's JSON body into v under the body cap and the
// request deadline. On failure it writes the error response — 413 past the
// cap, 408 when the body outlives the deadline, 400 for malformed JSON —
// and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := int64(s.cfg.MaxBatch)*maxBodyBytesPerItem + maxBodyEnvelope
	err := readBody(w, r, func() error {
		return json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	})
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeJSON(w, http.StatusRequestTimeout, errorBody{Error: "request body not received within the deadline"})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed JSON body: " + err.Error()})
	}
	return false
}

func (s *Server) handleAlign(w http.ResponseWriter, r *http.Request) {
	if err := robust.Fire(FaultPanic); err != nil {
		panic(err)
	}
	box := s.aligner.Load()
	a := box.a
	var req alignRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Sources) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty sources"})
		return
	}
	if len(req.Sources) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Sources), s.cfg.MaxBatch)})
		return
	}
	strategy, err := s.resolveStrategy(a, req.Strategy)
	if err != nil {
		s.strategyRejected.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	rows := make([]int, len(req.Sources))
	seen := make(map[int]bool, len(req.Sources))
	for i, key := range req.Sources {
		row, ok := a.Resolve(key)
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown source " + strconv.Quote(key)})
			return
		}
		if seen[row] {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "duplicate source " + strconv.Quote(key)})
			return
		}
		seen[row] = true
		rows[i] = row
	}

	// The expensive collective path runs only when the breaker admits it;
	// otherwise — and on any collective failure — the precomputed greedy
	// ranking answers with "degraded": true. Failures (including deadline
	// expiry, which signals overload) feed the breaker; a disconnected
	// client (context.Canceled) counts as a non-failure.
	if s.breaker.Allow() {
		err := robust.Fire(FaultCollective)
		var results []Decision
		if err == nil {
			results, err = s.alignCollective(r.Context(), box, rows, strategy)
		}
		if err == nil {
			s.breaker.Record(true)
			s.writeAlignResponse(w, alignResponse{Degraded: false, Results: results})
			return
		}
		s.breaker.Record(errors.Is(err, context.Canceled))
	}
	s.fallbacks.Inc()
	s.writeAlignResponse(w, alignResponse{Degraded: true, Results: a.AlignGreedy(rows)})
}

// resolveStrategy canonicalizes and validates a per-request strategy name
// against the engine's supported set, mirroring the malformed-deadline
// contract: a strategy the request names but the server cannot honour is a
// client error answered with 400, never a silent fallback to the default
// decision the client did not ask for.
func (s *Server) resolveStrategy(a Aligner, name string) (string, error) {
	if name == "" {
		return "", nil
	}
	st, err := match.ByName(name)
	if err != nil {
		return "", err
	}
	canon := st.Name()
	supported := a.Strategies()
	for _, have := range supported {
		if have == canon {
			s.reg.Counter("serve.align.strategy." + canon).Inc()
			return canon, nil
		}
	}
	return "", fmt.Errorf("strategy %q not supported by this engine (supported: %s)",
		canon, strings.Join(supported, ", "))
}

// alignCollective answers the collective decision for rows through the
// result cache, running a miss on the request's own goroutine under the
// request's own context. Only default-strategy requests touch the
// cache — per-row keys mean per-row answers, and a non-default strategy's
// answer is a different function of the same row. Degraded fallback answers
// never reach here, so the cache only ever holds full-fidelity collective
// results.
func (s *Server) alignCollective(ctx context.Context, box *alignerBox, rows []int, strategy string) ([]Decision, error) {
	cacheable := strategy == ""
	if cacheable {
		if results, ok := s.cacheLookup(box.version, rows); ok {
			return results, nil
		}
	}
	results, err := box.a.AlignCollective(ctx, rows, strategy)
	if err == nil && cacheable {
		s.cacheAdmit(box.version, rows, results)
	}
	return results, err
}

// cacheLookup serves a default-strategy request from per-row cached
// answers. A single row is a direct hit. A multi-row group is served from
// cache only when every row hits, every cached answer is a matched
// unilateral decision, and the chosen targets are pairwise distinct: under
// deferred acceptance, sources whose individual argmaxes do not collide all
// receive their first preference, so the collective answer is exactly the
// concatenation of the unilateral ones.
func (s *Server) cacheLookup(version uint64, rows []int) ([]Decision, bool) {
	if len(rows) == 1 {
		if v, ok := s.cache.get(cacheKey{version: version, kind: cacheKindAlign, row: rows[0]}); ok {
			return v.([]Decision), true
		}
		return nil, false
	}
	out := make([]Decision, len(rows))
	targets := make(map[int]bool, len(rows))
	for p, row := range rows {
		v, ok := s.cache.get(cacheKey{version: version, kind: cacheKindAlign, row: row})
		if !ok {
			return nil, false
		}
		ds := v.([]Decision)
		if len(ds) != 1 {
			return nil, false
		}
		d := ds[0]
		if !d.Matched || !d.Unilateral || targets[d.TargetIndex] {
			return nil, false
		}
		targets[d.TargetIndex] = true
		out[p] = d
	}
	s.reg.Counter("serve.cache.group_hits").Inc()
	return out, true
}

// cacheAdmit inserts per-row answers from a default-strategy result. A
// single-row answer caches unconditionally — it is a pure function of
// (version, row). Rows of a multi-source batch are admitted individually
// only when matched and unilateral: those are provably what the single-row
// request would answer, so batches warm the per-row cache without ever
// poisoning it with competition-dependent outcomes. Multi-source rows go
// through the doorkeeper (putSampled): when the cache is full, a batch row
// must be asked for twice before it may displace a resident entry, so one
// sweeping batch scan cannot flush the hot single-row working set.
// Degraded rows — partition-loss placeholders, not answers — never enter.
func (s *Server) cacheAdmit(version uint64, rows []int, results []Decision) {
	if len(results) != len(rows) {
		return
	}
	if len(rows) == 1 {
		if d := results[0]; !d.Degraded {
			s.cache.put(cacheKey{version: version, kind: cacheKindAlign, row: rows[0]}, results)
		}
		return
	}
	for p, row := range rows {
		if d := results[p]; d.Matched && d.Unilateral && !d.Degraded {
			s.cache.putSampled(cacheKey{version: version, kind: cacheKindAlign, row: row}, []Decision{d})
		}
	}
}

// handleShard answers the binary row-gather protocol for the installed
// Partition. Requests and responses are single CRC-framed messages; every
// replica-side failure (version skew, un-owned rows, torn request frames)
// travels back as a typed error frame under HTTP 200, so the transport can
// distinguish protocol-level refusals from the connection-level failures
// that surface as non-200s or read errors.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	p := s.partition.Load()
	if p == nil {
		writeJSON(w, http.StatusNotImplemented,
			errorBody{Error: "shard protocol disabled: daemon is not a replica"})
		return
	}
	var msgType byte
	var payload []byte
	err := readBody(w, r, func() (err error) {
		msgType, payload, err = readWireFrame(http.MaxBytesReader(w, r.Body, maxWirePayload+wireHeaderLen+4))
		return err
	})
	if err != nil {
		s.reg.Counter("serve.shard.bad_frames").Inc()
		writeShardFrame(w, wireMsgError, encodeWireError(err))
		return
	}
	switch msgType {
	case wireMsgMetaReq:
		body, err := json.Marshal(p.Meta())
		if err != nil {
			writeShardFrame(w, wireMsgError, encodeWireError(err))
			return
		}
		writeShardFrame(w, wireMsgMetaResp, body)
	case wireMsgGatherReq:
		q, err := decodeGatherReq(payload)
		if err != nil {
			s.reg.Counter("serve.shard.bad_frames").Inc()
			writeShardFrame(w, wireMsgError, encodeWireError(err))
			return
		}
		sr, err := p.GatherLocal(q.WantVersion, q.Rows, q.WithFeatures)
		if err != nil {
			writeShardFrame(w, wireMsgError, encodeWireError(err))
			return
		}
		s.reg.Counter("serve.shard.gathers").Inc()
		writeShardFrame(w, wireMsgGatherResp, encodeShardRows(sr))
	default:
		writeShardFrame(w, wireMsgError,
			encodeWireError(fmt.Errorf("%w: unexpected frame type %#x", ErrWireFrame, msgType)))
	}
}

func writeShardFrame(w http.ResponseWriter, msgType byte, payload []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(appendWireFrame(nil, msgType, payload))
}

func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	box := s.aligner.Load()
	a := box.a
	row, ok := a.Resolve(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown source " + strconv.Quote(r.PathValue("id"))})
		return
	}
	k := s.cfg.DefaultTopK
	if q := r.URL.Query().Get("k"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "k must be a positive integer"})
			return
		}
		k = v
	}
	if k > s.cfg.MaxTopK {
		k = s.cfg.MaxTopK
	}
	key := cacheKey{version: box.version, kind: cacheKindCandidates, row: row, k: k}
	if v, ok := s.cache.get(key); ok {
		s.writeCandidatesResponse(w, v.([]Candidate))
		return
	}
	cands, err := a.Candidates(r.Context(), row, k)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			status = http.StatusGatewayTimeout
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	s.cache.put(key, cands)
	s.writeCandidatesResponse(w, cands)
}

// mutateRequest is the POST /v1/mutate body: a batch of mutations applied
// all-or-nothing and acknowledged only after the WAL fsync.
type mutateRequest struct {
	Mutations []wal.Mutation `json:"mutations"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	box := s.mutator.Load()
	if box == nil {
		writeJSON(w, http.StatusNotImplemented,
			errorBody{Error: "mutations disabled: daemon started without -wal"})
		return
	}
	var req mutateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Mutations) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty mutations"})
		return
	}
	if len(req.Mutations) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("batch of %d exceeds limit %d", len(req.Mutations), s.cfg.MaxBatch)})
		return
	}
	res, err := box.m.Mutate(r.Context(), req.Mutations)
	if err != nil {
		var merr *MutationError
		if errors.As(err, &merr) {
			s.reg.Counter("serve.mutations.rejected").Inc()
			writeJSON(w, http.StatusBadRequest, errorBody{Error: merr.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}
