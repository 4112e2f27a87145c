package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"ceaff/internal/obs"
	"ceaff/internal/robust"
)

// routerTestConfig returns a RouterConfig tuned for tests: no background
// probing (tests drive probeOnce by hand), fast bounded retries, breakers
// that half-open immediately so recovery needs no wall-clock waits, and no
// hedging unless the test opts in.
func routerTestConfig() RouterConfig {
	cfg := DefaultRouterConfig()
	cfg.ProbeInterval = time.Hour
	cfg.ProbeTimeout = 5 * time.Second
	cfg.GatherTimeout = 5 * time.Second
	cfg.Retry = robust.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Multiplier: 2}
	cfg.Breaker = BreakerConfig{Window: 4, MinSamples: 3, FailureThreshold: 0.5, Cooldown: time.Nanosecond}
	cfg.DisableHedge = true
	return cfg
}

// replicaServer boots a full Server exposing partition p over HTTP — both
// the ordinary query surface and the POST /v1/shard gather protocol, like a
// real `ceaffd -replica` process.
func replicaServer(t *testing.T, p *Partition) *httptest.Server {
	t.Helper()
	cfg := testServerConfig()
	cfg.CacheSize = 0
	srv := NewServer(cfg, obs.NewRegistry())
	srv.SetAligner(p)
	srv.SetPartition(p)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getRaw(t *testing.T, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestRouterBitIdentity is the replication layer's correctness pin: the
// same query set served through three topologies — the unsharded engine, a
// Router over in-process LocalTransports, and a Router over the framed HTTP
// gather protocol against real replica servers — must produce
// byte-identical /v1/align and candidates responses. Runs in the
// GOMAXPROCS=1/4 determinism suite.
func TestRouterBitIdentity(t *testing.T) {
	const n, nparts = 24, 3
	base := literalEngine(tiedTestMatrix(n))
	ctx := context.Background()

	localParts, err := NewPartitions(base, nparts)
	if err != nil {
		t.Fatal(err)
	}
	localTs := make([]Transport, nparts)
	for i, p := range localParts {
		localTs[i] = &LocalTransport{P: p}
	}
	localRouter, err := NewRouter(ctx, routerTestConfig(), localTs, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer localRouter.Close()

	httpParts, err := NewPartitions(base, nparts)
	if err != nil {
		t.Fatal(err)
	}
	httpTs := make([]Transport, nparts)
	for i, p := range httpParts {
		httpTs[i] = &HTTPTransport{Base: replicaServer(t, p).URL}
	}
	httpRouter, err := NewRouter(ctx, routerTestConfig(), httpTs, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer httpRouter.Close()

	mk := func(a Aligner) *httptest.Server {
		cfg := testServerConfig()
		cfg.CacheSize = 0
		srv := NewServer(cfg, obs.NewRegistry())
		srv.SetAligner(a)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	servers := map[string]*httptest.Server{
		"engine":      mk(base),
		"localRouter": mk(localRouter),
		"httpRouter":  mk(httpRouter),
	}

	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		nrows := 1 + r.Intn(6)
		seen := map[int]bool{}
		var keys []string
		var rows []int
		for len(rows) < nrows {
			row := r.Intn(n)
			if !seen[row] {
				seen[row] = true
				rows = append(rows, row)
				keys = append(keys, fmt.Sprint(row))
			}
		}
		wantStatus, want := postAlignRaw(t, servers["engine"].Client(), servers["engine"].URL, keys...)
		if wantStatus != http.StatusOK {
			t.Fatalf("engine answered %d: %s", wantStatus, want)
		}
		for name, ts := range servers {
			if name == "engine" {
				continue
			}
			status, got := postAlignRaw(t, ts.Client(), ts.URL, keys...)
			if status != http.StatusOK || string(got) != string(want) {
				t.Fatalf("trial %d topology %s keys %v: status %d\n got %s\nwant %s",
					trial, name, keys, status, got, want)
			}
		}

		candURL := fmt.Sprintf("/v1/entity/%d/candidates?k=%d", rows[0], 1+r.Intn(5))
		wantStatus, want = getRaw(t, servers["engine"].Client(), servers["engine"].URL+candURL)
		if wantStatus != http.StatusOK {
			t.Fatalf("engine candidates answered %d: %s", wantStatus, want)
		}
		for name, ts := range servers {
			if name == "engine" {
				continue
			}
			status, got := getRaw(t, ts.Client(), ts.URL+candURL)
			if status != http.StatusOK || string(got) != string(want) {
				t.Fatalf("trial %d topology %s %s: status %d\n got %s\nwant %s",
					trial, name, candURL, status, got, want)
			}
		}

		// The greedy fallback path gathers too; it must match the engine's
		// precomputed ranking exactly.
		wantG := base.AlignGreedy(rows)
		for name, rt := range map[string]*Router{"localRouter": localRouter, "httpRouter": httpRouter} {
			if got := rt.AlignGreedy(rows); !reflect.DeepEqual(got, wantG) {
				t.Fatalf("%s greedy rows %v:\n got %+v\nwant %+v", name, rows, got, wantG)
			}
		}
	}
}

// TestRouterCoherenceValidation pins NewRouter's fleet checks: a router
// must refuse to assemble replicas that disagree on split, corpus or
// engine version, or that leave a partition uncovered — and must accept
// duplicate announcements as standbys.
func TestRouterCoherenceValidation(t *testing.T) {
	base := literalEngine(tiedTestMatrix(12))
	ctx := context.Background()
	cfg := routerTestConfig()
	cfg.Retry.MaxAttempts = 1

	if _, err := NewRouter(ctx, cfg, nil, obs.NewRegistry()); err == nil {
		t.Fatal("router accepted zero transports")
	}

	parts, err := NewPartitions(base, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Version skew at assembly time.
	skewed, err := NewPartitions(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	skewed[1].SetVersion(9)
	if _, err := NewRouter(ctx, cfg,
		[]Transport{&LocalTransport{P: skewed[0]}, &LocalTransport{P: skewed[1]}},
		obs.NewRegistry()); err == nil {
		t.Fatal("router accepted replicas at different engine versions")
	}

	// Uncovered partition.
	if _, err := NewRouter(ctx, cfg,
		[]Transport{&LocalTransport{P: parts[0]}}, obs.NewRegistry()); err == nil {
		t.Fatal("router accepted a fleet with partition 1 missing")
	}

	// Different corpus (names fingerprint).
	other := literalEngine(tiedTestMatrix(13))
	otherParts, err := NewPartitions(other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(ctx, cfg,
		[]Transport{&LocalTransport{P: parts[0]}, &LocalTransport{P: otherParts[1]}},
		obs.NewRegistry()); err == nil {
		t.Fatal("router accepted replicas built from different corpora")
	}

	// Duplicate announcement becomes a standby.
	standbyParts, err := NewPartitions(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(ctx, cfg, []Transport{
		&LocalTransport{P: parts[0]},
		&LocalTransport{P: parts[1]},
		&LocalTransport{P: standbyParts[0]},
	}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := len(rt.replicas[0].links); got != 2 {
		t.Fatalf("partition 0 has %d links, want primary + standby", got)
	}
	if rt.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d, want 2", rt.NumPartitions())
	}
}

// TestRouterCandidatesLostPartition pins the candidates contract: a lost
// partition is a typed error there — the endpoint has no partial shape.
func TestRouterCandidatesLostPartition(t *testing.T) {
	base := literalEngine(tiedTestMatrix(12))
	parts, err := NewPartitions(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := routerTestConfig()
	cfg.GatherTimeout = 100 * time.Millisecond
	rt, err := NewRouter(context.Background(), cfg,
		[]Transport{&LocalTransport{P: parts[0]}, &LocalTransport{P: parts[1]}},
		obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	st := rt.state.Load()
	row := 0
	// Replace the owning partition's transport with a dead HTTP one.
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()
	rt.replicas[st.owner[row]].links[0].t = &HTTPTransport{Base: dead.URL}

	if _, err := rt.Candidates(context.Background(), row, 3); !errors.Is(err, ErrPartitionLost) {
		t.Fatalf("candidates error %v is not ErrPartitionLost", err)
	}
}

// deadlineTransport is a LocalTransport that records the deadline of every
// Gather context (the zero time when the context has none).
type deadlineTransport struct {
	LocalTransport
	mu        sync.Mutex
	deadlines []time.Time
}

func (t *deadlineTransport) Gather(ctx context.Context, wantVersion uint64, rows []int, withFeatures bool) (*ShardRows, error) {
	d, _ := ctx.Deadline()
	t.mu.Lock()
	t.deadlines = append(t.deadlines, d)
	t.mu.Unlock()
	return t.LocalTransport.Gather(ctx, wantVersion, rows, withFeatures)
}

// TestRouterGatherHonoursClientDeadline pins the budget contract end to
// end: behind a server with the production defaults, every replica gather
// an align request makes runs under a deadline carved from the client's
// X-Deadline-Ms budget, not a server-side default.
func TestRouterGatherHonoursClientDeadline(t *testing.T) {
	const n, budget = 12, 200 * time.Millisecond
	parts, err := NewPartitions(literalEngine(tiedTestMatrix(n)), 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*deadlineTransport, len(parts))
	ts := make([]Transport, len(parts))
	for i, p := range parts {
		recs[i] = &deadlineTransport{LocalTransport: LocalTransport{P: p}}
		ts[i] = recs[i]
	}
	rt, err := NewRouter(context.Background(), DefaultRouterConfig(), ts, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := NewServer(DefaultServerConfig(), obs.NewRegistry())
	srv.SetAligner(rt)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, body := postAlign(t, hs.Client(), hs.URL,
		map[string]string{"X-Deadline-Ms": fmt.Sprint(budget.Milliseconds())}, allKeys(n)...)
	answered := time.Now()
	if resp.StatusCode != http.StatusOK || body.Degraded {
		t.Fatalf("align: status %d degraded %v", resp.StatusCode, body.Degraded)
	}
	gathers := 0
	for i, rec := range recs {
		rec.mu.Lock()
		deadlines := rec.deadlines
		rec.mu.Unlock()
		for _, d := range deadlines {
			gathers++
			if d.IsZero() {
				t.Fatalf("partition %d gather ran without a deadline", i)
			}
			// The request began before it was answered, so a deadline
			// within the budget ends before answered+budget.
			if d.After(answered.Add(budget)) {
				t.Fatalf("partition %d gather deadline %v past the answer outlives the %v client budget",
					i, d.Sub(answered), budget)
			}
		}
	}
	if gathers == 0 {
		t.Fatal("align made no replica gathers")
	}
}
