package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ceaff/internal/obs"
)

// Chaos modes a replica harness can be switched into at runtime.
const (
	chaosNormal  int32 = iota
	chaosKill          // sever the connection after reading the request (kill -9 mid-gather)
	chaosSlow          // stall before answering
	chaosCorrupt       // answer with a bit-flipped response body
)

// chaosReplica is a real replica Server (query surface + /v1/shard gather
// protocol) behind a fault-injecting proxy, standing in for a separate
// `ceaffd -replica` process that can be killed, slowed, or made to emit
// damaged frames mid-test.
type chaosReplica struct {
	part  *Partition
	reg   *obs.Registry
	srv   *Server
	ts    *httptest.Server
	mode  atomic.Int32
	delay time.Duration // chaosSlow stall; set before switching modes
}

func newChaosReplica(t *testing.T, p *Partition) *chaosReplica {
	t.Helper()
	cr := &chaosReplica{part: p, reg: obs.NewRegistry()}
	cfg := testServerConfig()
	cfg.CacheSize = 0
	cr.srv = NewServer(cfg, cr.reg)
	cr.srv.SetAligner(p)
	cr.srv.SetPartition(p)
	inner := cr.srv.Handler()
	cr.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch cr.mode.Load() {
		case chaosKill:
			// The replica died mid-gather: the request was sent, the
			// connection drops, no bytes come back.
			io.Copy(io.Discard, r.Body)
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("chaos: response writer cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
			return
		case chaosSlow:
			time.Sleep(cr.delay)
		case chaosCorrupt:
			// Serve the real answer, then flip one bit of the body — a torn
			// or damaged wire frame the CRC must catch.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if len(body) > 0 {
				body[len(body)/2] ^= 0x40
			}
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(cr.ts.Close)
	return cr
}

// chaosFleet builds nparts chaos replicas over base and a Router connected
// to them via HTTP transports.
func chaosFleet(t *testing.T, base *Engine, nparts int, cfg RouterConfig, reg *obs.Registry) ([]*chaosReplica, *Router) {
	t.Helper()
	parts, err := NewPartitions(base, nparts)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*chaosReplica, nparts)
	transports := make([]Transport, nparts)
	for i, p := range parts {
		reps[i] = newChaosReplica(t, p)
		transports[i] = &HTTPTransport{Base: reps[i].ts.URL}
	}
	rt, err := NewRouter(context.Background(), cfg, transports, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return reps, rt
}

// rowsByOwner groups global source rows by their owning partition.
func rowsByOwner(rt *Router, n int) map[int][]int {
	st := rt.state.Load()
	m := map[int][]int{}
	for row := 0; row < n; row++ {
		m[st.owner[row]] = append(m[st.owner[row]], row)
	}
	return m
}

func allKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprint(i)
	}
	return keys
}

// TestChaosReplicaKillMidGather kills one replica of a three-way fleet and
// asserts the partial-answer contract end to end over HTTP: 200 (never a
// 500), Engine-Partial header, "degraded":true on exactly the lost
// partition's sources, the reachable rows answered exactly as a request
// naming only them would be, the serve.partition.lost gauge raised — and
// full bit-identical recovery once the replica is back and probed.
func TestChaosReplicaKillMidGather(t *testing.T) {
	const n, nparts = 24, 3
	base := literalEngine(tiedTestMatrix(n))
	cfg := routerTestConfig()
	cfg.GatherTimeout = 2 * time.Second
	reg := obs.NewRegistry()
	reps, rt := chaosFleet(t, base, nparts, cfg, reg)

	srvCfg := testServerConfig()
	srvCfg.CacheSize = 0
	srv := NewServer(srvCfg, obs.NewRegistry())
	srv.SetAligner(rt)
	front := httptest.NewServer(srv.Handler())
	defer front.Close()

	keys := allKeys(n)
	baseStatus, baseline := postAlignRaw(t, front.Client(), front.URL, keys...)
	if baseStatus != http.StatusOK {
		t.Fatalf("healthy fleet answered %d: %s", baseStatus, baseline)
	}

	const lostPart = 1
	reps[lostPart].mode.Store(chaosKill)

	resp, err := front.Client().Post(front.URL+"/v1/align", "application/json", alignBody(keys...))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial answer status %d, want 200: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Engine-Partial") != "true" {
		t.Fatal("Engine-Partial header missing on a partial answer")
	}
	var partial alignResponse
	if err := json.Unmarshal(body, &partial); err != nil {
		t.Fatal(err)
	}
	if len(partial.Results) != n {
		t.Fatalf("partial answer has %d results, want %d", len(partial.Results), n)
	}

	owned := rowsByOwner(rt, n)
	lostRows := map[int]bool{}
	for _, row := range owned[lostPart] {
		lostRows[row] = true
	}
	if len(lostRows) == 0 {
		t.Fatalf("partition %d owns no rows; test corpus too small", lostPart)
	}
	var reachable []int
	for row := 0; row < n; row++ {
		if !lostRows[row] {
			reachable = append(reachable, row)
		}
	}
	want, err := base.AlignCollective(context.Background(), reachable, "")
	if err != nil {
		t.Fatal(err)
	}
	wi := 0
	for _, d := range partial.Results {
		if lostRows[d.SourceIndex] {
			if !d.Degraded || d.Matched || d.TargetIndex != -1 {
				t.Fatalf("lost source %d not answered as a degraded placeholder: %+v", d.SourceIndex, d)
			}
			continue
		}
		if d.Degraded {
			t.Fatalf("reachable source %d marked degraded", d.SourceIndex)
		}
		w := want[wi]
		w.Unilateral = false // not serialized; absent after the round trip
		wi++
		if !reflect.DeepEqual(d, w) {
			t.Fatalf("reachable source %d:\n got %+v\nwant %+v", d.SourceIndex, d, w)
		}
	}
	if got := reg.Gauge("serve.partition.lost").Value(); got != 1 {
		t.Fatalf("serve.partition.lost = %v, want 1", got)
	}
	if reg.Counter("serve.gather.partial").Value() == 0 {
		t.Fatal("serve.gather.partial never incremented")
	}

	// Recovery: replica back, probe loop notices, answers return to the
	// exact healthy bytes.
	reps[lostPart].mode.Store(chaosNormal)
	rt.probeOnce(context.Background())
	if got := reg.Gauge("serve.partition.lost").Value(); got != 0 {
		t.Fatalf("after recovery serve.partition.lost = %v, want 0", got)
	}
	status, recovered := postAlignRaw(t, front.Client(), front.URL, keys...)
	if status != http.StatusOK || string(recovered) != string(baseline) {
		t.Fatalf("recovery not bit-identical: status %d\n got %s\nwant %s", status, recovered, baseline)
	}
}

// TestChaosSlowReplicaHedgeWins puts a standby behind a slow primary: the
// hedged second request must win, the answer must be exactly the healthy
// answer (no double-counting, no duplicate rows), and the hedge counters
// must show the win.
func TestChaosSlowReplicaHedgeWins(t *testing.T) {
	const n, nparts = 16, 2
	base := literalEngine(tiedTestMatrix(n))
	parts, err := NewPartitions(base, nparts)
	if err != nil {
		t.Fatal(err)
	}
	standbyParts, err := NewPartitions(base, nparts)
	if err != nil {
		t.Fatal(err)
	}
	primary0 := newChaosReplica(t, parts[0])
	standby0 := newChaosReplica(t, standbyParts[0])
	rep1 := newChaosReplica(t, parts[1])

	cfg := routerTestConfig()
	cfg.DisableHedge = false
	cfg.HedgeDelay = 10 * time.Millisecond
	reg := obs.NewRegistry()
	rt, err := NewRouter(context.Background(), cfg, []Transport{
		&HTTPTransport{Base: primary0.ts.URL},
		&HTTPTransport{Base: standby0.ts.URL}, // second announcement of partition 0 → standby
		&HTTPTransport{Base: rep1.ts.URL},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	want, err := base.AlignCollective(context.Background(), rows, "")
	if err != nil {
		t.Fatal(err)
	}

	primary0.delay = 400 * time.Millisecond
	primary0.mode.Store(chaosSlow)

	got, err := rt.AlignCollective(context.Background(), rows, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hedged answer differs:\n got %+v\nwant %+v", got, want)
	}
	for _, d := range got {
		if d.Degraded {
			t.Fatalf("source %d degraded although the standby was healthy", d.SourceIndex)
		}
	}
	if reg.Counter("serve.replica.hedges").Value() == 0 {
		t.Fatal("hedge never fired against the slow primary")
	}
	if reg.Counter("serve.replica.hedge_wins").Value() == 0 {
		t.Fatal("hedge fired but never won")
	}
}

// TestChaosTornWireFrames damages the wire at both levels: a transport
// talking to a corrupting replica must surface typed ErrWireFrame errors
// (never panic, never accept the bytes), a garbage request frame must come
// back as a typed error frame and count serve.shard.bad_frames, and a
// router over a corrupting replica must degrade that partition rather than
// fail the request.
func TestChaosTornWireFrames(t *testing.T) {
	const n, nparts = 16, 2
	base := literalEngine(tiedTestMatrix(n))
	cfg := routerTestConfig()
	reg := obs.NewRegistry()
	reps, rt := chaosFleet(t, base, nparts, cfg, reg)

	// Transport level: every response from a corrupting replica is a typed
	// frame error.
	reps[0].mode.Store(chaosCorrupt)
	tr := &HTTPTransport{Base: reps[0].ts.URL}
	if _, err := tr.Meta(context.Background()); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("corrupted meta: err = %v, want ErrWireFrame", err)
	}
	owned := rowsByOwner(rt, n)
	if _, err := tr.Gather(context.Background(), 0, owned[0][:1], false); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("corrupted gather: err = %v, want ErrWireFrame", err)
	}

	// Replica level: a garbage request frame is refused with a typed error
	// frame under HTTP 200 and counted.
	resp, err := http.Post(reps[1].ts.URL+"/v1/shard", "application/octet-stream",
		bytes.NewReader([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05}))
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("garbage frame answered %d, want 200 + error frame", resp.StatusCode)
	}
	mt, payload, err := decodeWireFrame(frame)
	if err != nil || mt != wireMsgError {
		t.Fatalf("garbage frame answer: type %#x, err %v; want an error frame", mt, err)
	}
	// The replica's own ErrWireFrame identity is deliberately not carried
	// across the wire — to a client, a refused request is a remote error;
	// ErrWireFrame is reserved for damage to the bytes *it* received.
	if werr := decodeWireError(payload); !errors.Is(werr, ErrRemote) {
		t.Fatalf("error frame decodes to %v, want ErrRemote", werr)
	}
	if reps[1].reg.Counter("serve.shard.bad_frames").Value() == 0 {
		t.Fatal("serve.shard.bad_frames never incremented")
	}

	// Router level: the corrupting partition degrades, the other answers.
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	got, err := rt.AlignCollective(context.Background(), rows, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range got {
		wantDegraded := rt.state.Load().owner[d.SourceIndex] == 0
		if d.Degraded != wantDegraded {
			t.Fatalf("source %d degraded=%v, want %v", d.SourceIndex, d.Degraded, wantDegraded)
		}
	}
}

// TestChaosVersionSkewHotSwap walks a rolling hot-swap: one replica moves
// to the next engine version first, and until the whole fleet agrees the
// router must keep deciding at the old version — the early mover's rows
// degrade (counted as version skew), and no decision ever mixes rows from
// two versions. Once every replica reports the new version, one probe
// adopts it fleet-wide and full answers resume.
func TestChaosVersionSkewHotSwap(t *testing.T) {
	const n, nparts = 16, 2
	base := literalEngine(tiedTestMatrix(n))
	parts, err := NewPartitions(base, nparts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := routerTestConfig()
	var adopted atomic.Uint64
	cfg.OnVersion = func(v uint64) { adopted.Store(v) }
	reg := obs.NewRegistry()
	rt, err := NewRouter(context.Background(), cfg, []Transport{
		&LocalTransport{P: parts[0]}, &LocalTransport{P: parts[1]},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	baseline, err := rt.AlignCollective(context.Background(), rows, "")
	if err != nil {
		t.Fatal(err)
	}

	// Partition 1 swaps first; the router still routes at version 0.
	parts[1].SetVersion(1)
	mixed, err := rt.AlignCollective(context.Background(), rows, "")
	if err != nil {
		t.Fatal(err)
	}
	owner := rt.state.Load().owner
	for i, d := range mixed {
		if owner[d.SourceIndex] == 1 {
			if !d.Degraded {
				t.Fatalf("source %d on the swapped partition answered at a mixed version: %+v", d.SourceIndex, d)
			}
			continue
		}
		if d.Degraded {
			t.Fatalf("source %d on the unswapped partition degraded", d.SourceIndex)
		}
		// Reachable rows must answer exactly as the version-0 snapshot
		// restricted to them would; sanity-check the easy invariant here.
		_ = i
	}
	if reg.Counter("serve.replica.version_skew").Value() == 0 {
		t.Fatal("serve.replica.version_skew never incremented during the rolling swap")
	}
	if rt.Version() != 0 {
		t.Fatalf("router adopted version %d while the fleet disagreed", rt.Version())
	}

	// The fleet completes the swap; one probe adopts the new version.
	parts[0].SetVersion(1)
	rt.probeOnce(context.Background())
	if rt.Version() != 1 {
		t.Fatalf("router at version %d after fleet-wide swap, want 1", rt.Version())
	}
	if adopted.Load() != 1 {
		t.Fatalf("OnVersion reported %d, want 1", adopted.Load())
	}
	if reg.Counter("serve.router.version_adoptions").Value() != 1 {
		t.Fatal("version adoption not counted")
	}
	swapped, err := rt.AlignCollective(context.Background(), rows, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(swapped, baseline) {
		t.Fatalf("post-swap answers differ from baseline:\n got %+v\nwant %+v", swapped, baseline)
	}
}

// TestChaosPartitionLossBreakerGate drives the per-replica breaker state
// machine on a fake clock: sustained loss trips it open (fast-failing
// later requests), it holds open through the cooldown even after the
// replica is healthy again, and the first post-cooldown request half-opens
// it, probes, and recovers bit-identically.
func TestChaosPartitionLossBreakerGate(t *testing.T) {
	const n, nparts = 16, 2
	base := literalEngine(tiedTestMatrix(n))
	var clockNs atomic.Int64
	cfg := routerTestConfig()
	cfg.GatherTimeout = 2 * time.Second
	cfg.Breaker = BreakerConfig{
		Window: 4, MinSamples: 3, FailureThreshold: 0.5,
		Cooldown: time.Hour,
		Now:      func() time.Time { return time.Unix(0, clockNs.Load()) },
	}
	reg := obs.NewRegistry()
	reps, rt := chaosFleet(t, base, nparts, cfg, reg)

	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	baseline, err := rt.AlignCollective(context.Background(), rows, "")
	if err != nil {
		t.Fatal(err)
	}

	const lostPart = 0
	assertPartial := func(stage string) {
		t.Helper()
		got, err := rt.AlignCollective(context.Background(), rows, "")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		owner := rt.state.Load().owner
		for _, d := range got {
			if want := owner[d.SourceIndex] == lostPart; d.Degraded != want {
				t.Fatalf("%s: source %d degraded=%v, want %v", stage, d.SourceIndex, d.Degraded, want)
			}
		}
	}

	reps[lostPart].mode.Store(chaosKill)
	assertPartial("during outage") // three failed tries trip the breaker
	link := rt.replicas[lostPart].links[0]
	if link.breaker.State() != BreakerOpen {
		t.Fatalf("breaker %v after sustained loss, want open", link.breaker.State())
	}
	assertPartial("breaker open") // fast-fail path: no transport attempts admitted

	// Replica restored, but the cooldown has not elapsed: the breaker keeps
	// gating, so the partition stays degraded — deterministically.
	reps[lostPart].mode.Store(chaosNormal)
	assertPartial("healthy but cooling down")
	if link.breaker.State() != BreakerOpen {
		t.Fatalf("breaker %v during cooldown, want open", link.breaker.State())
	}

	// Cooldown elapses: the next request's Allow half-opens the breaker,
	// the probe succeeds, and answers return to the exact healthy bytes.
	clockNs.Add(int64(2 * time.Hour))
	recovered, err := rt.AlignCollective(context.Background(), rows, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recovered, baseline) {
		t.Fatalf("post-cooldown recovery differs from baseline:\n got %+v\nwant %+v", recovered, baseline)
	}
	if link.breaker.State() != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", link.breaker.State())
	}
	rt.probeOnce(context.Background())
	if got := reg.Gauge("serve.partition.lost").Value(); got != 0 {
		t.Fatalf("serve.partition.lost = %v after recovery, want 0", got)
	}
}
