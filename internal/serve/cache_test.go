package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ceaff/internal/mat"
	"ceaff/internal/obs"
)

// modelLRU is a deliberately naive reference implementation: a slice ordered
// most-recent-first. The property test drives it and resultCache with the
// same operation stream and demands identical observable behaviour.
type modelLRU struct {
	cap  int
	keys []cacheKey
	vals map[cacheKey]any
}

func newModelLRU(capacity int) *modelLRU {
	return &modelLRU{cap: capacity, vals: map[cacheKey]any{}}
}

func (m *modelLRU) touch(key cacheKey) {
	for i, k := range m.keys {
		if k == key {
			m.keys = append(m.keys[:i], m.keys[i+1:]...)
			break
		}
	}
	m.keys = append([]cacheKey{key}, m.keys...)
}

func (m *modelLRU) get(key cacheKey) (any, bool) {
	v, ok := m.vals[key]
	if ok {
		m.touch(key)
	}
	return v, ok
}

func (m *modelLRU) put(key cacheKey, val any) {
	if _, ok := m.vals[key]; ok {
		m.vals[key] = val
		m.touch(key)
		return
	}
	m.vals[key] = val
	m.touch(key)
	if len(m.keys) > m.cap {
		victim := m.keys[len(m.keys)-1]
		m.keys = m.keys[:len(m.keys)-1]
		delete(m.vals, victim)
	}
}

// TestCacheEvictionOrderProperty drives the cache and the reference model
// with a randomized get/put stream and requires every lookup to agree —
// which pins the eviction order, since a divergent victim choice surfaces
// as a hit/miss mismatch on a later get.
func TestCacheEvictionOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		capacity := 1 + r.Intn(8)
		c := newResultCache(capacity, obs.NewRegistry())
		m := newModelLRU(capacity)
		keyspace := capacity * 3
		for op := 0; op < 2000; op++ {
			key := cacheKey{
				version: uint64(r.Intn(2)),
				kind:    byte("ac"[r.Intn(2)]),
				row:     r.Intn(keyspace),
				k:       r.Intn(2),
			}
			if r.Intn(2) == 0 {
				val := op
				c.put(key, val)
				m.put(key, val)
			} else {
				gv, gok := c.get(key)
				wv, wok := m.get(key)
				if gok != wok || (gok && gv.(int) != wv.(int)) {
					t.Fatalf("trial %d op %d key %+v: cache (%v,%v) != model (%v,%v)",
						trial, op, key, gv, gok, wv, wok)
				}
			}
			if c.len() != len(m.keys) {
				t.Fatalf("trial %d op %d: cache len %d != model len %d", trial, op, c.len(), len(m.keys))
			}
		}
	}
}

func TestCacheVersionKeying(t *testing.T) {
	c := newResultCache(8, obs.NewRegistry())
	k1 := cacheKey{version: 1, kind: cacheKindAlign, row: 3, k: 5}
	c.put(k1, "v1-answer")
	k2 := k1
	k2.version = 2
	if _, ok := c.get(k2); ok {
		t.Fatal("version 2 lookup returned a version 1 entry")
	}
	if v, ok := c.get(k1); !ok || v != "v1-answer" {
		t.Fatalf("version 1 lookup: %v, %v", v, ok)
	}
	// Kind and k are part of the key too.
	if _, ok := c.get(cacheKey{version: 1, kind: cacheKindCandidates, row: 3, k: 5}); ok {
		t.Fatal("candidates lookup returned an align entry")
	}
	if _, ok := c.get(cacheKey{version: 1, kind: cacheKindAlign, row: 3, k: 6}); ok {
		t.Fatal("different-k lookup hit")
	}
}

func TestCacheResetAndNil(t *testing.T) {
	reg := obs.NewRegistry()
	c := newResultCache(4, reg)
	for i := 0; i < 4; i++ {
		c.put(cacheKey{version: 1, kind: cacheKindAlign, row: i}, i)
	}
	c.Reset()
	if c.len() != 0 {
		t.Fatalf("post-reset len %d", c.len())
	}
	if _, ok := c.get(cacheKey{version: 1, kind: cacheKindAlign, row: 0}); ok {
		t.Fatal("hit after reset")
	}
	// Reset must not break subsequent inserts.
	c.put(cacheKey{version: 2, kind: cacheKindAlign, row: 9}, "fresh")
	if v, ok := c.get(cacheKey{version: 2, kind: cacheKindAlign, row: 9}); !ok || v != "fresh" {
		t.Fatalf("post-reset insert: %v, %v", v, ok)
	}

	// The nil cache (CacheSize 0) is inert but safe.
	var nc *resultCache
	nc.put(cacheKey{}, 1)
	if _, ok := nc.get(cacheKey{}); ok {
		t.Fatal("nil cache hit")
	}
	nc.Reset()
	if nc.len() != 0 {
		t.Fatal("nil cache len")
	}
	if newResultCache(0, reg) != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
}

func TestCacheEvictionMetric(t *testing.T) {
	reg := obs.NewRegistry()
	c := newResultCache(2, reg)
	for i := 0; i < 5; i++ {
		c.put(cacheKey{row: i}, i)
	}
	if got := reg.Counter("serve.cache.evictions").Value(); got != 3 {
		t.Fatalf("evictions counter %v, want 3", got)
	}
}

// TestCacheResponseBitIdentity pins the result cache's correctness:
// concurrent requests answered by a caching server — misses on the first
// round, cache hits on the second — return byte-for-byte
// the responses an uncached server produces for the same keys. Runs in the
// GOMAXPROCS=1/4 determinism suite.
func TestCacheResponseBitIdentity(t *testing.T) {
	const n = 24
	engine := literalEngine(tiedTestMatrix(n))

	plainCfg := testServerConfig()
	plainCfg.CacheSize = 0
	plain := NewServer(plainCfg, obs.NewRegistry())
	plain.SetAligner(engine)
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()

	fastCfg := testServerConfig()
	fastCfg.CacheSize = 64
	fastCfg.MaxInFlight = 64
	fastCfg.MaxQueue = 256
	fast := NewServer(fastCfg, obs.NewRegistry())
	fast.SetAligner(engine)
	fastTS := httptest.NewServer(fast.Handler())
	defer fastTS.Close()

	// Reference answers from the plain server, one request per key set.
	r := rand.New(rand.NewSource(77))
	type query struct{ keys []string }
	queries := make([]query, 64)
	for i := range queries {
		nkeys := 1 + r.Intn(3)
		seen := map[int]bool{}
		var keys []string
		for len(keys) < nkeys {
			row := r.Intn(n)
			if !seen[row] {
				seen[row] = true
				keys = append(keys, fmt.Sprint(row))
			}
		}
		queries[i] = query{keys: keys}
	}
	client := plainTS.Client()
	want := make([][]byte, len(queries))
	for i, q := range queries {
		status, body := postAlignRaw(t, client, plainTS.URL, q.keys...)
		if status != http.StatusOK {
			t.Fatalf("plain query %v: status %d", q.keys, status)
		}
		want[i] = body
	}

	// Fire all queries at the caching server concurrently, twice — the
	// second round answers single-source queries from the cache. Every
	// response must match the plain server's bytes.
	fc := fastTS.Client()
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make(chan string, len(queries))
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q query) {
				defer wg.Done()
				status, body := postAlignRaw(t, fc, fastTS.URL, q.keys...)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("round %d query %v: status %d", round, q.keys, status)
					return
				}
				if string(body) != string(want[i]) {
					errs <- fmt.Sprintf("round %d query %v:\n got %s\nwant %s", round, q.keys, body, want[i])
				}
			}(i, q)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}

	// The second round actually hit the cache.
	if hits := fast.reg.Counter("serve.cache.hits").Value(); hits == 0 {
		t.Fatal("second round produced no cache hits")
	}
}

// TestCacheInvalidationOnHotSwap is the chaos-style satellite: answers
// cached under one engine version must never be served after a Publish,
// even for the same source key.
func TestCacheInvalidationOnHotSwap(t *testing.T) {
	cfg := testServerConfig()
	cfg.CacheSize = 64
	srv := NewServer(cfg, obs.NewRegistry())

	v1 := literalEngine(mat.FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}}))
	srv.Publish(v1, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	_, body1 := postAlignRaw(t, client, ts.URL, "0")
	_, again := postAlignRaw(t, client, ts.URL, "0")
	if string(body1) != string(again) {
		t.Fatalf("cached answer differs:\n%s\n%s", body1, again)
	}
	if srv.reg.Counter("serve.cache.hits").Value() == 0 {
		t.Fatal("repeat query did not hit the cache")
	}

	// Swap in an engine whose row 0 prefers the other target. A stale
	// cached answer would still name target A.
	v2 := literalEngine(mat.FromRows([][]float64{{0.1, 0.9}, {0.8, 0.2}}))
	srv.Publish(v2, 2)
	_, body2 := postAlignRaw(t, client, ts.URL, "0")
	if string(body2) == string(body1) {
		t.Fatalf("post-swap answer identical to pre-swap: %s", body2)
	}
	var resp alignResponse
	if err := json.Unmarshal(body2, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].TargetIndex != 1 {
		t.Fatalf("post-swap target %d, want 1 (stale cache?)", resp.Results[0].TargetIndex)
	}

	// Candidates go through the same versioned keys.
	cresp, err := client.Get(ts.URL + "/v1/entity/0/candidates?k=1")
	if err != nil {
		t.Fatal(err)
	}
	cbody, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	var cands struct {
		Candidates []Candidate `json:"candidates"`
	}
	if err := json.Unmarshal(cbody, &cands); err != nil {
		t.Fatal(err)
	}
	if len(cands.Candidates) != 1 || cands.Candidates[0].TargetIndex != 1 {
		t.Fatalf("post-swap candidates %+v, want target 1 first", cands.Candidates)
	}
}
