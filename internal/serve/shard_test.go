package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"ceaff/internal/obs"
)

// newLocalRouter splits base into nparts partitions and serves them through
// a Router over in-process LocalTransports with the production router
// defaults — the `ceaffd -shards N` topology.
func newLocalRouter(t *testing.T, base *Engine, nparts int) (*Router, []*Partition) {
	t.Helper()
	parts, err := NewPartitions(base, nparts)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]Transport, len(parts))
	for i, p := range parts {
		ts[i] = &LocalTransport{P: p}
	}
	rt, err := NewRouter(context.Background(), DefaultRouterConfig(), ts, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, parts
}

// TestShardedEngineBitIdentity pins the sharded topology's contract: for
// any partition count, a Router over in-process partitions answers every
// query — collective, greedy, candidates — bit-identically to the
// unsharded engine. Runs in the GOMAXPROCS=1/4 determinism suite.
func TestShardedEngineBitIdentity(t *testing.T) {
	const n = 30
	base := literalEngine(tiedTestMatrix(n))
	ctx := context.Background()
	r := rand.New(rand.NewSource(13))

	for _, nparts := range []int{1, 3, 8} {
		rt, parts := newLocalRouter(t, base, nparts)
		if rt.NumSources() != base.NumSources() {
			t.Fatalf("%d partitions: NumSources %d != %d", nparts, rt.NumSources(), base.NumSources())
		}
		if rt.NumPartitions() != nparts {
			t.Fatalf("%d partitions: router reports %d", nparts, rt.NumPartitions())
		}
		// Partition sanity: every row owned exactly once, by the partition
		// the router routes it to.
		owner := rt.state.Load().owner
		total := 0
		for _, p := range parts {
			total += p.Owned()
		}
		if total != n {
			t.Fatalf("%d partitions: partition covers %d rows, want %d", nparts, total, n)
		}
		for row := 0; row < n; row++ {
			owners := 0
			for i, p := range parts {
				if p.Owns(row) {
					owners++
					if owner[row] != i {
						t.Fatalf("%d partitions: row %d owned by %d, routed to %d", nparts, row, i, owner[row])
					}
				}
			}
			if owners != 1 {
				t.Fatalf("%d partitions: row %d owned %d times", nparts, row, owners)
			}
		}

		for trial := 0; trial < 30; trial++ {
			nrows := 1 + r.Intn(6)
			seen := map[int]bool{}
			var rows []int
			for len(rows) < nrows {
				row := r.Intn(n)
				if !seen[row] {
					seen[row] = true
					rows = append(rows, row)
				}
			}
			want, err := base.AlignCollective(ctx, rows, "")
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.AlignCollective(ctx, rows, "")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d partitions rows %v:\n got %+v\nwant %+v", nparts, rows, got, want)
			}
			if gg, wg := rt.AlignGreedy(rows), base.AlignGreedy(rows); !reflect.DeepEqual(gg, wg) {
				t.Fatalf("%d partitions greedy rows %v:\n got %+v\nwant %+v", nparts, rows, gg, wg)
			}
			wantC, err := base.Candidates(ctx, rows[0], 1+r.Intn(5))
			if err != nil {
				t.Fatal(err)
			}
			gotC, err := rt.Candidates(ctx, rows[0], len(wantC))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("%d partitions candidates row %d:\n got %+v\nwant %+v", nparts, rows[0], gotC, wantC)
			}
		}
	}

	if _, err := NewPartitions(base, 0); err == nil {
		t.Fatal("0 partitions accepted")
	}
}

// TestShardedServerResponseBitIdentity drives full HTTP: a sharded server
// under concurrent load answers byte-identically to the unsharded one.
func TestShardedServerResponseBitIdentity(t *testing.T) {
	const n = 24
	base := literalEngine(tiedTestMatrix(n))
	rt, _ := newLocalRouter(t, base, 4)

	mk := func(a Aligner) (*Server, *httptest.Server) {
		cfg := testServerConfig()
		cfg.CacheSize = 0
		srv := NewServer(cfg, obs.NewRegistry())
		srv.SetAligner(a)
		return srv, httptest.NewServer(srv.Handler())
	}
	_, plainTS := mk(base)
	defer plainTS.Close()
	_, shardTS := mk(rt)
	defer shardTS.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []string{fmt.Sprint(i % n), fmt.Sprint((i + 7) % n)}
			ps, pb := postAlignRaw(t, plainTS.Client(), plainTS.URL, keys...)
			ss, sb := postAlignRaw(t, shardTS.Client(), shardTS.URL, keys...)
			if ps != http.StatusOK || ss != http.StatusOK {
				errs <- fmt.Sprintf("keys %v: statuses %d/%d", keys, ps, ss)
				return
			}
			if string(pb) != string(sb) {
				errs <- fmt.Sprintf("keys %v:\nplain %s\nshard %s", keys, pb, sb)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRingProperties pins the router's hashing: deterministic ownership,
// and rough balance at realistic shard counts.
func TestRingProperties(t *testing.T) {
	ring := buildRing(4)
	for i := 1; i < len(ring); i++ {
		if ring[i].hash < ring[i-1].hash {
			t.Fatal("ring not sorted")
		}
	}
	counts := map[int]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("entity-%d", i)
		s := ringOwner(ring, k)
		if again := ringOwner(ring, k); again != s {
			t.Fatalf("ownership of %q not deterministic", k)
		}
		counts[s]++
	}
	for s := 0; s < 4; s++ {
		frac := float64(counts[s]) / keys
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("shard %d owns %.1f%% of keys — ring badly imbalanced", s, 100*frac)
		}
	}
}
