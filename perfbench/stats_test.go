package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// okOut is a successful outcome due at due that took lat.
func okOut(due, lat time.Duration) outcome {
	return outcome{due: due, queued: due, sent: due, done: due + lat}
}

func failOut(due time.Duration) outcome {
	return outcome{due: due, queued: due, sent: due, done: due + time.Millisecond, err: errors.New("status 429")}
}

func TestPercentileCountsFailuresOverLimit(t *testing.T) {
	var outs []outcome
	for i := 0; i < 98; i++ {
		outs = append(outs, okOut(0, time.Duration(i+1)*time.Millisecond))
	}
	// Two fast failures: if they counted by their own short latency the
	// p99 would be 98 ms; as failures they sit above every success.
	outs = append(outs, failOut(0), failOut(0))
	lat := latenciesMs(outs)
	if got := quantile(lat, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := quantile(lat, 0.98); got != 98 {
		t.Errorf("p98 = %v, want 98", got)
	}
	if got := quantile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf: a failure is over any limit", got)
	}
	if capped(quantile(lat, 0.99)) != ms(requestTimeout) {
		t.Errorf("an infinite percentile must report as the client timeout")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {0.99, 4}, {1, 4}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if median([]float64{3, 1}) != 2 || median([]float64{5, 1, 3}) != 3 {
		t.Errorf("median must average the middle pair of an even sample")
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Errorf("quantile of nothing must be NaN")
	}
}

// steady returns n successes at rate with a constant latency.
func steady(n int, rate float64, lat time.Duration) []outcome {
	outs := make([]outcome, n)
	for i := range outs {
		outs[i] = okOut(schedule(i, rate), lat)
	}
	return outs
}

func TestBacklogGrowing(t *testing.T) {
	if backlogGrowing(steady(400, 400, 20*time.Millisecond)) {
		t.Errorf("constant latency, even a slow one, is no backlog")
	}
	// Each request waits 0.2 ms longer than the one before: the server
	// serves slower than the schedule sends.
	growing := make([]outcome, 400)
	for i := range growing {
		growing[i] = okOut(schedule(i, 400), time.Millisecond+time.Duration(i)*200*time.Microsecond)
	}
	if !backlogGrowing(growing) {
		t.Errorf("linearly growing latency must count as a backlog")
	}
	if backlogGrowing(growing[:12]) {
		t.Errorf("too few requests to judge must not count as a backlog")
	}
}

func TestRungRule(t *testing.T) {
	good := measureRung(400, steady(400, 400, 5*time.Millisecond))
	if !good.pass() {
		t.Fatalf("steady 5 ms rung must pass: %+v", good)
	}
	if math.Abs(good.Goodput-400)/400 > 0.01 {
		t.Errorf("goodput %v, want about 400/s", good.Goodput)
	}
	slow := measureRung(400, steady(400, 400, 60*time.Millisecond))
	if slow.pass() {
		t.Errorf("p99 over %d ms must fail: %+v", p99LimitMs, slow)
	}
	errs := steady(400, 400, time.Millisecond)
	errs[200] = failOut(errs[200].due)
	if r := measureRung(400, errs); r.pass() || r.Errors != 1 {
		t.Errorf("one failed request must fail the rung: %+v", r)
	}
	grow := make([]outcome, 400)
	for i := range grow {
		grow[i] = okOut(schedule(i, 400), time.Millisecond+time.Duration(i)*50*time.Microsecond)
	}
	if r := measureRung(400, grow); r.pass() || !r.Backlog || r.P99ms > p99LimitMs {
		t.Errorf("a growing backlog under the latency limit must still fail: %+v", r)
	}
}

func TestSearchLadderFindsHighestPassingRate(t *testing.T) {
	rates := ladderRates(100, 400)
	if rates[0] != 100 || rates[len(rates)-1] > 400 || rates[len(rates)-1]*1.04 <= 400 {
		t.Fatalf("ladder spans %v..%v, want 100..400", rates[0], rates[len(rates)-1])
	}
	for _, capacity := range []float64{10, 101, 160, 350, 1000} {
		var probes int
		probed, best := searchLadder(rates, func(k int) rung {
			probes++
			rate := rates[k]
			r := rung{Rate: rate, P99ms: 1, Goodput: rate}
			if rate > capacity {
				r.P99ms = math.Inf(1)
				r.Errors = 1
			}
			return r
		})
		want := -1.0
		for _, r := range rates {
			if r <= capacity {
				want = r
			}
		}
		got := -1.0
		if best >= 0 {
			got = probed[best].Rate
		}
		if got != want {
			t.Errorf("capacity %v: best rate %v, want %v", capacity, got, want)
		}
		if probes > 12 || probes != len(probed) {
			t.Errorf("capacity %v: %d probes for %d rungs", capacity, probes, len(rates))
		}
	}
}

func TestSearchLadderRetriesAFailedRate(t *testing.T) {
	rates := ladderRates(100, 400)
	tries := map[float64]int{}
	probed, best := searchLadder(rates, func(k int) rung {
		rate := rates[k]
		tries[rate]++
		r := rung{Rate: rate, P99ms: 1, Goodput: rate}
		if tries[rate] == 1 || rate > 200 {
			r.Errors = 1 // every first try stalls; above 200/s every try fails
		}
		return r
	})
	if best < 0 || probed[best].Rate > 200 || probed[best].Rate*1.04 <= 200 {
		t.Fatalf("one transient failure per rate moved the result: best %+v", probed)
	}
	for rate, n := range tries {
		if n != 2 {
			t.Errorf("rate %v probed %d times, want a retry after its first failure", rate, n)
		}
	}
}
