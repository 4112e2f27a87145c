package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending).
// Failed requests enter as +Inf, so a percentile that lands on a failure
// reads +Inf: a failure counts as over any latency limit.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of a small sample, averaging the middle pair of an even one;
// NaN when empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// latenciesMs returns each outcome's latency from its scheduled send in
// milliseconds, ascending, with failures as +Inf.
func latenciesMs(outs []outcome) []float64 {
	l := make([]float64, len(outs))
	for i, o := range outs {
		if o.failed() {
			l[i] = math.Inf(1)
		} else {
			l[i] = ms(o.done - o.due)
		}
	}
	sort.Float64s(l)
	return l
}

// lateMs returns how late each request was sent relative to its schedule,
// in milliseconds, ascending.
func lateMs(outs []outcome) []float64 {
	l := make([]float64, len(outs))
	for i, o := range outs {
		l[i] = ms(o.sent - o.due)
	}
	sort.Float64s(l)
	return l
}

// dispatchLateMs returns how late the dispatcher handed each request to
// the connections, in milliseconds, ascending: the generator's own lag.
func dispatchLateMs(outs []outcome) []float64 {
	l := make([]float64, len(outs))
	for i, o := range outs {
		l[i] = ms(o.queued - o.due)
	}
	sort.Float64s(l)
	return l
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rung is the outcome of one fixed rate on the capacity ladder.
type rung struct {
	Rate    float64 // scheduled requests per second
	P99ms   float64 // +Inf when a failure lands on the 99th percentile
	Errors  int     // failed requests
	Backlog bool    // latency grew across the rung
	Goodput float64 // successful requests per second over the rung
}

// p99LimitMs is the latency limit a ladder rate must meet.
const p99LimitMs = 50

// pass is the ladder rule: p99 within the limit, no failed request, and
// no growing backlog.
func (r rung) pass() bool {
	return r.P99ms <= p99LimitMs && r.Errors == 0 && !r.Backlog
}

// measureRung summarizes one rung's outcomes, listed in schedule order.
func measureRung(rate float64, outs []outcome) rung {
	r := rung{Rate: rate, Backlog: backlogGrowing(outs)}
	lat := latenciesMs(outs)
	r.P99ms = quantile(lat, 0.99)
	ok := 0
	var first, last time.Duration
	for i, o := range outs {
		if o.failed() {
			r.Errors++
			continue
		}
		ok++
		if i == 0 || o.due < first {
			first = o.due
		}
		if o.done > last {
			last = o.done
		}
	}
	if span := last - first; ok > 1 && span > 0 {
		r.Goodput = float64(ok) / span.Seconds()
	}
	return r
}

// backlogGrowing reports whether requests queued up over the rung: the
// median latency of the last quarter of the schedule is more than twice
// that of the first quarter plus one millisecond. A steady server keeps
// both quarters alike however slow it is; a saturated one falls further
// behind with every request. Failures count as +Inf latency.
func backlogGrowing(outs []outcome) bool {
	q := len(outs) / 4
	if q < 4 {
		return false
	}
	first := latenciesMs(outs[:q])
	last := latenciesMs(outs[len(outs)-q:])
	return quantile(last, 0.5) > 2*quantile(first, 0.5)+1
}

// ladderRates is a workload's fixed capacity ladder: 4% steps from its
// nominal rate up to its ceiling, which caps what a run can report.
func ladderRates(nominal, ceiling float64) []float64 {
	var rates []float64
	for r := nominal; r <= ceiling; r *= 1.04 {
		rates = append(rates, r)
	}
	return rates
}

// searchLadder bisects the ladder for the highest rate that passes,
// assuming a rate passes when every lower one does. probe measures the
// rate at one ladder index; a rate fails only when a second probe fails too, so one transient
// stall on a shared machine cannot sink it. It returns every rung probed
// in order, and the index of the best passing one within that list (-1
// when none passed).
func searchLadder(rates []float64, probe func(k int) rung) (probed []rung, best int) {
	lo, hi := -1, len(rates) // rates[lo] passes, rates[hi] fails
	best = -1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := probe(mid)
		probed = append(probed, r)
		if !r.pass() {
			r = probe(mid)
			probed = append(probed, r)
		}
		if r.pass() {
			lo, best = mid, len(probed)-1
		} else {
			hi = mid
		}
	}
	return probed, best
}
