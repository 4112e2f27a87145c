package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// request is one pre-generated call: an align POST when body is set, a
// candidates GET otherwise.
type request struct {
	path string
	body []byte
	rows []int // requested source indices, in request order
	k    int   // candidates: list length asked for
}

// outcome records one request's schedule and result. Times are offsets
// from the start of its schedule.
type outcome struct {
	due    time.Duration // when it was due to be sent
	queued time.Duration // when the dispatcher handed it to a connection
	sent   time.Duration // when a connection started sending it
	done   time.Duration // when the whole answer was read
	err    error         // transport error, non-200, or failed output check
	wrong  bool          // a 200 answer that broke the output contract
	hits   uint64        // bit i: row i was matched to its gold target
}

func (o outcome) failed() bool { return o.err != nil }

// errTooLate marks a request dropped because its connection could not
// send it within maxLate of its due time; it counts as failed.
var errTooLate = errors.New("not sent within the lateness cap")

// checkFunc validates one answer; hits reports per-row correctness. A
// *checkError with wrong set marks a broken output contract.
type checkFunc func(req *request, status int, h http.Header, body []byte) (hits uint64, err error)

// loadgen sends pre-generated requests on a fixed schedule (open loop)
// over a fixed set of keep-alive connections, one per worker.
type loadgen struct {
	base    string
	clients []*http.Client
	check   checkFunc
	// maxLate caps how late a request may be sent; later ones fail unsent,
	// which bounds how long an overloaded rung can run over its schedule.
	maxLate time.Duration
	// pauseGC stops this process's garbage collector while a schedule
	// runs, so the generator's own pauses stay out of the latencies it
	// measures. Only for a generator that shares its process with nothing
	// under test.
	pauseGC bool
}

func newLoadgen(base string, conns int, timeout time.Duration, check checkFunc) *loadgen {
	g := &loadgen{base: base, check: check, maxLate: time.Second}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

// close drops the idle keep-alive connections.
func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// schedule returns the due offset of request i at rate per second.
func schedule(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// run sends reqs at rate and returns one outcome per request, in schedule
// order. Latency is measured from each request's due time, so a stall
// shows in every request it delays. The call returns once every request
// has completed or failed.
func (g *loadgen) run(ctx context.Context, reqs []request, rate float64) []outcome {
	if g.pauseGC {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// The limit still collects if a schedule's garbage grows past it.
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	}
	outs := make([]outcome, len(reqs))
	for i := range outs {
		outs[i].due = schedule(i, rate)
	}
	// The queue holds every request, so the dispatcher never blocks on a
	// busy connection: waiting for one is part of the measured latency.
	queue := make(chan int, len(reqs))
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				g.do(ctx, c, start, &reqs[i], &outs[i])
			}
		}(c)
	}
	for i := range reqs {
		if wait := time.Until(start.Add(outs[i].due)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		outs[i].queued = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return outs
}

func (g *loadgen) do(ctx context.Context, c *http.Client, start time.Time, req *request, o *outcome) {
	o.sent = time.Since(start)
	if o.sent-o.due > g.maxLate {
		o.done, o.err = o.sent, errTooLate
		return
	}
	if err := ctx.Err(); err != nil {
		o.done, o.err = o.sent, err
		return
	}
	status, h, body, err := g.roundTrip(ctx, c, req)
	o.done = time.Since(start)
	if err != nil {
		o.err = err
		return
	}
	o.hits, o.err = g.check(req, status, h, body)
	var ce *checkError
	o.wrong = errors.As(o.err, &ce) && ce.wrong
}

func (g *loadgen) roundTrip(ctx context.Context, c *http.Client, req *request) (int, http.Header, []byte, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if req.body != nil {
		method, body = http.MethodPost, bytes.NewReader(req.body)
	}
	hr, err := http.NewRequestWithContext(ctx, method, g.base+req.path, body)
	if err != nil {
		return 0, nil, nil, err
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read answer: %w", err)
	}
	return resp.StatusCode, resp.Header, b, nil
}
