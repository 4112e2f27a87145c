package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func accept(*request, int, http.Header, []byte) (uint64, error) { return 0, nil }

// stallServer answers at once, except the request to /stall, which it
// holds for stall.
func stallServer(stall time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
}

func TestScheduleIsFixed(t *testing.T) {
	if schedule(0, 200) != 0 || schedule(1, 200) != 5*time.Millisecond || schedule(400, 200) != 2*time.Second {
		t.Errorf("schedule(i, 200/s) must put request i at i*5ms")
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	srv := stallServer(150 * time.Millisecond)
	defer srv.Close()
	g := newLoadgen(srv.URL, 1, 2*time.Second, accept)
	defer g.close()
	reqs := make([]request, 40)
	for i := range reqs {
		reqs[i].path = "/ok"
	}
	reqs[0].path = "/stall"
	outs := g.run(context.Background(), reqs, 200) // one every 5 ms
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.due != schedule(i, 200) {
			t.Errorf("request %d due at %v, want %v", i, o.due, schedule(i, 200))
		}
		if late := o.queued - o.due; late > 20*time.Millisecond {
			t.Errorf("request %d handed over %v late: the dispatcher must keep the schedule", i, late)
		}
	}
	// Request 10 was due at 50 ms but its only connection was busy until
	// about 150 ms: its latency includes that wait although the server
	// answered it at once.
	o := outs[10]
	if lat := o.done - o.due; lat < 90*time.Millisecond {
		t.Errorf("latency from due time %v, want the ~100 ms spent waiting for the connection", lat)
	}
	if o.sent-o.due < 90*time.Millisecond {
		t.Errorf("send lateness %v, want ~100 ms", o.sent-o.due)
	}
	if lateMs(outs)[len(outs)-1] < 90 {
		t.Errorf("lateness accounting missed the stall")
	}
}

func TestLatenessCapFailsUnsentRequests(t *testing.T) {
	srv := stallServer(300 * time.Millisecond)
	defer srv.Close()
	g := newLoadgen(srv.URL, 1, 2*time.Second, accept)
	defer g.close()
	g.maxLate = 50 * time.Millisecond
	reqs := make([]request, 60)
	for i := range reqs {
		reqs[i].path = "/ok"
	}
	reqs[0].path = "/stall"
	outs := g.run(context.Background(), reqs, 200)
	tooLate := 0
	for _, o := range outs {
		if errors.Is(o.err, errTooLate) {
			tooLate++
			if !o.failed() {
				t.Errorf("a request never sent must count as failed")
			}
		}
	}
	// Requests due before ~250 ms are over 50 ms late once the stall ends
	// at ~300 ms; the tail of the schedule is sent on time again.
	if tooLate < 30 || tooLate > 58 {
		t.Errorf("%d requests dropped as too late, want most of those due during the stall", tooLate)
	}
	if outs[len(outs)-1].err != nil {
		t.Errorf("the last request, due after the stall, must succeed: %v", outs[len(outs)-1].err)
	}
}

func TestCheckFailuresReachOutcomes(t *testing.T) {
	srv := stallServer(0)
	defer srv.Close()
	g := newLoadgen(srv.URL, 2, time.Second, answerChecker{nTargets: 10}.check)
	defer g.close()
	reqs := []request{{path: "/v1/align", body: []byte(`{}`), rows: []int{1}}}
	outs := g.run(context.Background(), reqs, 100)
	if !outs[0].failed() || !outs[0].wrong {
		t.Errorf("an empty answer body must fail the output check as wrong: %+v", outs[0])
	}
}
