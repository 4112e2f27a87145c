package main

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// checkError is a failed answer. wrong marks answers that broke the output
// contract (malformed, misordered, out of range, duplicate targets); the
// others — non-200, degraded or partial answers — are failures a server
// may legitimately return under overload.
type checkError struct {
	wrong bool
	msg   string
}

func (e *checkError) Error() string { return e.msg }

func failure(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

func wrongAnswer(format string, args ...any) error {
	return &checkError{wrong: true, msg: fmt.Sprintf(format, args...)}
}

// alignAnswer is the part of a POST /v1/align answer the checks read.
type alignAnswer struct {
	Degraded *bool `json:"degraded"`
	Results  []struct {
		SourceIndex int   `json:"source_index"`
		TargetIndex int   `json:"target_index"`
		Matched     *bool `json:"matched"`
		Degraded    bool  `json:"degraded"`
	} `json:"results"`
}

// candidate is the part of a candidates entry the checks read.
type candidate struct {
	TargetIndex int      `json:"target_index"`
	Score       *float64 `json:"score"`
	Rank        int      `json:"rank"`
}

// answerChecker validates answers against a corpus with nTargets test
// targets, where source i's gold target is target i.
type answerChecker struct{ nTargets int }

func (c answerChecker) check(req *request, status int, h http.Header, body []byte) (uint64, error) {
	if status != http.StatusOK {
		return 0, failure("status %d: %.200s", status, body)
	}
	if h.Get("Engine-Partial") == "true" {
		return 0, failure("Engine-Partial answer")
	}
	if req.body == nil {
		return 0, c.candidates(req, body)
	}
	return c.align(req, body)
}

// align checks: not degraded, one result per source in request order,
// matched targets in range and pairwise distinct within the batch.
func (c answerChecker) align(req *request, body []byte) (uint64, error) {
	var a alignAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, wrongAnswer("malformed align answer: %v", err)
	}
	if a.Degraded == nil {
		return 0, wrongAnswer("align answer lacks \"degraded\"")
	}
	if *a.Degraded {
		return 0, failure("degraded answer")
	}
	if len(a.Results) != len(req.rows) {
		return 0, wrongAnswer("%d results for %d sources", len(a.Results), len(req.rows))
	}
	var hits uint64
	seen := make(map[int]bool, len(a.Results))
	for i, r := range a.Results {
		if r.Degraded {
			return 0, failure("source %d answered degraded", r.SourceIndex)
		}
		if r.SourceIndex != req.rows[i] {
			return 0, wrongAnswer("result %d is source %d, want %d", i, r.SourceIndex, req.rows[i])
		}
		if r.Matched == nil {
			return 0, wrongAnswer("result %d lacks \"matched\"", i)
		}
		if !*r.Matched {
			if r.TargetIndex != -1 {
				return 0, wrongAnswer("unmatched source %d has target %d", r.SourceIndex, r.TargetIndex)
			}
			continue
		}
		if r.TargetIndex < 0 || r.TargetIndex >= c.nTargets {
			return 0, wrongAnswer("source %d matched out-of-range target %d", r.SourceIndex, r.TargetIndex)
		}
		if seen[r.TargetIndex] {
			return 0, wrongAnswer("target %d matched twice in one batch", r.TargetIndex)
		}
		seen[r.TargetIndex] = true
		if r.TargetIndex == r.SourceIndex && i < 64 {
			hits |= 1 << i
		}
	}
	return hits, nil
}

// candidates checks: k entries (or every target when fewer), targets in
// range and distinct, ranks ascending from 1, scores non-increasing.
func (c answerChecker) candidates(req *request, body []byte) error {
	var a struct {
		Candidates []candidate `json:"candidates"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return wrongAnswer("malformed candidates answer: %v", err)
	}
	cs := a.Candidates
	want := req.k
	if want > c.nTargets {
		want = c.nTargets
	}
	if len(cs) != want {
		return wrongAnswer("%d candidates, want %d", len(cs), want)
	}
	seen := make(map[int]bool, len(cs))
	for i, cd := range cs {
		if cd.TargetIndex < 0 || cd.TargetIndex >= c.nTargets || seen[cd.TargetIndex] {
			return wrongAnswer("candidate %d: bad or repeated target %d", i, cd.TargetIndex)
		}
		seen[cd.TargetIndex] = true
		if cd.Score == nil {
			return wrongAnswer("candidate %d lacks a score", i)
		}
		if cd.Rank < 1 || (i > 0 && (cd.Rank < cs[i-1].Rank || *cd.Score > *cs[i-1].Score)) {
			return wrongAnswer("candidate %d out of order", i)
		}
	}
	return nil
}
