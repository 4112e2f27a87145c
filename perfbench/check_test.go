package main

import (
	"errors"
	"net/http"
	"strings"
	"testing"
)

func TestAlignChecker(t *testing.T) {
	c := answerChecker{nTargets: 100}
	req := &request{path: "/v1/align", body: []byte(`{}`), rows: []int{3, 7}}
	const good = `{"degraded":false,"results":[` +
		`{"source_index":3,"source":"a","target_index":3,"target":"x","score":0.9,"rank":1,"matched":true},` +
		`{"source_index":7,"source":"b","target_index":9,"target":"y","score":0.8,"rank":2,"matched":true}]}`
	hits, err := c.check(req, http.StatusOK, http.Header{}, []byte(good))
	if err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if hits != 1 {
		t.Errorf("hits = %b, want only source 3 (matched to its gold target 3)", hits)
	}

	partial := http.Header{}
	partial.Set("Engine-Partial", "true")
	for _, c2 := range []struct {
		name   string
		status int
		h      http.Header
		body   string
		wrong  bool
	}{
		{"shed", http.StatusTooManyRequests, http.Header{}, `{"error":"overloaded"}`, false},
		{"partial", http.StatusOK, partial, good, false},
		{"degraded", http.StatusOK, http.Header{}, strings.Replace(good, `"degraded":false`, `"degraded":true`, 1), false},
		{"degraded row", http.StatusOK, http.Header{}, strings.Replace(good, `"matched":true}]`, `"matched":false,"degraded":true}]`, 1), false},
		{"duplicate target", http.StatusOK, http.Header{}, strings.Replace(good, `"target_index":9`, `"target_index":3`, 1), true},
		{"out of range", http.StatusOK, http.Header{}, strings.Replace(good, `"target_index":9`, `"target_index":100`, 1), true},
		{"out of order", http.StatusOK, http.Header{}, strings.Replace(good, `"source_index":7`, `"source_index":8`, 1), true},
		{"missing result", http.StatusOK, http.Header{}, `{"degraded":false,"results":[]}`, true},
		{"malformed", http.StatusOK, http.Header{}, `{"degraded":`, true},
	} {
		_, err := c.check(req, c2.status, c2.h, []byte(c2.body))
		var ce *checkError
		if !errors.As(err, &ce) {
			t.Errorf("%s: accepted, want rejected", c2.name)
			continue
		}
		if ce.wrong != c2.wrong {
			t.Errorf("%s: wrong = %v, want %v (%v)", c2.name, ce.wrong, c2.wrong, err)
		}
	}
}

func TestCandidatesChecker(t *testing.T) {
	c := answerChecker{nTargets: 100}
	req := &request{path: "/v1/entity/4/candidates?k=2", rows: []int{4}, k: 2}
	const good = `{"candidates":[{"target_index":4,"target":"x","score":0.9,"rank":1,"features":{}},` +
		`{"target_index":8,"target":"y","score":0.5,"rank":2,"features":{}}]}`
	if _, err := c.check(req, http.StatusOK, http.Header{}, []byte(good)); err != nil {
		t.Fatalf("valid candidates rejected: %v", err)
	}
	for name, body := range map[string]string{
		"repeated target": strings.Replace(good, `"target_index":8`, `"target_index":4`, 1),
		"score rises":     strings.Replace(good, `"score":0.5`, `"score":0.95`, 1),
		"short list":      `{"candidates":[{"target_index":4,"target":"x","score":0.9,"rank":1,"features":{}}]}`,
	} {
		if _, err := c.check(req, http.StatusOK, http.Header{}, []byte(body)); err == nil {
			t.Errorf("%s: accepted, want rejected", name)
		}
	}
}
