package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics and workloads the
// command reports in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []m, reported [][2]string) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command reports %d", what, len(declared), len(reported))
			return
		}
		for i := range declared {
			if declared[i].Name != reported[i][0] || declared[i].Unit != reported[i][1] {
				t.Errorf("%s %d: BENCHMARK.json has %v, the command %v", what, i, declared[i], reported[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

func TestCompleteRejectsMissingAndUnlistedMetrics(t *testing.T) {
	list := [][2]string{{"a_ms", "ms"}, {"b", "count"}}
	r := &result{}
	r.set("a_ms", "ms", 1, 1)
	if err := r.complete(list, false); err == nil {
		t.Errorf("a missing end-to-end metric must be an error")
	}
	if err := r.complete(list, true); err != nil || r.metrics["b"].Unit != "count" {
		t.Errorf("a missing per-layer metric must read 0 in its unit: %v %+v", err, r.metrics)
	}
	r.set("c", "s", 1, 1)
	if err := r.complete(list, true); err == nil {
		t.Errorf("an unlisted metric must be an error")
	}
}
