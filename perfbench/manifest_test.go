package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestManifestMatchesMetrics keeps BENCHMARK.json and the metric lists
// the benchmark reports in step: same names, same units, same order, and
// one workload entry per workload function.
func TestManifestMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd)
	compare("per_layer", m.PerLayer, perLayer)

	var names, funcs []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		funcs = append(funcs, w)
	}
	sort.Strings(names)
	sort.Strings(funcs)
	if len(names) != len(funcs) {
		t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", names, funcs)
	}
	for i := range names {
		if names[i] != funcs[i] {
			t.Fatalf("workloads: BENCHMARK.json %v, benchmark %v", names, funcs)
		}
	}
}
