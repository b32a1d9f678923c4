package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The result line must carry exactly the metrics BENCHMARK.json
// declares, with the declared units: the end-to-end set untraced and
// the per-layer set traced.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	rounds := []roundOutcome{
		{roundResult: roundResult{WallS: 1, Units: 2, Latencies: []float64{0.5, 0.5}}},
		{roundResult: roundResult{WallS: 1, Units: 2, Latencies: []float64{0.5, 0.5}, Layers: map[string]float64{}}, traced: true},
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics printed, %d declared", kind, len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s declared in %s, printed as %+v (present %v)", kind, m.Name, m.Unit, g, ok)
			}
		}
	}
	check("end_to_end", endToEndMetrics(rounds), decl.EndToEnd)
	check("per_layer", perLayerMetrics(rounds), decl.PerLayer)

	var names, declared []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, w := range decl.Work {
		declared = append(declared, w.Name)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if len(names) != len(declared) {
		t.Fatalf("workloads %v, declared %v", names, declared)
	}
	for i := range names {
		if names[i] != declared[i] {
			t.Errorf("workloads %v, declared %v", names, declared)
		}
	}
}
