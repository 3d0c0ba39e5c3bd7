package report

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"domd/domdbench/internal/workload"
)

// benchmarkFile mirrors the BENCHMARK.json fields the metric tables and
// workload list must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Def `json:"end_to_end"`
	PerLayer []Def `json:"per_layer"`
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.PerLayer, PerLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from PerLayer:\n got  %v\n want %v", b.PerLayer, PerLayer)
	}
	var e2e []Def
	for _, d := range b.EndToEnd {
		e2e = append(e2e, Def{d.Name, d.Unit, d.Better})
	}
	if !reflect.DeepEqual(e2e, EndToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from EndToEnd:\n got  %v\n want %v", e2e, EndToEnd)
	}
	for _, w := range b.Workloads {
		if _, err := workload.Lookup(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
}

func TestOnlyReportsMissing(t *testing.T) {
	m := Metrics{}
	m.Set(EndToEnd, "setup_s", 1.5)
	m["extra"] = Metric{Value: 1, Unit: "count"}
	got, missing := m.Only(EndToEnd)
	if len(got) != 1 || got["setup_s"].Unit != "s" {
		t.Errorf("Only kept %v", got)
	}
	if len(missing) != len(EndToEnd)-1 {
		t.Errorf("missing %v", missing)
	}
}
