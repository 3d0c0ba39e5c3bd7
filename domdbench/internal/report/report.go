// Package report names the benchmark's metrics and renders the JSON line
// the benchmark prints last. The metric tables here and BENCHMARK.json
// must agree; report_test.go holds them to it.
package report

import (
	"encoding/json"
	"os"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// Def declares one metric: its name, unit and which direction is better.
type Def struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd are the metrics a caller of the server sees, measured with
// tracing off. Every workload reports each of them.
var EndToEnd = []Def{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
	{"server_cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// OpKinds are the operation kinds per-operation metrics are named by.
var OpKinds = []string{"query", "predict", "fleet", "ingest"}

// PerLayer are the per-layer metrics of a traced run. Timings come as
// <name>.p50, <name>.p99 and <name>.count; a layer a workload never calls
// reports count 0 and zero times.
var PerLayer = perLayer()

func perLayer() []Def {
	var defs []Def
	timing := func(name, unit string) {
		defs = append(defs, Def{name + ".p50", unit, "lower"}, Def{name + ".p99", unit, "lower"}, Def{name + ".count", "count", "higher"})
	}
	for _, k := range OpKinds {
		timing("server.overhead_us."+k, "us")
	}
	defs = append(defs, Def{"server.resp_bytes.fleet", "bytes", "lower"})
	timing("statusq.engine_lookup_us", "us")
	timing("statusq.ingest_us", "us")
	defs = append(defs,
		Def{"statusq.delta_applies_per_ingest", "count", "higher"},
		Def{"statusq.delta_fallbacks_per_ingest", "count", "lower"},
		Def{"statusq.engine_builds", "count", "lower"})
	timing("features.vector_us", "us")
	for _, k := range OpKinds[:3] {
		defs = append(defs, Def{"features.vectors_per_op." + k, "count", "lower"})
	}
	timing("core.trajectory_us", "us")
	timing("core.top_features_us", "us")
	timing("modelserve.predict_us", "us")
	timing("wal.append_us", "us")
	timing("wal.snapshot_ms", "ms")
	defs = append(defs,
		Def{"wal.compactions", "count", "lower"},
		Def{"wal.fsyncs_per_ingest", "count", "lower"},
		Def{"wal.write_bytes_per_ingest", "bytes", "lower"})
	for _, k := range OpKinds {
		defs = append(defs, Def{k + ".untraced_p50_ms", "ms", "lower"}, Def{k + ".traced_p50_ms", "ms", "lower"})
	}
	return defs
}

// Set records a metric under the unit its definition declares.
func (m Metrics) Set(defs []Def, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = Metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("report: undeclared metric " + name)
}

// Only keeps the metrics defs declares and reports the declared ones
// missing from m.
func (m Metrics) Only(defs []Def) (Metrics, []string) {
	out := Metrics{}
	var missing []string
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			out[d.Name] = v
		} else {
			missing = append(missing, d.Name)
		}
	}
	return out, missing
}

// WriteFile writes v as indented JSON.
func WriteFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
