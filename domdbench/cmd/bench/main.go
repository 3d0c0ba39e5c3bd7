// Command bench is the DoMD serving benchmark's driver. domdbench/run.sh
// builds it with domd and the tracer, then runs
//
//	bench -bin <dir> -work <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run works only through domd's CLI and HTTP API. It generates the
// workload's fleet from the seed, publishes one model version with
// `domd train -trials 0`, and starts a fresh `domd serve` on an empty WAL
// directory for each of setupRuns set-up rounds, timing each from exec to
// the end of its warm-up. It drives the last server with a closed loop of
// two clients for --seconds and checks every answer. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it then runs the traced
// in-process replay (cmd/tracer) and prints the per-layer metrics. The
// last line of standard output is the JSON result.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"domd/domdbench/internal/report"
	"domd/domdbench/internal/stats"
	"domd/domdbench/internal/workload"
)

const (
	// clients is the closed loop's size: callers of this back end each
	// wait for their answer before they ask again.
	clients = 2
	// setupRuns is how many fresh servers a run starts and measures, each
	// for an equal share of --seconds. Speed differs from one server
	// process to the next by up to a third on a shared host, so per-round
	// values are reduced by their median.
	setupRuns = 7
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	bin, work string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: fleet-scan, ingest-mix or wide-read")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the ongoing fleet and the operations are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured closed loop, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: also run the traced replay and report per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", "", "directory holding the domd and tracer binaries")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for fleets, WALs, models, logs and spans")
	flag.Parse()
	if (trace != 0 && trace != 1) || cfg.bin == "" || cfg.work == "" || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: need -bin, -work, --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// sample is one measured operation.
type sample struct {
	kind workload.Kind
	ms   float64
	sent bool  // an answer arrived
	err  error // transport error or failed output check
}

// record is everything one run measured, kept beside its logs.
type record struct {
	Workload string    `json:"workload"`
	Seconds  float64   `json:"seconds"`
	Clients  int       `json:"clients"`
	Host     hostFacts `json:"host"`
	Version  string    `json:"model_version"`
	// Rounds holds the per-round values of the end-to-end metrics that
	// are medians over rounds.
	Rounds   map[string][]float64 `json:"rounds"`
	Ops      map[string]opStats   `json:"ops"`
	Errors   []string             `json:"errors,omitempty"`
	EndToEnd report.Metrics       `json:"end_to_end"`
	PerLayer report.Metrics       `json:"per_layer,omitempty"`
}

type opStats struct {
	Count  int     `json:"count"`
	Failed int     `json:"failed"`
	P50    float64 `json:"p50_ms"`
	TailQ  float64 `json:"tail_quantile"`
	Tail   float64 `json:"tail_ms"`
}

func run(cfg config) (*report.Result, error) {
	spec, err := workload.Lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(cfg.work, spec.Name))
	if err != nil {
		return nil, err
	}
	// Each run starts from an empty directory; the previous run's logs
	// and spans stay until then for inspection.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fleet, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	availsCSV, rccsCSV, err := fleet.WriteCSV(filepath.Join(dir, "data"))
	if err != nil {
		return nil, err
	}
	domd := filepath.Join(cfg.bin, "domd")
	modelDir := filepath.Join(dir, "models")
	version, err := train(domd, availsCSV, rccsCSV, modelDir, filepath.Join(dir, "train.log"))
	if err != nil {
		return nil, err
	}

	b := &bench{
		cfg: cfg, spec: spec, fleet: fleet, dir: dir, version: version,
		domd: domd, avails: availsCSV, rccs: rccsCSV, models: modelDir,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true},
		},
	}
	defer b.client.CloseIdleConnections()
	for c := range b.streams {
		b.streams[c] = fleet.Stream(spec, cfg.seed, c)
	}
	rec := record{Workload: spec.Name, Seconds: cfg.seconds, Clients: clients, Version: version,
		Ops: map[string]opStats{}, Rounds: map[string][]float64{}}
	var rounds []*round
	for i := 0; i < setupRuns; i++ {
		r, err := b.round(i)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		rec.Rounds["setup_s"] = append(rec.Rounds["setup_s"], r.setup)
	}
	rec.Host = host(cfg.seed, filepath.Join(dir, fmt.Sprintf("wal-%d", setupRuns-1)))

	res := &report.Result{}
	var all []float64
	byKind := map[workload.Kind][]float64{}
	failedBy := map[workload.Kind]int{}
	for _, r := range rounds {
		var ok []float64
		completed := 0
		for _, s := range r.samples {
			res.Attempted++
			if s.sent {
				completed++
			}
			if s.err != nil {
				res.Failed++
				failedBy[s.kind]++
				if len(rec.Errors) < 5 {
					rec.Errors = append(rec.Errors, s.err.Error())
				}
				continue
			}
			ok = append(ok, s.ms)
			byKind[s.kind] = append(byKind[s.kind], s.ms)
		}
		// The server's own failure counters must not move either: a
		// degraded prediction or a recovered panic is a failed operation.
		for _, name := range []string{"domd_predict_unavailable_total", "domd_http_panics_total"} {
			if d := delta(r.before, r.after, name); d > 0 {
				res.Failed += int(d)
				rec.Errors = append(rec.Errors, fmt.Sprintf("%s rose by %g", name, d))
			}
		}
		if completed == 0 || len(ok) == 0 {
			return nil, fmt.Errorf("no operation succeeded: %v", rec.Errors)
		}
		for name, v := range map[string]float64{
			"ops_per_s":            float64(len(ok)) / r.elapsed.Seconds(),
			"server_cpu_ms_per_op": float64(r.cpu) / float64(time.Millisecond) / float64(completed),
			"rss_peak_mb":          float64(r.hwmKB) / 1024,
		} {
			rec.Rounds[name] = append(rec.Rounds[name], v)
		}
		all = append(all, ok...)
	}

	// Latency percentiles pool every round's samples, which leaves enough
	// beyond p95 even at /fleet rates. The other metrics are medians of
	// their per-round values, so one process that runs slow or fast does
	// not set the result.
	e2e := report.Metrics{}
	for name := range rec.Rounds {
		e2e.Set(report.EndToEnd, name, stats.Summarize(rec.Rounds[name]).P50)
	}
	pooled := stats.Summarize(all)
	e2e.Set(report.EndToEnd, "p50_ms", pooled.P50)
	e2e.Set(report.EndToEnd, "p95_ms", pooled.P95)
	rec.EndToEnd = e2e

	layer := report.Metrics{}
	setLayer := func(name string, v float64) { layer.Set(report.PerLayer, name, v) }
	for _, k := range workload.Kinds() {
		s := stats.Summarize(byKind[k])
		setLayer(k.String()+".untraced_p50_ms", s.P50)
		if spec.Issues(k) {
			q, tail := s.Tail()
			rec.Ops[k.String()] = opStats{Count: s.Count, Failed: failedBy[k], P50: s.P50, TailQ: q, Tail: tail}
		}
	}
	sumDelta := func(name string) float64 {
		var v float64
		for _, r := range rounds {
			v += delta(r.before, r.after, name)
		}
		return v
	}
	acks := sumDelta("domd_ingest_acks_total")
	perIngest := func(v float64) float64 {
		if acks <= 0 {
			return 0
		}
		return v / acks
	}
	setLayer("statusq.delta_applies_per_ingest", perIngest(sumDelta("domd_engine_delta_applies_total")))
	setLayer("statusq.delta_fallbacks_per_ingest", perIngest(sumDelta("domd_engine_delta_fallbacks_total")))
	setLayer("statusq.engine_builds", sumDelta("domd_engine_builds_total"))
	setLayer("wal.compactions", sumDelta("domd_wal_compactions_total"))
	setLayer("wal.fsyncs_per_ingest", perIngest(sumDelta("domd_wal_syncs_total")))
	var writes int64
	var writesErr error
	history := 0
	for _, r := range rounds {
		writes += r.writes
		writesErr = errors.Join(writesErr, r.writesErr)
		history = max(history, int(r.after["domd_ingest_acks_total"]))
	}
	if writesErr != nil {
		rec.Errors = append(rec.Errors, "wal.write_bytes_per_ingest unavailable: "+writesErr.Error())
		setLayer("wal.write_bytes_per_ingest", 0)
	} else {
		setLayer("wal.write_bytes_per_ingest", perIngest(float64(writes)))
	}

	if cfg.trace {
		tr, err := b.runTracer(res.Attempted, history)
		if err != nil {
			return nil, err
		}
		for name, m := range tr.Metrics {
			layer[name] = m
		}
		res.Attempted += tr.Ops
		res.Failed += tr.Failed + tr.Mismatches
		if tr.Failed+tr.Mismatches > 0 {
			rec.Errors = append(rec.Errors, fmt.Sprintf("traced run: %d failed answers, %d of %d composition checks mismatched (see tracer.log)",
				tr.Failed, tr.Mismatches, tr.Checked))
		}
		fmt.Printf("traced composition checks: %d passed of %d\n", tr.Checked-tr.Mismatches, tr.Checked)
		rec.PerLayer = layer
	}

	defs := report.EndToEnd
	res.Metrics = e2e
	if cfg.trace {
		defs, res.Metrics = report.PerLayer, layer
	}
	var missing []string
	if res.Metrics, missing = res.Metrics.Only(defs); len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	res.Correct = res.Failed == 0
	printRecord(&rec, res, cfg.trace)
	if err := report.WriteFile(filepath.Join(dir, "result.json"), rec); err != nil {
		return nil, err
	}
	return res, nil
}

// train publishes one model version into modelDir and returns its name.
func train(domd, avails, rccs, modelDir, logPath string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	out, err := command(ctx, domd, "train", "-avails", avails, "-rccs", rccs, "-trials", "0", "-model-dir", modelDir).CombinedOutput()
	if werr := os.WriteFile(logPath, out, 0o644); err == nil {
		err = werr
	}
	if err != nil {
		return "", fmt.Errorf("domd train: %v (log %s)", err, logPath)
	}
	m := regexp.MustCompile(`published model version (\S+)`).FindSubmatch(out)
	if m == nil {
		return "", fmt.Errorf("domd train printed no model version (log %s)", logPath)
	}
	return string(m[1]), nil
}

// bench is one run's fixed inputs: the fleet, its CSV tables, the
// published model, the domd binary and the HTTP client.
type bench struct {
	cfg                  config
	spec                 workload.Spec
	fleet                *workload.Dataset
	dir, version         string
	domd                 string
	avails, rccs, models string
	client               *http.Client
	streams              [clients]*workload.Stream
}

// round is one fresh server: its set-up time and its share of the
// measured closed loop.
type round struct {
	setup         float64 // seconds from exec to the end of the warm-up
	samples       []sample
	elapsed       time.Duration
	cpu           time.Duration // server CPU time over the loop
	writes        int64         // bytes the server wrote to storage over the loop
	writesErr     error
	hwmKB         int64
	before, after map[string]float64 // /metrics around the loop
}

// round starts server i on an empty WAL directory, times its set-up,
// drives it for 1/setupRuns of the measured time and stops it.
func (b *bench) round(i int) (r *round, err error) {
	walDir := filepath.Join(b.dir, fmt.Sprintf("wal-%d", i))
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	srv, err := startServer(b.domd, []string{
		"-avails", b.avails, "-rccs", b.rccs, "-trials", "0",
		"-wal-dir", walDir, "-fsync", "always", "-model-dir", b.models,
	}, filepath.Join(b.dir, fmt.Sprintf("serve-%d.log", i)), b.client)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := srv.stop(); err == nil && serr != nil {
			r, err = nil, serr
		}
	}()
	for _, op := range b.fleet.Warmup(b.spec, b.cfg.seed) {
		status, body, err := do(b.client, srv.base, op)
		if err == nil {
			err = b.fleet.Check(op, status, body, b.version)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	r = &round{setup: time.Since(start).Seconds()}

	pid := srv.pid()
	if r.before, err = scrape(b.client, srv.base); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	io0, ioErr := procField(pid, "io", "write_bytes")
	r.samples, r.elapsed = b.closedLoop(srv.base, time.Duration(b.cfg.seconds/setupRuns*float64(time.Second)))
	if r.after, err = scrape(b.client, srv.base); err != nil {
		return nil, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	io1, err := procField(pid, "io", "write_bytes")
	if ioErr == nil {
		ioErr = err
	}
	r.cpu, r.writes, r.writesErr = cpu1-cpu0, io1-io0, ioErr
	if r.hwmKB, err = procField(pid, "status", "VmHWM"); err != nil {
		return nil, err
	}
	return r, nil
}

// closedLoop runs measured traffic for d: each client sends its next
// operation only once the previous answer is in. Latency runs from
// sending the request to reading the last byte of the answer; the output
// check happens after the clock stops. The client streams continue from
// round to round.
func (b *bench) closedLoop(base string, d time.Duration) ([]sample, time.Duration) {
	per := make([][]sample, clients)
	ends := make([]time.Time, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := b.streams[c].Next()
				t0 := time.Now()
				status, body, err := do(b.client, base, op)
				s := sample{kind: op.Kind, ms: float64(time.Since(t0)) / float64(time.Millisecond), sent: err == nil}
				if err == nil {
					err = b.fleet.Check(op, status, body, b.version)
				}
				s.err = err
				per[c] = append(per[c], s)
			}
			ends[c] = time.Now()
		}()
	}
	wg.Wait()
	var all []sample
	end := start
	for c := range per {
		all = append(all, per[c]...)
		if ends[c].After(end) {
			end = ends[c]
		}
	}
	return all, end.Sub(start)
}

// tracerResult is what cmd/tracer prints as its last line.
type tracerResult struct {
	Ops        int            `json:"ops"`
	Failed     int            `json:"failed"`
	Checked    int            `json:"checked"`
	Mismatches int            `json:"mismatches"`
	Metrics    report.Metrics `json:"metrics"`
}

// runTracer runs the traced in-process replay of the same workload and
// seed. Its human-readable lines are passed through to standard output.
func (b *bench) runTracer(ops, history int) (*tracerResult, error) {
	cfg, dir := b.cfg, b.dir
	bin := filepath.Join(cfg.bin, "tracer")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("the tracer did not build (see %s): %w", filepath.Join(filepath.Dir(cfg.bin), "tracer-build.log"), err)
	}
	work := filepath.Join(dir, "traced")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "tracer.log")
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var out bytes.Buffer
	cmd := command(ctx, bin,
		"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-avails", b.avails, "-rccs", b.rccs, "-models", b.models, "-version", b.version,
		"-work", work, "-spans", filepath.Join(dir, "spans.jsonl"),
		"-ops", strconv.Itoa(ops), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-history", strconv.Itoa(history))
	cmd.Stdout, cmd.Stderr = &out, log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("tracer: %v (log %s)", err, logPath)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var tr tracerResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		return nil, fmt.Errorf("tracer result: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	return &tr, nil
}

// printRecord writes the human-readable report that precedes the JSON
// line.
func printRecord(rec *record, res *report.Result, trace bool) {
	h := rec.Host
	fmt.Printf("workload %s: %g s closed loop, %d clients, model version %s\n", rec.Workload, rec.Seconds, rec.Clients, rec.Version)
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s git=%s source=%s seed=%d wal_fs=%s\n",
		h.NProc, h.GOMAXPROCS, h.Go, h.Revision, h.Source, h.Seed, h.WALFS)
	for _, d := range report.EndToEnd {
		if v, ok := rec.Rounds[d.Name]; ok {
			fmt.Printf("rounds %-20s %.4g\n", d.Name, v)
		}
	}
	fmt.Printf("%-8s %7s %7s %9s %12s\n", "op", "count", "failed", "p50_ms", "tail_ms")
	for _, k := range workload.Kinds() {
		if o, ok := rec.Ops[k.String()]; ok {
			fmt.Printf("%-8s %7d %7d %9.3f %9.3f p%g\n", k, o.Count, o.Failed, o.P50, o.Tail, o.TailQ*100)
		}
	}
	fmt.Printf("error_rate %g ratio (%d failed of %d attempted)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, e := range rec.Errors {
		fmt.Println("  error:", e)
	}
	for _, d := range report.EndToEnd {
		m := rec.EndToEnd[d.Name]
		fmt.Printf("%-22s %12.4f %s\n", d.Name, m.Value, m.Unit)
	}
	if trace {
		fmt.Printf("%-8s %18s %16s\n", "op", "untraced_p50_ms", "traced_p50_ms")
		for _, k := range workload.Kinds() {
			if _, ok := rec.Ops[k.String()]; ok {
				fmt.Printf("%-8s %18.3f %16.3f\n", k,
					rec.PerLayer[k.String()+".untraced_p50_ms"].Value, rec.PerLayer[k.String()+".traced_p50_ms"].Value)
			}
		}
	}
}
