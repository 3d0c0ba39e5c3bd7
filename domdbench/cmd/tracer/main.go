// Command tracer is the benchmark's traced run. It rebuilds in process the
// serving stack `domd serve` runs under the benchmark's flags and replays
// the workload's seeded operations against it one at a time. Each
// operation runs twice:
//
//   - through server.Server.ServeHTTP, timed whole;
//   - composed from the public calls of each layer (statusq, features,
//     core, modelserve) against a shadow catalog that has taken the same
//     ingests, with a span around every call.
//
// Nothing inside the program is instrumented. The server layer's own time
// is ServeHTTP minus the union of the composed layer spans. The WAL layer
// is timed standalone: the replay's ingest payloads appended to a fresh
// log under the same fsync policy, and a snapshot of the history size the
// untraced run reached. Spans stay in memory until the end, then go to a
// JSON-lines file. A composition check holds the composed answers bit for
// bit to core.QueryService.QueryEngine and to the served answers.
//
// The bench driver runs this command; its last output line is a JSON
// object with the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"domd/domdbench/internal/report"
	"domd/domdbench/internal/stats"
	"domd/domdbench/internal/trace"
	"domd/domdbench/internal/workload"
	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/modelserve"
	"domd/internal/server"
	"domd/internal/split"
	"domd/internal/statusq"
	"domd/internal/table"
	"domd/internal/wal"
)

// Span names: the public call each span wraps, or a structural span.
const (
	spanServe   = "server.Server.ServeHTTP"
	spanCompose = "compose"
	spanRow     = "fleet.row"
	spanLookup  = "statusq.Catalog.EngineAsOf"
	spanIngest  = "statusq.DurableCatalog.Ingest"
	spanVector  = "features.Extractor.Vector"
	spanTraj    = "core.Pipeline.Trajectory"
	spanTop     = "core.Pipeline.TopFeatures"
	spanPredict = "modelserve.Registry.Predict"
	spanAppend  = "wal.Log.Append"
	spanSnap    = "wal.Log.Snapshot"
)

// layerSpans wrap calls into the program's layers below the server.
var layerSpans = map[string]bool{
	spanLookup: true, spanIngest: true, spanVector: true,
	spanTraj: true, spanTop: true, spanPredict: true,
}

const (
	// clients matches the untraced run's closed loop, whose client
	// streams the replay interleaves round-robin.
	clients = 2
	// checkEvery samples the QueryEngine composition check: every
	// checkEvery-th query and fleet operation is recomputed.
	checkEvery = 4
	// maxAppends and snapshotRounds bound the standalone WAL probes.
	maxAppends     = 1000
	snapshotRounds = 5
	// The settings `domd serve` runs with under the benchmark's flags:
	// the default 10% grid, untuned training, AVL index, compaction
	// every 1024 ingests, fsync always.
	gap          = 10
	compactEvery = 1024
)

type config struct {
	workload                    string
	seed                        int64
	avails, rccs, models, spans string
	version, work               string
	ops, history                int
	seconds                     float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.StringVar(&cfg.avails, "avails", "", "avail table CSV the server was started on")
	flag.StringVar(&cfg.rccs, "rccs", "", "RCC table CSV the server was started on")
	flag.StringVar(&cfg.models, "models", "", "model registry directory")
	flag.StringVar(&cfg.version, "version", "", "published model version")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for the in-process WALs")
	flag.StringVar(&cfg.spans, "spans", "", "JSON-lines file the spans are written to")
	flag.IntVar(&cfg.ops, "ops", 0, "replay at most this many operations")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "replay for at most this many seconds")
	flag.IntVar(&cfg.history, "history", 0, "ingested history size the standalone snapshot probe writes")
	flag.Parse()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is what the bench driver reads from the last output line.
type result struct {
	Ops        int            `json:"ops"`
	Failed     int            `json:"failed"`
	Checked    int            `json:"checked"`
	Mismatches int            `json:"mismatches"`
	Metrics    report.Metrics `json:"metrics"`
}

// opStat is one replayed operation's outcome.
type opStat struct {
	kind     workload.Kind
	serve    int64 // ns inside ServeHTTP
	overhead int64 // serve minus the union of the composed layer spans
	bytes    int
	vectors  int
}

type tracer struct {
	rec     *trace.Recorder
	srv     *server.Server
	shadow  *statusq.DurableCatalog
	pipe    *core.Pipeline
	ext     *features.Extractor
	reg     *modelserve.Registry
	svc     *core.QueryService
	fleet   *workload.Dataset
	avails  []domain.Avail
	rccs    []domain.RCC
	version string
	windows []modelserve.Window

	ops                         []opStat
	ingested                    []workload.Op
	perKind                     [workload.NumKinds]int
	checked, mismatches, failed int
}

func run(cfg config) (*result, error) {
	spec, err := workload.Lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	fleet, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	t := &tracer{rec: trace.NewRecorder(), fleet: fleet, version: cfg.version}
	if t.avails, t.rccs, err = readTables(cfg.avails, cfg.rccs); err != nil {
		return nil, err
	}
	// The pipeline domd serve trains at start-up, from the same tables.
	byAvail := map[int][]domain.RCC{}
	for _, r := range t.rccs {
		byAvail[r.AvailID] = append(byAvail[r.AvailID], r)
	}
	t.ext = features.NewExtractor()
	tensor, err := features.BuildTensor(t.ext, t.avails, byAvail, gap, index.KindAVL)
	if err != nil {
		return nil, err
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		return nil, err
	}
	ccfg := core.DefaultConfig()
	ccfg.HPTTrials, ccfg.Seed, ccfg.Workers = 0, 1, 1
	if t.pipe, err = core.Train(ccfg, tensor, sp.Train, sp.Val); err != nil {
		return nil, err
	}
	t.svc = core.NewQueryService(t.pipe, t.ext, index.KindAVL)

	dopts := statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncAlways}, CompactEvery: compactEvery}
	served, _, err := statusq.OpenDurable(filepath.Join(cfg.work, "wal-served"), t.avails, t.rccs, index.KindAVL, dopts)
	if err != nil {
		return nil, err
	}
	defer served.Close()
	if t.shadow, _, err = statusq.OpenDurable(filepath.Join(cfg.work, "wal-shadow"), t.avails, t.rccs, index.KindAVL, dopts); err != nil {
		return nil, err
	}
	defer t.shadow.Close()
	if t.reg, err = modelserve.Open(cfg.models); err != nil {
		return nil, err
	}
	if v := t.reg.ActiveVersion(); v != cfg.version {
		return nil, fmt.Errorf("registry serves %q, want the published %q", v, cfg.version)
	}
	if t.windows, err = activeWindows(cfg.models); err != nil {
		return nil, err
	}
	reqLog, err := os.Create(filepath.Join(cfg.work, "requests.log"))
	if err != nil {
		return nil, err
	}
	defer reqLog.Close()
	t.srv = server.New(t.pipe, t.ext, served.Catalog, server.Options{
		Ingester: served, Models: t.reg, Logger: log.New(reqLog, "domd: ", log.LstdFlags),
	})

	// The untraced run's warm-up, whose spans and outcomes are dropped.
	for i, op := range fleet.Warmup(spec, cfg.seed) {
		t.do(int64(-i-1), op)
	}
	if t.failed+t.mismatches > 0 {
		return nil, fmt.Errorf("warm-up failed (%d answers, %d checks)", t.failed, t.mismatches)
	}
	t.rec.Reset()
	t.ops, t.ingested, t.perKind, t.checked = nil, nil, [workload.NumKinds]int{}, 0

	var streams [clients]*workload.Stream
	for c := range streams {
		streams[c] = fleet.Stream(spec, cfg.seed, c)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < cfg.ops && time.Now().Before(deadline); i++ {
		t.do(int64(i+1), streams[i%clients].Next())
	}
	if len(t.ingested) > 0 {
		if err := t.walProbes(filepath.Join(cfg.work, "wal-probe"), cfg.history); err != nil {
			return nil, err
		}
	}

	spans := t.rec.Since(0)
	if err := trace.WriteJSONL(cfg.spans, spans); err != nil {
		return nil, err
	}
	fmt.Printf("traced replay: %d operations, spans in %s\n", len(t.ops), cfg.spans)
	if err := trace.WriteSummary(os.Stdout, spans); err != nil {
		return nil, err
	}
	return &result{Ops: len(t.ops), Failed: t.failed, Checked: t.checked, Mismatches: t.mismatches, Metrics: t.metrics(spans)}, nil
}

func readTables(availsPath, rccsPath string) ([]domain.Avail, []domain.RCC, error) {
	af, err := os.Open(availsPath)
	if err != nil {
		return nil, nil, err
	}
	defer af.Close()
	avails, err := table.ReadAvails(af)
	if err != nil {
		return nil, nil, err
	}
	rf, err := os.Open(rccsPath)
	if err != nil {
		return nil, nil, err
	}
	defer rf.Close()
	rccs, err := table.ReadRCCs(rf)
	return avails, rccs, err
}

// activeWindows lists the active model version's windows, ascending.
func activeWindows(dir string) ([]modelserve.Window, error) {
	man, err := modelserve.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	mv, ok := man.Version(man.Active)
	if !ok || len(mv.Artifacts) == 0 {
		return nil, fmt.Errorf("model registry %s has no active version", dir)
	}
	var ws []modelserve.Window
	for _, a := range mv.Artifacts {
		ws = append(ws, modelserve.Window{Lo: a.Lo, Hi: a.Hi})
	}
	return ws, nil
}

func (t *tracer) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// do replays one operation: served whole, then composed layer by layer.
func (t *tracer) do(id int64, op workload.Op) {
	t.perKind[op.Kind]++
	mark := t.rec.Len()
	root := t.rec.Begin(id, 0, "op."+op.Kind.String())
	method, target, body := op.Request()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if op.Key != "" {
		req.Header.Set("Idempotency-Key", op.Key)
	}
	w := httptest.NewRecorder()
	s := t.rec.Begin(id, root.ID, spanServe)
	t.srv.ServeHTTP(w, req)
	s = t.rec.End(s)
	resp := w.Body.Bytes()
	if err := t.fleet.Check(op, w.Code, resp, t.version); err != nil {
		t.failed++
		t.logf("op %d: served answer failed its check: %v", id, err)
	}

	c := t.rec.Begin(id, root.ID, spanCompose)
	out, err := t.compose(id, c.ID, op)
	c = t.rec.End(c)
	if err != nil {
		t.mismatches++
		t.logf("op %d: composed %s failed: %v", id, op.Kind, err)
	} else {
		t.check(op, out, resp)
	}
	t.rec.End(root)

	var layers []stats.Interval
	for _, sp := range t.rec.Since(mark) {
		if layerSpans[sp.Name] {
			layers = append(layers, sp.Interval())
		}
	}
	t.ops = append(t.ops, opStat{
		kind: op.Kind, serve: s.Dur(), overhead: s.Dur() - stats.Covered(c.Interval(), layers),
		bytes: len(resp), vectors: out.vectors,
	})
}

// composed is one operation's answer rebuilt from layer calls: per avail
// (one, or one per /fleet row) its engine, query result and prediction.
type composed struct {
	engines []*statusq.Engine
	results []*core.Result
	preds   []*modelserve.Prediction
	vectors int // features.Extractor.Vector calls the operation makes
}

func (t *tracer) compose(id, parent int64, op workload.Op) (composed, error) {
	switch op.Kind {
	case workload.Ingest:
		sp := t.rec.Begin(id, parent, spanIngest)
		dup, err := t.shadow.Ingest(op.Key, op.RCC)
		t.rec.End(sp)
		t.ingested = append(t.ingested, op)
		if err == nil && dup {
			err = errors.New("shadow catalog saw a duplicate ingest")
		}
		return composed{}, err
	case workload.Fleet:
		return t.composeFleet(id, parent, op.Date)
	}
	out := composed{engines: make([]*statusq.Engine, 1), results: make([]*core.Result, 1), preds: make([]*modelserve.Prediction, 1)}
	eng, err := t.lookup(id, parent, op.Avail)
	if err != nil {
		return out, err
	}
	out.engines[0] = eng
	if op.Kind == workload.Query {
		out.results[0], out.vectors, err = t.query(id, parent, eng, op.Date)
		return out, err
	}
	if out.preds[0], err = t.predict(id, parent, eng, op.Date); err != nil {
		return out, err
	}
	out.vectors, err = t.predictVectors(eng, op.Date)
	return out, err
}

// composeFleet composes /fleet: every ongoing avail's engine, query and
// prediction, with the server's bounded row parallelism.
func (t *tracer) composeFleet(id, parent int64, at domain.Day) (composed, error) {
	n := len(t.fleet.Ongoing)
	out := composed{engines: make([]*statusq.Engine, n), results: make([]*core.Result, n), preds: make([]*modelserve.Prediction, n)}
	vectors := make([]int, n)
	errs := make([]error, n)
	sem := make(chan struct{}, server.DefaultFleetParallelism)
	var wg sync.WaitGroup
	for i, avail := range t.fleet.Ongoing {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			row := t.rec.Begin(id, parent, spanRow)
			defer t.rec.End(row)
			eng, err := t.lookup(id, row.ID, avail)
			if err != nil {
				errs[i] = err
				return
			}
			out.engines[i] = eng
			var nq, np int
			if out.results[i], nq, err = t.query(id, row.ID, eng, at); err == nil {
				if out.preds[i], err = t.predict(id, row.ID, eng, at); err == nil {
					np, err = t.predictVectors(eng, at)
				}
			}
			errs[i], vectors[i] = err, nq+np
		}()
	}
	wg.Wait()
	for _, v := range vectors {
		out.vectors += v
	}
	return out, errors.Join(errs...)
}

func (t *tracer) lookup(id, parent int64, avail int) (*statusq.Engine, error) {
	sp := t.rec.Begin(id, parent, spanLookup)
	eng, _, _, err := t.shadow.EngineAsOf(avail)
	t.rec.End(sp)
	return eng, err
}

func (t *tracer) predict(id, parent int64, eng *statusq.Engine, at domain.Day) (*modelserve.Prediction, error) {
	sp := t.rec.Begin(id, parent, spanPredict)
	p, err := t.reg.Predict(eng, at, 0)
	t.rec.End(sp)
	return p, err
}

// query composes core.QueryService.QueryEngine from the calls it makes,
// with a span around each: a feature vector per grid point up to t*, the
// trajectory, the top features. check holds the two bitwise equal.
func (t *tracer) query(id, parent int64, eng *statusq.Engine, at domain.Day) (*core.Result, int, error) {
	a := eng.Avail()
	ts, err := a.LogicalTime(at)
	if err != nil {
		return nil, 0, err
	}
	if ts < 0 {
		return nil, 0, fmt.Errorf("avail %d has not started at %v", a.ID, at)
	}
	grid := t.pipe.Timestamps()
	upto := lastAtOrBefore(grid, ts)
	fulls := make([][]float64, upto+1)
	for k := range fulls {
		sp := t.rec.Begin(id, parent, spanVector)
		fulls[k], err = t.ext.Vector(eng, grid[k])
		t.rec.End(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	sp := t.rec.Begin(id, parent, spanTraj)
	raw, fused, err := t.pipe.Trajectory(fulls, upto)
	t.rec.End(sp)
	if err != nil {
		return nil, 0, err
	}
	res := &core.Result{AvailID: a.ID, At: at, LogicalTime: ts}
	for k := range fulls {
		res.Estimates = append(res.Estimates, core.Estimate{Timestamp: grid[k], Raw: raw[k], Fused: fused[k]})
	}
	sp = t.rec.Begin(id, parent, spanTop)
	res.TopDrivers, err = t.pipe.TopFeatures(upto, fulls[upto], 5)
	t.rec.End(sp)
	return res, upto + 1, err
}

// lastAtOrBefore is the index of the last grid point at or before ts (0
// when none is), the same rule core and modelserve cut trajectories by.
func lastAtOrBefore(grid []float64, ts float64) int {
	upto := 0
	for k, g := range grid {
		if g <= ts {
			upto = k
		}
	}
	return upto
}

// predictVectors counts the feature vectors modelserve.Registry.Predict
// extracts, which no span can see without instrumenting it: one per
// grid point of the routed window up to t*. Routing is the registry's
// rule: the first window covering t*, else the nearest. Window models are
// trained on the same grid as the query pipeline, restricted to the
// window.
func (t *tracer) predictVectors(eng *statusq.Engine, at domain.Day) (int, error) {
	ts, err := eng.LogicalTime(at)
	if err != nil {
		return 0, err
	}
	w, covered := t.windows[0], false
	for _, x := range t.windows {
		if x.Contains(ts) {
			w, covered = x, true
			break
		}
	}
	if !covered {
		for _, x := range t.windows[1:] {
			if x.Distance(ts) < w.Distance(ts) {
				w = x
			}
		}
	}
	var grid []float64
	for _, g := range t.pipe.Timestamps() {
		if w.Contains(g) {
			grid = append(grid, g)
		}
	}
	return lastAtOrBefore(grid, ts) + 1, nil
}

// check is the traced-composition check. Every composed answer must equal
// the served one bit for bit, and every checkEvery-th query or fleet
// operation is recomputed by core.QueryService.QueryEngine on the same
// engine and date, which must also agree bit for bit: estimates, fused
// trajectory and top drivers. This keeps the per-layer split from
// drifting away from what the server computes.
func (t *tracer) check(op workload.Op, out composed, resp []byte) {
	sampled := t.perKind[op.Kind]%checkEvery == 0
	switch op.Kind {
	case workload.Query:
		var q workload.QueryBody
		t.compare("served query", decodeThen(resp, &q, func() error { return sameAsServed(out.results[0], &q) }))
		if sampled {
			t.compare("QueryEngine", t.sameAsQueryEngine(out.engines[0], op.Date, out.results[0]))
		}
	case workload.Predict:
		var p workload.PredictBody
		t.compare("served prediction", decodeThen(resp, &p, func() error { return samePrediction(out.preds[0], &p) }))
	case workload.Fleet:
		var rows []workload.FleetRow
		t.compare("served fleet", decodeThen(resp, &rows, func() error {
			if len(rows) != len(out.results) {
				return fmt.Errorf("%d rows served, %d composed", len(rows), len(out.results))
			}
			for i := range rows {
				if err := errors.Join(sameAsServed(out.results[i], rows[i].Result), samePrediction(out.preds[i], &rows[i].PredictBody)); err != nil {
					return fmt.Errorf("avail %d: %w", rows[i].AvailID, err)
				}
			}
			return nil
		}))
		if sampled {
			for i := range out.results {
				t.compare("QueryEngine", t.sameAsQueryEngine(out.engines[i], op.Date, out.results[i]))
			}
		}
	}
}

func (t *tracer) compare(what string, err error) {
	t.checked++
	if err != nil {
		t.mismatches++
		t.logf("composition check against %s: %v", what, err)
	}
}

func decodeThen(body []byte, v any, f func() error) error {
	if err := json.Unmarshal(body, v); err != nil {
		return err
	}
	return f()
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (t *tracer) sameAsQueryEngine(eng *statusq.Engine, at domain.Day, got *core.Result) error {
	want, err := t.svc.QueryEngine(eng, at)
	if err != nil {
		return err
	}
	if len(want.Estimates) != len(got.Estimates) || len(want.TopDrivers) != len(got.TopDrivers) {
		return fmt.Errorf("avail %d: QueryEngine has %d estimates and %d drivers, composed %d and %d",
			want.AvailID, len(want.Estimates), len(want.TopDrivers), len(got.Estimates), len(got.TopDrivers))
	}
	for k, w := range want.Estimates {
		g := got.Estimates[k]
		if !same(w.Timestamp, g.Timestamp) || !same(w.Raw, g.Raw) || !same(w.Fused, g.Fused) {
			return fmt.Errorf("avail %d estimate %d: QueryEngine %+v, composed %+v", want.AvailID, k, w, g)
		}
	}
	for k, w := range want.TopDrivers {
		g := got.TopDrivers[k]
		if w.Name != g.Name || !same(w.Score, g.Score) || !same(w.Value, g.Value) {
			return fmt.Errorf("avail %d driver %d: QueryEngine %+v, composed %+v", want.AvailID, k, w, g)
		}
	}
	return nil
}

func sameAsServed(got *core.Result, q *workload.QueryBody) error {
	if q == nil {
		return errors.New("served no result")
	}
	if len(q.Estimates) != len(got.Estimates) || len(q.TopDrivers) != len(got.TopDrivers) {
		return fmt.Errorf("served %d estimates and %d drivers, composed %d and %d",
			len(q.Estimates), len(q.TopDrivers), len(got.Estimates), len(got.TopDrivers))
	}
	for k, s := range q.Estimates {
		g := got.Estimates[k]
		if !same(s.T, g.Timestamp) || !same(s.Raw, g.Raw) || !same(s.Fused, g.Fused) {
			return fmt.Errorf("estimate %d: served %+v, composed %+v", k, s, g)
		}
	}
	for k, s := range q.TopDrivers {
		g := got.TopDrivers[k]
		if s.Name != g.Name || !same(s.Score, g.Score) || !same(s.Value, g.Value) {
			return fmt.Errorf("driver %d: served %+v, composed %+v", k, s, g)
		}
	}
	return nil
}

func samePrediction(p *modelserve.Prediction, b *workload.PredictBody) error {
	if b.Predicted == nil || b.Lo == nil || b.Hi == nil {
		return errors.New("served no prediction")
	}
	if !same(p.Delay, *b.Predicted) || !same(p.Lo, *b.Lo) || !same(p.Hi, *b.Hi) || p.Version != b.Version {
		return fmt.Errorf("served %g [%g, %g] %s, composed %g [%g, %g] %s",
			*b.Predicted, *b.Lo, *b.Hi, b.Version, p.Delay, p.Lo, p.Hi, p.Version)
	}
	return nil
}

// walEntry and walState mirror the JSON statusq.DurableCatalog snapshots
// its ingested history in: one entry per acknowledged RCC.
type walEntry struct {
	Key string     `json:"key,omitempty"`
	RCC domain.RCC `json:"rcc"`
}

type walState struct {
	Entries []walEntry `json:"entries"`
}

// walProbes times the WAL layer standalone: the replay's exact record
// payloads appended to a fresh log with fsync on every append, on the same
// filesystem, then a snapshot of an ingested history as long as the one
// the untraced run reached.
func (t *tracer) walProbes(dir string, history int) error {
	payloads, err := t.walPayloads(filepath.Join(dir, "payloads"))
	if err != nil {
		return err
	}
	l, _, err := wal.Open(filepath.Join(dir, "log"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	for _, p := range payloads[:min(len(payloads), maxAppends)] {
		sp := t.rec.Begin(0, 0, spanAppend)
		_, err := l.Append(p)
		t.rec.End(sp)
		if err != nil {
			l.Close() //lint:ignore droppederr best-effort close; the probe's own error is returned
			return err
		}
	}
	st := walState{Entries: make([]walEntry, max(history, len(t.ingested)))}
	for i := range st.Entries {
		op := t.ingested[i%len(t.ingested)]
		st.Entries[i] = walEntry{Key: op.Key, RCC: op.RCC}
	}
	snap, err := json.Marshal(st)
	if err != nil {
		l.Close() //lint:ignore droppederr best-effort close; the probe's own error is returned
		return err
	}
	for i := 0; i < snapshotRounds; i++ {
		sp := t.rec.Begin(0, 0, spanSnap)
		err := l.Snapshot(snap)
		t.rec.End(sp)
		if err != nil {
			l.Close() //lint:ignore droppederr best-effort close; the probe's own error is returned
			return err
		}
	}
	return l.Close()
}

// walPayloads ingests the replayed RCCs into a scratch catalog that
// neither fsyncs nor compacts and reads its log back: the exact record
// payloads the served catalog appended for them.
func (t *tracer) walPayloads(dir string) ([][]byte, error) {
	c, _, err := statusq.OpenDurable(dir, t.avails, t.rccs, index.KindAVL,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		return nil, err
	}
	for _, op := range t.ingested {
		if _, err := c.Ingest(op.Key, op.RCC); err != nil {
			c.Close() //lint:ignore droppederr best-effort close; the ingest error is returned
			return nil, err
		}
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	l, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	return rec.Entries, l.Close()
}

// metrics reduces the spans and operation outcomes to the per-layer
// metrics the traced run reports. Times are in microseconds unless the
// name says ms.
func (t *tracer) metrics(spans []trace.Span) report.Metrics {
	m := report.Metrics{}
	set := func(name string, v float64) { m.Set(report.PerLayer, name, v) }
	timing := func(name string, samples []float64) {
		s := stats.Summarize(samples)
		set(name+".p50", s.P50)
		set(name+".p99", s.P99)
		set(name+".count", float64(s.Count))
	}
	us := map[string][]float64{}
	for _, s := range spans {
		us[s.Name] = append(us[s.Name], float64(s.Dur())/1e3)
	}
	var overhead, serve, vectors [workload.NumKinds][]float64
	var fleetBytes []float64
	for _, o := range t.ops {
		overhead[o.kind] = append(overhead[o.kind], float64(o.overhead)/1e3)
		serve[o.kind] = append(serve[o.kind], float64(o.serve)/1e6)
		vectors[o.kind] = append(vectors[o.kind], float64(o.vectors))
		if o.kind == workload.Fleet {
			fleetBytes = append(fleetBytes, float64(o.bytes))
		}
	}
	for _, k := range workload.Kinds() {
		timing("server.overhead_us."+k.String(), overhead[k])
		set(k.String()+".traced_p50_ms", stats.Summarize(serve[k]).P50)
		if k != workload.Ingest {
			set("features.vectors_per_op."+k.String(), mean(vectors[k]))
		}
	}
	set("server.resp_bytes.fleet", stats.Summarize(fleetBytes).P50)
	timing("statusq.engine_lookup_us", us[spanLookup])
	timing("statusq.ingest_us", us[spanIngest])
	timing("features.vector_us", us[spanVector])
	timing("core.trajectory_us", us[spanTraj])
	timing("core.top_features_us", us[spanTop])
	timing("modelserve.predict_us", us[spanPredict])
	timing("wal.append_us", us[spanAppend])
	snapMS := make([]float64, len(us[spanSnap]))
	for i, v := range us[spanSnap] {
		snapMS[i] = v / 1e3
	}
	timing("wal.snapshot_ms", snapMS)
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
