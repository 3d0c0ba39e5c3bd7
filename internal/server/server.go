// Package server exposes the DoMD framework as an HTTP back end — the role
// the paper describes for the deployed system ("a back-end engine for a
// fleet-readiness application within the Navy's SMDII"). It wraps a trained
// core.Pipeline and a statusq.Catalog behind a small JSON API:
//
//	GET  /healthz                          liveness probe (process is up)
//	GET  /readyz                           readiness probe (catalog restored,
//	                                       WAL open — safe to send ingests)
//	GET  /avails                           list avails (id, status, dates)
//	GET  /query?avail=ID&date=2024-04-12   DoMD query (Problem 1)
//	GET  /fleet?date=2024-04-12            DoMD for every ongoing avail
//	POST /query/batch                      many DoMD queries in one request
//	                                       (one engine lookup and one feature
//	                                       row per distinct avail)
//	GET  /predict?avail=ID&date=...        predicted delay + conformal band
//	                                       + model version (Options.Models)
//	POST /predict                          many predictions in one request
//	GET  /models                           model registry listing
//	POST /models/reload                    hot-swap the model registry
//	POST /rccs                             ingest one RCC (contract change)
//	GET  /metrics                          Prometheus text-format metrics
//
// The canonical endpoint table is Endpoints (obs.go); New registers the
// mux from it, `domd serve -h` prints it, and docs/OPERATIONS.md is
// cross-checked against it, so the three surfaces cannot drift.
//
// # Predictions
//
// When Options.Models wires a modelserve.Registry, /predict serves the
// paper's end product — a predicted days-of-maintenance-delay per ongoing
// avail with a split-conformal band — and every /fleet row is annotated
// with predicted_delay, band_lo/band_hi, and model_version. Prediction
// failures follow the same degraded-answer contract as stale serving: a
// missing registry, an empty one, or a model error annotates the row
// prediction_unavailable rather than failing the read.
//
// # Ingestion
//
// POST /rccs takes a JSON body {"id", "avail_id", "type" ("G"|"NW"|"NG"),
// "swlin" ("434-11-001" or 8 digits), "created", "settled" (ISO dates),
// "amount"} and acknowledges with 201 only after the record is applied —
// durably logged first, when the handler is wired to a
// statusq.DurableCatalog. Malformed bodies are 400, semantically invalid
// fields 422, an unknown avail 404, an oversized body 413, and a storage
// fault 503 with Retry-After (the record is NOT acknowledged; retry with
// the same Idempotency-Key). The optional Idempotency-Key header dedups
// retries (default key: "rcc:<id>"); a replayed duplicate answers 200
// with "duplicate": true instead of 201.
//
// # Degraded answers
//
// Every /query response and /fleet row carries "stale" and "asOf": asOf
// is the revision of the answering engine, counted as the number of RCCs
// of that avail folded into it, and "stale": true marks an answer from a
// shard in the failed health state, which holds every acknowledged RCC
// but can acknowledge no new one. Clients that must not act on degraded
// data check "stale"; everyone else gets availability instead of a 5xx.
//
// # Middleware and observability
//
// Every request passes a stack applied in ServeHTTP: panic recovery
// (500 + stack log; the process keeps serving), a per-request deadline
// (Options.RequestTimeout), and a concurrency limiter that sheds load
// with 503 + Retry-After once Options.MaxInFlight requests are in
// flight. /healthz, /readyz, and /metrics bypass shedding so probes and
// scrapes stay accurate under overload. The handler is safe for
// concurrent use: queries are answered from the catalog's per-avail
// engines, all built when the catalog opens.
//
// # One read path
//
// GET /query, GET /predict, GET /fleet, POST /query/batch and POST
// /predict answer through one evaluation (evaluate, read.go); each handler
// keeps only its request parsing and response shaping. Requests are
// grouped by avail: each distinct avail resolves its engine once and
// answers all its dates from one features.Row, and the avails fan out over
// at most Options.FleetParallelism goroutines with per-row error isolation
// and request-context propagation. A panic in a fan-out worker is
// re-raised on the handler goroutine once every worker has returned, so
// the recovery above answers 500 and the process keeps serving. A single
// read whose deadline expired answers 503 + Retry-After, like shedding.
//
// The same stack instruments every request: per-route request counters
// and latency histograms, an in-flight gauge, and shed/panic counters in
// the obs.Default registry (served back out on GET /metrics), plus one
// obs.Span per request — carried in the request context, annotated by
// handlers with the engine's asOf/stale markers and ingest outcomes, and
// emitted through Options.Logger as a single structured trace line. The
// metric catalog and trace-line grammar are documented in
// docs/OPERATIONS.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/modelserve"
	"domd/internal/obs"
	"domd/internal/statusq"
	"domd/internal/swlin"
)

// DefaultFleetParallelism bounds the read fan-out (/fleet and the batch
// forms) when Options leaves it unset: wide enough to hide per-avail
// latency, narrow enough that one request cannot monopolize the process.
const DefaultFleetParallelism = 8

// DefaultMaxInFlight is the concurrency-limiter capacity when Options
// leaves it unset.
const DefaultMaxInFlight = 256

// DefaultRequestTimeout bounds one request's handling when Options
// leaves it unset.
const DefaultRequestTimeout = 30 * time.Second

// DefaultMaxBodyBytes caps POST bodies when Options leaves it unset;
// one RCC is a few hundred bytes, so 1 MiB is already generous.
const DefaultMaxBodyBytes = 1 << 20

// Ingester is the write path the /rccs endpoint acknowledges through.
// statusq.ShardedCatalog and statusq.DurableCatalog implement it with
// WAL-before-ack semantics.
type Ingester interface {
	// Ingest applies one RCC, deduplicating by key; see
	// statusq.DurableCatalog.Ingest for the acknowledgment contract.
	Ingest(key string, r domain.RCC) (dup bool, err error)
	// Ready reports whether ingestion can currently be acknowledged.
	Ready() error
}

// Options tune the handler.
type Options struct {
	// FleetParallelism caps the number of avails one read request (a
	// /fleet sweep or a batch) evaluates concurrently; <= 0 selects
	// DefaultFleetParallelism.
	FleetParallelism int
	// MaxInFlight caps concurrently handled requests; excess load is
	// shed with 503 + Retry-After. 0 selects DefaultMaxInFlight,
	// negative disables shedding.
	MaxInFlight int
	// RequestTimeout is the per-request deadline propagated through the
	// request context. 0 selects DefaultRequestTimeout, negative
	// disables the deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (413 beyond it). 0 selects
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Ingester handles POST /rccs and gates /readyz. nil makes the
	// catalog its own ingester (a statusq.ShardedCatalog is); a catalog
	// that cannot ingest, such as a statusq.DurableCatalog's embedded
	// *statusq.Catalog, needs its DurableCatalog wired here.
	Ingester Ingester
	// Logger receives one line per request (method, path, status,
	// duration) plus panic and write-failure reports. nil disables
	// request logging.
	Logger *log.Logger
	// Models serves /predict and annotates /fleet rows with predictions.
	// nil serves without a model registry: those answers carry
	// prediction_unavailable and /models/reload answers 503.
	Models *modelserve.Registry
}

// Catalog is the queryable serving surface the handlers read from.
// *statusq.ShardedCatalog (N ≥ 1 shards keyed by avail id, point lookups
// routed to the owning shard, fleet sweeps merged across shards in
// ascending id order) is the one `domd serve` builds; *statusq.Catalog
// satisfies it too.
type Catalog interface {
	// Avail resolves one avail record by id.
	Avail(id int) (*domain.Avail, bool)
	// AvailIDs lists every avail id in ascending order.
	AvailIDs() []int
	// OngoingIDs lists ongoing avail ids in ascending order — the
	// deterministic sweep /fleet renders.
	OngoingIDs() []int
	// EngineAsOf resolves an avail's serving engine with stale/asOf
	// provenance (see statusq.Catalog.EngineAsOf).
	EngineAsOf(id int) (eng *statusq.Engine, asOf int64, stale bool, err error)
}

// Server handles the SMDII-style JSON API.
type Server struct {
	svc      *core.QueryService
	ext      *features.Extractor // starts each request's feature rows
	drivers  map[string]string   // driver descriptions by name; read-only after New
	catalog  Catalog
	ingester Ingester
	mux      *http.ServeMux
	fleetPar int
	inflight chan struct{} // nil when shedding is disabled
	timeout  time.Duration // 0 when the deadline is disabled
	maxBody  int64
	logger   *log.Logger
	models   *modelserve.Registry // nil when serving without models
	// latEWMA is math.Float64bits of an exponentially weighted moving
	// average of request latency in seconds; Retry-After on 503s is
	// derived from it (see retryAfterSeconds).
	latEWMA atomic.Uint64
}

// New wires a trained pipeline and an avail catalog into an http.Handler.
// Queries read the catalog's engines; the query service itself never
// builds an engine. New panics when p was not trained on ext's features:
// callers that load a pipeline check it first with
// core.Pipeline.CheckFeatureNames, so a mismatch here is a wiring bug.
func New(p *core.Pipeline, ext *features.Extractor, catalog Catalog, opts Options) *Server {
	if err := p.CheckFeatureNames(ext.Names()); err != nil {
		panic(fmt.Sprintf("server: %v", err))
	}
	par := opts.FleetParallelism
	if par <= 0 {
		par = DefaultFleetParallelism
	}
	s := &Server{
		svc:      core.NewQueryService(p, ext, index.KindAVL),
		ext:      ext,
		drivers:  features.DescribeAll(ext.Names()),
		catalog:  catalog,
		ingester: opts.Ingester,
		mux:      http.NewServeMux(),
		fleetPar: par,
		maxBody:  opts.MaxBodyBytes,
		logger:   opts.Logger,
		models:   opts.Models,
	}
	if s.ingester == nil {
		c, ok := catalog.(Ingester)
		if !ok {
			panic("server: catalog cannot ingest and no Options.Ingester was provided")
		}
		s.ingester = c
	}
	if s.maxBody == 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	switch {
	case opts.MaxInFlight == 0:
		s.inflight = make(chan struct{}, DefaultMaxInFlight)
	case opts.MaxInFlight > 0:
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	switch {
	case opts.RequestTimeout == 0:
		s.timeout = DefaultRequestTimeout
	case opts.RequestTimeout > 0:
		s.timeout = opts.RequestTimeout
	}
	// Register routes from the Endpoints table so the documented surface
	// and the served surface are one artifact; a table row without a
	// handler (or vice versa) fails the first constructed server, which
	// every test exercises.
	handlers := map[string]http.HandlerFunc{
		"GET /healthz":        s.handleHealth,
		"GET /readyz":         s.handleReady,
		"GET /avails":         s.handleAvails,
		"GET /query":          s.handleQuery,
		"GET /fleet":          s.handleFleet,
		"POST /query/batch":   s.handleQueryBatch,
		"GET /predict":        s.handlePredict,
		"POST /predict":       s.handlePredictBatch,
		"GET /models":         s.handleModels,
		"POST /models/reload": s.handleModelsReload,
		"POST /rccs":          s.handleIngest,
		"GET /metrics":        obs.Handler().ServeHTTP,
	}
	for _, e := range Endpoints() {
		pattern := e.Method + " " + e.Path
		h, ok := handlers[pattern]
		if !ok {
			panic(fmt.Sprintf("server: endpoint table row %q has no handler", pattern))
		}
		s.mux.HandleFunc(pattern, h)
		delete(handlers, pattern)
	}
	if len(handlers) != 0 {
		panic(fmt.Sprintf("server: %d handlers missing from the endpoint table", len(handlers)))
	}
	return s
}

// statusRecorder captures the response code for the request log and
// lets the panic handler know whether headers already went out.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.wrote {
		return
	}
	r.wrote = true
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.wrote = true // implicit 200
	}
	return r.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler: the middleware stack (panic
// recovery, load shedding, per-request deadline, metrics, trace
// emission) around the route mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeLabel(r.URL.Path)
	span := obs.NewSpan(r.Method, route)
	if uri := r.URL.RequestURI(); uri != route {
		span.Set("uri", uri)
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	mInFlight.Inc()
	defer mInFlight.Dec()
	// finish records the request outcome exactly once: route counters,
	// the latency histogram, and the structured trace line through the
	// request logger. Every exit path below funnels through it.
	finished := false
	finish := func() {
		if finished {
			return
		}
		finished = true
		mRequests.With(route, r.Method, strconv.Itoa(rec.status)).Inc()
		sec := span.Elapsed().Seconds()
		mLatency.With(route).Observe(sec)
		s.noteLatency(sec)
		if s.logger != nil {
			s.logger.Printf("%s", span.Line(rec.status))
		}
	}

	// Panic recovery: a panicking handler answers 500 (when the header
	// is still ours to send) and the process keeps serving. net/http
	// would also swallow the panic, but only by killing the connection;
	// here the client gets a real response and the stack is logged.
	// http.ErrAbortHandler is the sanctioned abort signal — re-raise it.
	defer func() {
		if v := recover(); v != nil {
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(v)
			}
			mPanics.Inc()
			span.Set("outcome", "panic")
			s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			if !rec.wrote {
				s.writeErr(rec, r, http.StatusInternalServerError, fmt.Errorf("internal server error"))
			}
			finish()
		}
	}()

	// Load shedding — but never for probes or scrapes: a saturated
	// server must still answer /healthz (it is alive), /readyz honestly,
	// and /metrics, or overload hides its own diagnosis.
	if s.inflight != nil && !probeBypass(r.URL.Path) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			mShed.Inc()
			span.Set("outcome", "shed")
			rec.Header().Set("Retry-After", s.retryAfterSeconds())
			s.writeErr(rec, r, http.StatusServiceUnavailable, fmt.Errorf("server at capacity; retry"))
			finish()
			return
		}
	}

	ctx := obs.WithSpan(r.Context(), span)
	if s.timeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, s.timeout)
		defer cancel()
		ctx = tctx
	}
	r = r.WithContext(ctx)

	s.mux.ServeHTTP(rec, r)
	finish()
}

// maxRetryAfterSeconds caps the derived backoff hint: past a minute the
// client should be probing /readyz, not sleeping longer.
const maxRetryAfterSeconds = 60

// noteLatency folds one request's latency into the server's EWMA
// (alpha 1/8; the first observation seeds the average). Lock-free so
// the request path never serializes on it.
func (s *Server) noteLatency(sec float64) {
	for {
		old := s.latEWMA.Load()
		avg := sec
		if old != 0 {
			avg = math.Float64frombits(old) + (sec-math.Float64frombits(old))/8
		}
		if s.latEWMA.CompareAndSwap(old, math.Float64bits(avg)) {
			return
		}
	}
}

// retryAfterSeconds derives the Retry-After hint on 503 responses from
// current in-flight pressure instead of a hardcoded constant: the
// expected backlog drain time is (mean request latency × in-flight
// depth / concurrency), rounded up and clamped to [1, 60] seconds. A
// lightly loaded server still says 1; a server saturated with slow
// requests — e.g. every worker stuck on one faulted shard — tells
// clients to back off for as long as the backlog will realistically
// take to clear.
func (s *Server) retryAfterSeconds() string {
	depth, capacity := 0, 1
	if s.inflight != nil {
		depth = len(s.inflight)
		if c := cap(s.inflight); c > 1 {
			capacity = c
		}
	}
	mean := math.Float64frombits(s.latEWMA.Load())
	secs := int(math.Ceil(mean * float64(depth) / float64(capacity)))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return strconv.Itoa(secs)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v to the client. An encode failure at this point is a
// write failure (typically a disconnected client — headers are already
// sent), so it is logged with the request path rather than discarded.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logf("%s %s: response write failed: %v", r.Method, r.URL.Path, err)
	}
}

// logf writes to the configured request logger, falling back to the
// process logger so write failures stay visible even when request logging
// is disabled.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.writeJSON(w, r, status, errorBody{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, map[string]string{"status": "ok"})
}

// HealthReporter is implemented by ingesters that expose per-shard
// health (statusq.ShardedCatalog): /readyz folds the rows into its JSON
// body so operators and load balancers see which shard is unhealthy,
// not just that one is.
type HealthReporter interface {
	// ShardHealths reports one row per shard; see
	// statusq.ShardedCatalog.ShardHealths.
	ShardHealths() []statusq.ShardHealthStatus
}

// readyShardView is one shard's row in the /readyz body.
type readyShardView struct {
	Shard       int    `json:"shard"`
	State       string `json:"state"`
	Replicas    int    `json:"replicas"`
	Live        int    `json:"live"`
	Lag         uint64 `json:"lag"`
	Promotable  bool   `json:"promotable"`
	BreakerOpen bool   `json:"breaker_open,omitempty"`
}

// readyView is the /readyz body. Shards is present whenever the
// ingester reports per-shard health — always under `domd serve`, whose
// catalog is a sharded tier of at least one shard.
type readyView struct {
	Status string           `json:"status"`
	Error  string           `json:"error,omitempty"`
	Shards []readyShardView `json:"shards,omitempty"`
}

// handleReady distinguishes "process up" from "safe to send traffic":
// ready means the catalog is restored and the WAL (when configured) is
// open for acknowledgments. Deployments point load balancers here.
// Status contract: 503 when the ingester reports unready or any shard
// is failed with no promotable replica (appends there cannot be
// acknowledged at all); 200 otherwise, with status "degraded" when a
// shard is impaired but the tier still acknowledges everywhere.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	view := readyView{Status: "ready"}
	status := http.StatusOK
	if err := s.ingester.Ready(); err != nil {
		view.Status = "unready"
		view.Error = err.Error()
		status = http.StatusServiceUnavailable
	}
	if hr, ok := s.ingester.(HealthReporter); ok {
		rows := hr.ShardHealths()
		view.Shards = make([]readyShardView, len(rows))
		for i, row := range rows {
			view.Shards[i] = readyShardView{
				Shard:       row.Shard,
				State:       row.State.String(),
				Replicas:    row.Replicas,
				Live:        row.Live,
				Lag:         row.Lag,
				Promotable:  row.Promotable,
				BreakerOpen: row.BreakerOpen,
			}
			switch {
			case row.State == statusq.ShardFailed && !row.Promotable:
				// No replica can take acknowledgments for this shard's
				// keyspace: traffic must drain elsewhere.
				if status == http.StatusOK {
					view.Status = "unready"
					status = http.StatusServiceUnavailable
				}
			case row.State != statusq.ShardHealthy:
				if view.Status == "ready" {
					view.Status = "degraded"
				}
			}
		}
	}
	s.writeJSON(w, r, status, view)
}

// availView is the /avails row.
type availView struct {
	ID        int    `json:"id"`
	ShipID    int    `json:"ship_id"`
	Status    string `json:"status"`
	PlanStart string `json:"plan_start"`
	PlanEnd   string `json:"plan_end"`
	ActStart  string `json:"actual_start"`
	ActEnd    string `json:"actual_end,omitempty"`
	DelayDays *int   `json:"delay_days,omitempty"`
}

func (s *Server) handleAvails(w http.ResponseWriter, r *http.Request) {
	ids := s.catalog.AvailIDs()
	out := make([]availView, 0, len(ids)) // non-nil: an empty catalog encodes []
	for _, id := range ids {
		a, _ := s.catalog.Avail(id)
		v := availView{
			ID: a.ID, ShipID: a.ShipID, Status: a.Status.String(),
			PlanStart: a.PlanStart.String(), PlanEnd: a.PlanEnd.String(),
			ActStart: a.ActStart.String(),
		}
		if a.Status == domain.StatusClosed {
			v.ActEnd = a.ActEnd.String()
			if d, err := a.Delay(); err == nil {
				v.DelayDays = &d
			}
		}
		out = append(out, v)
	}
	s.writeJSON(w, r, http.StatusOK, out)
}

// estimateView is one trajectory point of /query.
type estimateView struct {
	Timestamp float64 `json:"t_star"`
	Raw       float64 `json:"raw_days"`
	Fused     float64 `json:"fused_days"`
}

// driverView is one §5.2.5 top-feature row.
type driverView struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Value       float64 `json:"value"`
	Score       float64 `json:"score"`
}

// queryView is the /query response. Stale and AsOf are the degraded-mode
// markers documented in the package comment: AsOf is the answering
// engine's revision (RCCs of this avail folded in), Stale reports that
// the avail's shard has failed and acknowledges no new RCCs.
type queryView struct {
	AvailID     int            `json:"avail_id"`
	At          string         `json:"at"`
	LogicalTime float64        `json:"t_star"`
	FinalDays   float64        `json:"estimated_delay_days"`
	Stale       bool           `json:"stale"`
	AsOf        int64          `json:"asOf"`
	Estimates   []estimateView `json:"estimates"`
	TopDrivers  []driverView   `json:"top_drivers"`
}

// renderQuery evaluates one DoMD query from a feature row over an
// already-resolved engine and shapes the response view. The row may be
// shared with other dates of the same avail and with the prediction of
// the same request (see evaluate).
func (s *Server) renderQuery(vecs *features.Row, asOf int64, stale bool, at domain.Day) (*queryView, error) {
	res, err := s.svc.QueryRow(vecs, at)
	if err != nil {
		return nil, err
	}
	view := &queryView{
		AvailID:     res.AvailID,
		At:          at.String(),
		LogicalTime: res.LogicalTime,
		FinalDays:   res.Final(),
		Stale:       stale,
		AsOf:        asOf,
		Estimates:   make([]estimateView, 0, len(res.Estimates)),
	}
	for _, e := range res.Estimates {
		view.Estimates = append(view.Estimates, estimateView{Timestamp: e.Timestamp, Raw: e.Raw, Fused: e.Fused})
	}
	if len(res.TopDrivers) > 0 {
		view.TopDrivers = make([]driverView, 0, len(res.TopDrivers))
	}
	for _, d := range res.TopDrivers {
		desc, ok := s.drivers[d.Name]
		if !ok {
			var err error
			if desc, err = features.Describe(d.Name); err != nil {
				desc = ""
			}
		}
		view.TopDrivers = append(view.TopDrivers, driverView{Name: d.Name, Description: desc, Value: d.Value, Score: d.Score})
	}
	return view, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	out, ok := s.readOne(w, r, answers{query: true})
	if !ok {
		return
	}
	if sp := obs.FromContext(r.Context()); sp != nil {
		sp.SetInt("asOf", out.query.AsOf)
		sp.SetBool("stale", out.query.Stale)
	}
	s.writeJSON(w, r, http.StatusOK, out.query)
}

// fleetRow is one /fleet entry; failed avails carry an error message so one
// unqueryable avail doesn't hide the rest of the fleet. Result rows carry
// the same "stale"/"asOf" degraded-answer markers as /query, plus a
// "degraded" flag when the owning shard's health ladder is below healthy
// (the answer may be correct-but-stale while the shard recovers). When a
// model registry serves, each row additionally carries the predicted
// delay, its conformal band, and the producing model version — or
// prediction_unavailable under the same degraded-answer contract.
type fleetRow struct {
	AvailID               int        `json:"avail_id"`
	Degraded              bool       `json:"degraded,omitempty"`
	PredictedDelay        *float64   `json:"predicted_delay,omitempty"`
	BandLo                *float64   `json:"band_lo,omitempty"`
	BandHi                *float64   `json:"band_hi,omitempty"`
	ModelVersion          string     `json:"model_version,omitempty"`
	WindowFallback        bool       `json:"window_fallback,omitempty"`
	PredictionUnavailable bool       `json:"prediction_unavailable,omitempty"`
	Result                *queryView `json:"result,omitempty"`
	Error                 string     `json:"error,omitempty"`
}

// availHealth is implemented by catalogs that can resolve an avail to
// its owning shard's health (statusq.ShardedCatalog); /fleet uses it to
// annotate rows served by degraded or failed shards.
type availHealth interface {
	HealthForAvail(id int) statusq.ShardHealth
}

// handleFleet answers every ongoing avail at one date: one request per
// avail carrying both the DoMD query and the prediction, so a row's model
// answer describes exactly the history its estimates were served from.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	at, err := domain.ParseDay(r.URL.Query().Get("date"))
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	ids := s.catalog.OngoingIDs()
	reqs := make([]readReq, len(ids))
	for i, id := range ids {
		reqs[i] = readReq{avail: id, at: at}
	}
	outs, avails := s.evaluate(r.Context(), reqs, answers{query: true, predict: true})
	ah, _ := s.catalog.(availHealth)
	rows := make([]fleetRow, len(ids)) // non-nil: no ongoing avails encodes []
	for i, o := range outs {
		rows[i].AvailID = ids[i]
		if o.err != nil {
			rows[i].Error = o.err.Error()
		} else {
			rows[i].Result = o.query
			rows[i].setPrediction(o.pred)
		}
		if ah != nil && ah.HealthForAvail(ids[i]) != statusq.ShardHealthy {
			rows[i].Degraded = true
		}
	}
	spanRows(r.Context(), outs, avails)
	s.writeJSON(w, r, http.StatusOK, rows)
}

// setPrediction copies the model fields of a /predict row onto a fleet
// row: predicted delay, conformal band, and model version — or
// prediction_unavailable when no registry serves, the registry is empty,
// or the model fails. Fleet reads stay 200 either way (the
// degraded-answer contract).
func (row *fleetRow) setPrediction(p *predictRow) {
	row.PredictedDelay, row.BandLo, row.BandHi = p.PredictedDelay, p.BandLo, p.BandHi
	row.ModelVersion = p.ModelVersion
	row.WindowFallback = p.WindowFallback
	row.PredictionUnavailable = p.PredictionUnavailable
}

// MaxBatchQueries caps one POST /query/batch request; beyond it the batch
// is rejected with 422 rather than silently truncated.
const MaxBatchQueries = 256

// batchIn is the POST /query/batch request body.
type batchIn struct {
	Queries []batchQueryIn `json:"queries"`
}

// batchQueryIn is one requested (avail, date) evaluation.
type batchQueryIn struct {
	Avail int    `json:"avail"`
	Date  string `json:"date"`
}

// batchRow is one /query/batch result, in request order; failed queries
// carry an error message so one bad entry doesn't fail the batch (the same
// isolation contract as /fleet rows).
type batchRow struct {
	AvailID int        `json:"avail_id"`
	Result  *queryView `json:"result,omitempty"`
	Error   string     `json:"error,omitempty"`
}

// handleQueryBatch answers many DoMD queries in one request. The point is
// amortization on warm paths: each distinct avail in the batch resolves
// its engine once and answers all its dates
// from one feature row, and the avails fan out with the same bounded
// parallelism and per-row error isolation as /fleet. Status contract: 400
// malformed body or empty batch, 413 oversized body, 422 more than
// MaxBatchQueries entries, 200 otherwise with per-row errors inline.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var in batchIn
	if !s.decodeBody(w, r, &in) {
		return
	}
	reqs, ok := s.batchReqs(w, r, in.Queries)
	if !ok {
		return
	}
	outs, avails := s.evaluate(r.Context(), reqs, answers{query: true})
	rows := make([]batchRow, len(outs))
	for i, o := range outs {
		rows[i].AvailID = reqs[i].avail
		if o.err != nil {
			rows[i].Error = o.err.Error()
		} else {
			rows[i].Result = o.query
		}
	}
	spanRows(r.Context(), outs, avails)
	s.writeJSON(w, r, http.StatusOK, rows)
}

// rccIn is the POST /rccs request body.
type rccIn struct {
	ID      int     `json:"id"`
	AvailID int     `json:"avail_id"`
	Type    string  `json:"type"`
	SWLIN   string  `json:"swlin"`
	Created string  `json:"created"`
	Settled string  `json:"settled"`
	Amount  float64 `json:"amount"`
}

// ingestView is the POST /rccs acknowledgment.
type ingestView struct {
	ID        int    `json:"id"`
	AvailID   int    `json:"avail_id"`
	Key       string `json:"idempotency_key"`
	Duplicate bool   `json:"duplicate"`
}

// handleIngest is the durable write path: parse strictly, validate
// semantically, then acknowledge only what the Ingester accepted.
// Status contract: 400 malformed body, 413 oversized body, 422 invalid
// field values, 404 unknown avail, 503 (+ Retry-After) storage fault or
// not ready, 201 acknowledged, 200 duplicate of an earlier ack.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if err := r.Context().Err(); err != nil {
		s.writeErr(w, r, http.StatusServiceUnavailable, err)
		return
	}
	var in rccIn
	if !s.decodeBody(w, r, &in) {
		return
	}

	rcc, err := parseRCC(in)
	if err != nil {
		s.writeErr(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	// Resolve the avail before consulting idempotency state so an unknown
	// avail is 404 even when the key was seen; the Ingester re-checks.
	if _, ok := s.catalog.Avail(rcc.AvailID); !ok {
		s.writeErr(w, r, http.StatusNotFound,
			fmt.Errorf("statusq: rcc %d references %w %d", rcc.ID, statusq.ErrUnknownAvail, rcc.AvailID))
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		key = fmt.Sprintf("rcc:%d", rcc.ID)
	}
	dup, err := s.ingester.Ingest(key, rcc)
	switch {
	case errors.Is(err, statusq.ErrUnknownAvail):
		s.writeErr(w, r, http.StatusNotFound, err)
		return
	case err != nil:
		// Storage fault or not-ready: nothing was acknowledged. The
		// client retries with the same key; replay dedup makes the
		// retry exactly-once even if the failed attempt reached disk.
		// The backoff hint scales with current in-flight pressure — a
		// saturated shard shows up as piled-up requests here.
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.writeErr(w, r, http.StatusServiceUnavailable, err)
		return
	}
	status := http.StatusCreated
	if dup {
		status = http.StatusOK
	}
	if sp := obs.FromContext(r.Context()); sp != nil {
		sp.SetInt("rcc", int64(rcc.ID))
		sp.SetBool("duplicate", dup)
	}
	s.writeJSON(w, r, status, ingestView{ID: rcc.ID, AvailID: rcc.AvailID, Key: key, Duplicate: dup})
}

// parseRCC maps the wire form onto a validated domain.RCC; every failure
// here is a 422 (well-formed JSON, semantically unusable values).
func parseRCC(in rccIn) (domain.RCC, error) {
	var zero domain.RCC
	if in.ID <= 0 {
		return zero, fmt.Errorf("rcc id must be a positive integer, got %d", in.ID)
	}
	typ, err := domain.ParseRCCType(in.Type)
	if err != nil {
		return zero, fmt.Errorf("bad rcc type %q (want G, NW, or NG)", in.Type)
	}
	code, err := swlin.Parse(in.SWLIN)
	if err != nil {
		return zero, err
	}
	if !code.Valid() {
		return zero, fmt.Errorf("swlin %q out of range", in.SWLIN)
	}
	created, err := domain.ParseDay(in.Created)
	if err != nil {
		return zero, fmt.Errorf("bad created date: %w", err)
	}
	settled, err := domain.ParseDay(in.Settled)
	if err != nil {
		return zero, fmt.Errorf("bad settled date: %w", err)
	}
	rcc := domain.RCC{
		ID: in.ID, AvailID: in.AvailID, Type: typ, SWLIN: int(code),
		Created: created, Settled: settled, Amount: in.Amount,
	}
	if err := rcc.Validate(); err != nil {
		return zero, err
	}
	return rcc, nil
}
