package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/fusion"
	"domd/internal/index"
	"domd/internal/ml/gbt"
	"domd/internal/navsim"
	"domd/internal/split"
	"domd/internal/statusq"
	"domd/internal/wal"
)

// trainTestPipeline trains one small pipeline per test binary; the trained
// pipeline and extractor are read-only and shared by every test server.
var trainTestPipeline = sync.OnceValues(func() (*core.Pipeline, *features.Extractor) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		panic(err)
	}
	ext := features.NewExtractor()
	tensor, err := features.BuildTensor(ext, ds.Avails, ds.RCCsByAvail(), 25, index.KindAVL)
	if err != nil {
		panic(err)
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		panic(err)
	}
	cfg := core.BaselineConfig()
	cfg.Fusion = fusion.MethodAverage
	p := gbt.DefaultParams()
	p.NumRounds = 15
	p.LearningRate = 0.3
	cfg.GBTParams = &p
	pipe, err := core.Train(cfg, tensor, sp.Train, sp.Val)
	if err != nil {
		panic(err)
	}
	return pipe, ext
})

// openTier opens the catalog `domd serve` builds — a one-shard,
// one-replica sharded tier — over the tables, on a WAL in t.TempDir()
// that never fsyncs.
func openTier(t testing.TB, avails []domain.Avail, rccs []domain.RCC) *statusq.ShardedCatalog {
	t.Helper()
	sc, _, err := statusq.OpenSharded(t.TempDir(), 1, avails, rccs, index.KindAVL,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

// newTestServer trains a small pipeline and serves the dataset's fleet
// from a one-shard tier, which is also the server's ingester.
func newTestServer(t *testing.T) (*httptest.Server, *navsim.Dataset, *statusq.ShardedCatalog) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	catalog := openTier(t, ds.Avails, ds.RCCs)
	srv := httptest.NewServer(New(pipe, ext, catalog, Options{}))
	t.Cleanup(srv.Close)
	return srv, ds, catalog
}

// engineBuilds reads the process-wide engine-construction counter off
// the server's /metrics. Tests in this package run one at a time, so
// the before/after delta is the engines this test's server built.
func engineBuilds(t *testing.T, baseURL string) float64 {
	t.Helper()
	return scrapeMetrics(t, baseURL)["domd_engine_builds_total"]
}

func get(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
}

func TestHealth(t *testing.T) {
	srv, _, _ := newTestServer(t)
	var body map[string]string
	get(t, srv.URL+"/healthz", http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Errorf("health = %v", body)
	}
}

func TestAvailsList(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	var rows []map[string]any
	get(t, srv.URL+"/avails", http.StatusOK, &rows)
	if len(rows) != len(ds.Avails) {
		t.Fatalf("%d avails, want %d", len(rows), len(ds.Avails))
	}
	closed, ongoing := 0, 0
	for _, r := range rows {
		switch r["status"] {
		case "closed":
			closed++
			if _, ok := r["delay_days"]; !ok {
				t.Error("closed avail missing delay_days")
			}
		case "ongoing":
			ongoing++
			if _, ok := r["actual_end"]; ok {
				t.Error("ongoing avail has actual_end")
			}
		}
	}
	if closed != 40 || ongoing != 3 {
		t.Errorf("closed/ongoing = %d/%d", closed, ongoing)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	var target int
	for i := range ds.Avails {
		if ds.Avails[i].Status.String() == "ongoing" {
			target = ds.Avails[i].ID
			break
		}
	}
	a := ds.Avails[target-1]
	date := a.PhysicalTime(60).String()
	var view struct {
		AvailID    int     `json:"avail_id"`
		TStar      float64 `json:"t_star"`
		Final      float64 `json:"estimated_delay_days"`
		Estimates  []any   `json:"estimates"`
		TopDrivers []any   `json:"top_drivers"`
	}
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, target, date), http.StatusOK, &view)
	if view.AvailID != target {
		t.Errorf("avail id = %d", view.AvailID)
	}
	if view.TStar < 55 || view.TStar > 65 {
		t.Errorf("t* = %f, want ≈60", view.TStar)
	}
	if len(view.Estimates) == 0 || len(view.TopDrivers) != 5 {
		t.Errorf("estimates %d drivers %d", len(view.Estimates), len(view.TopDrivers))
	}
}

func TestQueryErrors(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	var e map[string]string
	get(t, srv.URL+"/query?avail=xyz&date=2020-01-01", http.StatusBadRequest, &e)
	get(t, srv.URL+"/query?avail=1&date=garbage", http.StatusBadRequest, &e)
	get(t, srv.URL+"/query?avail=999999&date=2020-01-01", http.StatusNotFound, &e)
	// Query before the avail started: unprocessable.
	a := ds.Avails[0]
	early := (a.ActStart - 100).String()
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, early), http.StatusUnprocessableEntity, &e)
	if e["error"] == "" {
		t.Error("error body missing")
	}
}

func TestFleetEndpoint(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	// Pick a date where at least one ongoing avail is executing.
	var date string
	for i := range ds.Avails {
		if ds.Avails[i].Status.String() == "ongoing" {
			date = ds.Avails[i].PhysicalTime(50).String()
			break
		}
	}
	var rows []struct {
		AvailID int             `json:"avail_id"`
		Result  json.RawMessage `json:"result"`
		Error   string          `json:"error"`
	}
	get(t, srv.URL+"/fleet?date="+date, http.StatusOK, &rows)
	if len(rows) != 3 {
		t.Fatalf("fleet rows = %d, want 3 ongoing", len(rows))
	}
	answered := 0
	for _, r := range rows {
		if r.Error == "" && len(r.Result) > 0 {
			answered++
		}
	}
	if answered == 0 {
		t.Error("no fleet rows answered")
	}
	get(t, srv.URL+"/fleet?date=bad", http.StatusBadRequest, new(map[string]string))
}

func TestMethodRouting(t *testing.T) {
	srv, _, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/query", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /query = %d, want 405", resp.StatusCode)
	}
}

// TestQueryAvailIDParsing pins the strconv.Atoi regression: fmt.Sscanf
// accepted trailing junk ("12abc" parsed as 12), silently answering for the
// wrong resource. Any non-integer avail parameter must be a 400.
func TestQueryAvailIDParsing(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	var e map[string]string
	for _, bad := range []string{"12abc", "1.5", " 7", "7 ", "0x10", "", "++3"} {
		get(t, srv.URL+"/query?avail="+url.QueryEscape(bad)+"&date=2020-01-01", http.StatusBadRequest, &e)
	}
	// Sanity: a well-formed id still routes (404 — the id is parsed, just unknown).
	get(t, srv.URL+"/query?avail=999999&date=2020-01-01", http.StatusNotFound, &e)
	// And a real id still works end to end.
	a := ds.Avails[0]
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(50)), http.StatusOK, nil)
}

// rawBody fetches a URL and returns the trimmed response body.
func rawBody(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}

// TestEmptyCollectionsEncodeAsArrays pins the nil-slice regression: /avails
// on an empty catalog and /fleet with no ongoing avails must encode [] —
// JSON clients treat null and [] very differently.
func TestEmptyCollectionsEncodeAsArrays(t *testing.T) {
	pipe, ext := trainTestPipeline()

	srv := httptest.NewServer(New(pipe, ext, openTier(t, nil, nil), Options{}))
	defer srv.Close()
	if body := rawBody(t, srv.URL+"/avails", http.StatusOK); body != "[]" {
		t.Errorf("/avails on empty catalog = %q, want []", body)
	}
	if body := rawBody(t, srv.URL+"/fleet?date=2023-01-01", http.StatusOK); body != "[]" {
		t.Errorf("/fleet with no ongoing avails = %q, want []", body)
	}

	// A fleet of exclusively closed avails must also yield [].
	ds, err := navsim.Generate(navsim.Config{NumClosed: 5, NumOngoing: 0, MeanRCCsPerAvail: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(New(pipe, ext, openTier(t, ds.Avails, ds.RCCs), Options{}))
	defer srv2.Close()
	if body := rawBody(t, srv2.URL+"/fleet?date=2023-01-01", http.StatusOK); body != "[]" {
		t.Errorf("/fleet over closed-only catalog = %q, want []", body)
	}
}

// TestRouteStatusCodes pins every route's status contract: 400 on bad
// params, 404 on unknown avail, 422 on an avail not started at the date,
// 200 on the happy path, 405 on wrong method.
func TestRouteStatusCodes(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	a := ds.Avails[0]
	cases := []struct {
		name, path string
		want       int
	}{
		{"healthz ok", "/healthz", http.StatusOK},
		{"avails ok", "/avails", http.StatusOK},
		{"query ok", fmt.Sprintf("/query?avail=%d&date=%s", a.ID, a.PhysicalTime(50)), http.StatusOK},
		{"query missing avail", "/query?date=2020-01-01", http.StatusBadRequest},
		{"query junk avail", "/query?avail=12abc&date=2020-01-01", http.StatusBadRequest},
		{"query bad date", fmt.Sprintf("/query?avail=%d&date=garbage", a.ID), http.StatusBadRequest},
		{"query missing date", fmt.Sprintf("/query?avail=%d", a.ID), http.StatusBadRequest},
		{"query unknown avail", "/query?avail=999999&date=2020-01-01", http.StatusNotFound},
		{"query not started", fmt.Sprintf("/query?avail=%d&date=%s", a.ID, a.ActStart-100), http.StatusUnprocessableEntity},
		{"fleet ok", "/fleet?date=" + ds.Avails[len(ds.Avails)-1].PhysicalTime(50).String(), http.StatusOK},
		{"fleet bad date", "/fleet?date=nope", http.StatusBadRequest},
		{"fleet missing date", "/fleet", http.StatusBadRequest},
		{"unknown route", "/nope", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(srv.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
			}
		})
	}
	for _, route := range []string{"/healthz", "/avails", "/query", "/fleet"} {
		resp, err := http.Post(srv.URL+route, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", route, resp.StatusCode)
		}
	}

	// POST /query/batch status grid: 405 on GET, 400 malformed/empty, 422
	// oversized batch, 200 otherwise (row errors are carried inline).
	resp, err := http.Get(srv.URL + "/query/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query/batch = %d, want 405", resp.StatusCode)
	}
	batchCases := []struct {
		name, body string
		want       int
	}{
		{"batch malformed", `{"queries":`, http.StatusBadRequest},
		{"batch unknown field", `{"quarries":[]}`, http.StatusBadRequest},
		{"batch empty", `{"queries":[]}`, http.StatusBadRequest},
		{"batch too many", batchBody(a, MaxBatchQueries+1), http.StatusUnprocessableEntity},
		{"batch ok", batchBody(a, 3), http.StatusOK},
	}
	for _, tc := range batchCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/query/batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("POST /query/batch %s = %d, want %d", tc.name, resp.StatusCode, tc.want)
			}
		})
	}

	// 503 responses advertise a pressure-derived Retry-After, not a
	// hardcoded 1s: expected backlog drain time = EWMA latency × depth /
	// capacity, rounded up and clamped to [1, 60].
	t.Run("retry-after derivation", func(t *testing.T) {
		s := &Server{inflight: make(chan struct{}, 4)}
		if got := s.retryAfterSeconds(); got != "1" {
			t.Errorf("idle server Retry-After = %q, want 1", got)
		}
		for i := 0; i < 4; i++ {
			s.inflight <- struct{}{}
		}
		s.latEWMA.Store(math.Float64bits(10.0))
		if got := s.retryAfterSeconds(); got != "10" {
			t.Errorf("saturated server (10s EWMA, 4/4 slots) Retry-After = %q, want 10", got)
		}
		s.latEWMA.Store(math.Float64bits(0.5))
		if got := s.retryAfterSeconds(); got != "1" {
			t.Errorf("fast-request saturation Retry-After = %q, want floor of 1", got)
		}
		s.latEWMA.Store(math.Float64bits(120.0))
		if got := s.retryAfterSeconds(); got != "60" {
			t.Errorf("pathological backlog Retry-After = %q, want 60 cap", got)
		}
		noShed := &Server{}
		if got := noShed.retryAfterSeconds(); got != "1" {
			t.Errorf("shedding-disabled Retry-After = %q, want 1", got)
		}
	})
}

// batchBody builds a /query/batch payload with n copies of one valid query.
func batchBody(a domain.Avail, n int) string {
	q := fmt.Sprintf(`{"avail":%d,"date":%q}`, a.ID, a.PhysicalTime(50).String())
	items := make([]string, n)
	for i := range items {
		items[i] = q
	}
	return `{"queries":[` + strings.Join(items, ",") + `]}`
}

// TestQueryBatch pins the batch contract: answers arrive in request order
// and bitwise-match the single-query endpoint, the engine lookup is
// amortized to one build per distinct avail, and a bad row (unknown avail,
// bad date, pre-start date) fails alone without failing the batch.
func TestQueryBatch(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	a, b := ds.Avails[0], ds.Avails[1]

	var single queryView
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(50)), http.StatusOK, &single)
	builds := engineBuilds(t, srv.URL)

	body := fmt.Sprintf(`{"queries":[
		{"avail":%d,"date":%q},
		{"avail":%d,"date":%q},
		{"avail":999999,"date":%q},
		{"avail":%d,"date":"garbage"},
		{"avail":%d,"date":%q},
		{"avail":%d,"date":%q}
	]}`,
		a.ID, a.PhysicalTime(50).String(),
		b.ID, b.PhysicalTime(50).String(),
		a.PhysicalTime(50).String(),
		a.ID,
		a.ID, a.PhysicalTime(70).String(),
		a.ID, (a.ActStart - 100).String())

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/query/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query/batch = %d, want 200", resp.StatusCode)
	}
	var rows []struct {
		AvailID int        `json:"avail_id"`
		Result  *queryView `json:"result"`
		Error   string     `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("batch returned %d rows, want 6", len(rows))
	}
	// Row 0 matches the single-query endpoint exactly.
	if rows[0].Error != "" || rows[0].Result == nil {
		t.Fatalf("row 0 failed: %+v", rows[0])
	}
	if rows[0].Result.FinalDays != single.FinalDays || rows[0].Result.AsOf != single.AsOf {
		t.Errorf("batch row 0 = (%v, asOf %d), single query = (%v, asOf %d)",
			rows[0].Result.FinalDays, rows[0].Result.AsOf, single.FinalDays, single.AsOf)
	}
	// Rows 1 and 4 succeed; rows 2, 3, and 5 fail alone.
	for _, i := range []int{1, 4} {
		if rows[i].Error != "" || rows[i].Result == nil {
			t.Errorf("row %d failed: %+v", i, rows[i])
		}
	}
	for _, i := range []int{2, 3, 5} {
		if rows[i].Error == "" || rows[i].Result != nil {
			t.Errorf("row %d did not fail: %+v", i, rows[i])
		}
	}
	// Amortization: three queries against avail a resolved its cached
	// engine once; only avail b cost a build.
	if got := engineBuilds(t, srv.URL); got != builds+1 {
		t.Errorf("batch performed %v engine builds, want 1 (avail %d only)", got-builds, b.ID)
	}
}

// TestRequestLogging checks the Options.Logger wiring: one structured
// trace line per request carrying request id, method, route, status, and
// duration (the grammar docs/OPERATIONS.md documents for incident
// diagnosis), with the raw URI attached when it differs from the route.
func TestRequestLogging(t *testing.T) {
	pipe, ext := trainTestPipeline()
	var buf strings.Builder
	srv := httptest.NewServer(New(pipe, ext, openTier(t, nil, nil), Options{Logger: log.New(&buf, "", 0)}))
	defer srv.Close()
	rawBody(t, srv.URL+"/avails", http.StatusOK)
	rawBody(t, srv.URL+"/query?avail=junk&date=x", http.StatusBadRequest)
	logged := buf.String()
	okRe := regexp.MustCompile(`trace id=[0-9a-f]{8}-\d{6} method=GET route=/avails status=200 dur_ms=\d+\.\d{3}`)
	if !okRe.MatchString(logged) {
		t.Errorf("missing 200 trace line in %q", logged)
	}
	badRe := regexp.MustCompile(`trace id=[0-9a-f]{8}-\d{6} method=GET route=/query status=400 dur_ms=\d+\.\d{3} uri=/query\?avail=junk&date=x`)
	if !badRe.MatchString(logged) {
		t.Errorf("missing 400 trace line with uri attribute in %q", logged)
	}
	// Distinct requests carry distinct ids.
	ids := regexp.MustCompile(`id=([0-9a-f]{8}-\d{6})`).FindAllStringSubmatch(logged, -1)
	if len(ids) != 2 || ids[0][1] == ids[1][1] {
		t.Errorf("expected two distinct request ids, got %v", ids)
	}
}
