package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"domd/internal/faultinject"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/obs"
	"domd/internal/statusq"
	"domd/internal/wal"
)

// scrapeMetrics GETs /metrics and parses the exposition through the
// same validating parser the obs unit tests use, so every end-to-end
// scrape doubles as a format check.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: invalid exposition: %v", err)
	}
	return m
}

// delta returns after[key] - before[key], treating an absent series as 0
// (counters only materialize on first increment).
func delta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}

// TestMetricsEndToEnd is the acceptance check for the observability
// layer: run real traffic — queries (fresh, cached, degraded under an
// injected engine-build fault, recovered), a fleet sweep, durable
// ingests (ack, duplicate, mid-apply panic), and a shed request — then
// assert the scraped counters moved accordingly. All metrics are
// process-global, so everything is asserted as a before/after delta.
func TestMetricsEndToEnd(t *testing.T) {
	defer faultinject.Reset()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	// SyncAlways + CompactEvery:1 so every acknowledged ingest moves the
	// WAL sync and compaction counters, not just the append counter.
	dc, _, err := statusq.OpenDurable(t.TempDir(), ds.Avails, ds.RCCs, index.KindAVL,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncAlways}, CompactEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	srv := httptest.NewServer(New(pipe, ext, dc.Catalog, Options{Ingester: dc}))
	defer srv.Close()

	a := ongoingAvail(t, ds)
	queryURL := fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(60))

	before := scrapeMetrics(t, srv.URL)

	// Two fresh queries: the first builds the engine, the second hits the
	// single-flight cache.
	get(t, queryURL, http.StatusOK, nil)
	get(t, queryURL, http.StatusOK, nil)

	// Two acknowledged ingests plus a duplicate replay of the first.
	body := rccBody(950101, a)
	if status, _, _ := postJSON(t, srv.URL+"/rccs", body, nil); status != http.StatusCreated {
		t.Fatalf("ingest = %d, want 201", status)
	}
	if status, _, _ := postJSON(t, srv.URL+"/rccs", body, nil); status != http.StatusOK {
		t.Fatalf("duplicate ingest = %d, want 200", status)
	}
	if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(950102, a), nil); status != http.StatusCreated {
		t.Fatalf("second ingest = %d, want 201", status)
	}

	// A third ingest forced down the invalidation path (the armed delta
	// failpoint suppresses the in-place apply); the injected build fault
	// then makes the rebuild fail, so this query is served stale from the
	// last good engine (still 200).
	faultinject.EnableTimes(statusq.FailDeltaApply, errors.New("chaos: force rebuild path"), 1)
	if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(950110, a), nil); status != http.StatusCreated {
		t.Fatalf("third ingest = %d, want 201", status)
	}
	faultinject.Enable(statusq.FailEngineBuild, errors.New("chaos: engine build down"))
	var view struct {
		Stale bool `json:"stale"`
	}
	get(t, queryURL, http.StatusOK, &view)
	if !view.Stale {
		t.Fatal("query under engine-build fault was not served stale")
	}
	faultinject.Reset()

	// Recovery rebuild, then a fleet sweep over every ongoing avail.
	get(t, queryURL, http.StatusOK, &view)
	if view.Stale {
		t.Fatal("query after fault cleared still stale")
	}
	get(t, fmt.Sprintf("%s/fleet?date=%s", srv.URL, a.PhysicalTime(60)), http.StatusOK, nil)

	// A handler panic: the armed hook fires between WAL append and apply,
	// the middleware recovers it into a 500 and keeps serving.
	faultinject.Arm(statusq.FailDurableApply, func() error { panic("metrics: injected handler panic") })
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/rccs", strings.NewReader(rccBody(950103, a)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking ingest = %d, want 500", resp.StatusCode)
	}
	faultinject.Reset()

	// A shed request: park one request inside an engine build on a
	// MaxInFlight:1 server so the next non-probe request gets 503. The
	// shed server needs its own catalog — the shared one already has a
	// cached engine, so its queries would never enter a build to park in.
	shedSrv := httptest.NewServer(New(pipe, ext, openTier(t, ds.Avails, ds.RCCs), Options{MaxInFlight: 1}))
	defer shedSrv.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	faultinject.Arm(statusq.FailEngineBuild, func() error {
		close(entered)
		<-release
		return nil
	})
	parked := make(chan error, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/query?avail=%d&date=%s", shedSrv.URL, a.ID, a.PhysicalTime(60)))
		if err == nil {
			resp.Body.Close()
		}
		parked <- err
	}()
	<-entered
	resp, err = http.Get(shedSrv.URL + "/avails")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request at capacity = %d, want 503 shed", resp.StatusCode)
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
	faultinject.Reset()

	after := scrapeMetrics(t, srv.URL)

	// Per-route request counts. The /query route saw 4 successful GETs.
	wantAtLeast := map[string]float64{
		`domd_http_requests_total{route="/query",method="GET",code="200"}`:  4,
		`domd_http_requests_total{route="/fleet",method="GET",code="200"}`:  1,
		`domd_http_requests_total{route="/rccs",method="POST",code="201"}`:  2,
		`domd_http_requests_total{route="/rccs",method="POST",code="200"}`:  1,
		`domd_http_requests_total{route="/rccs",method="POST",code="500"}`:  1,
		`domd_http_requests_total{route="/avails",method="GET",code="503"}`: 1,

		// Latency histogram, by route: every /query answer was observed.
		`domd_http_request_duration_seconds_count{route="/query"}`: 4,

		// Shed and recovered-panic outcomes.
		`domd_http_shed_total`:   1,
		`domd_http_panics_total`: 1,

		// Engine lifecycle: initial build + recovery build succeeded, the
		// injected fault counted one failure and one stale serve, and the
		// back-to-back queries produced at least one cache hit.
		`domd_engine_builds_total`:                 2,
		`domd_engine_build_failures_total`:         1,
		`domd_engine_stale_serves_total`:           1,
		`domd_engine_cache_hits_total`:             1,
		`domd_engine_build_duration_seconds_count`: 2,

		// The first two ingests folded into the live cached engine in
		// place; the third was forced down the invalidation path by the
		// armed delta failpoint.
		`domd_engine_delta_applies_total`:                       2,
		`domd_engine_delta_fallbacks_total{reason="failpoint"}`: 1,

		// Ingestion: two acks, one duplicate, one failure (the injected
		// mid-apply panic after the record was already on the log).
		`domd_ingest_acks_total`:       2,
		`domd_ingest_duplicates_total`: 1,

		// WAL: three appends reached the log (two acks + the panicked
		// apply), each fsynced under SyncAlways; each ack compacted under
		// CompactEvery:1.
		`domd_wal_appends_total`:               3,
		`domd_wal_syncs_total`:                 3,
		`domd_wal_sync_duration_seconds_count`: 3,
		`domd_wal_compactions_total`:           2,
	}
	for key, want := range wantAtLeast {
		if got := delta(before, after, key); got < want {
			t.Errorf("delta %s = %v, want >= %v", key, got, want)
		}
	}

	// The in-flight gauge counts the scrape itself and nothing else once
	// traffic has drained.
	if got := after["domd_http_in_flight_requests"]; got != 1 {
		t.Errorf("domd_http_in_flight_requests during scrape = %v, want 1", got)
	}
}
