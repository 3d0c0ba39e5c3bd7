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
// layer: run real traffic — queries (fresh, and stale on a shard driven
// to failed by WAL faults), a fleet sweep, durable ingests (ack,
// duplicate, mid-apply panic), and a shed request — then assert the
// scraped counters moved accordingly. All metrics are
// process-global, so everything is asserted as a before/after delta.
func TestMetricsEndToEnd(t *testing.T) {
	defer faultinject.Reset()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	// SyncAlways so every acknowledged ingest moves the WAL sync
	// counters, not just the append counter.
	dc, _, err := statusq.OpenDurable(t.TempDir(), ds.Avails, ds.RCCs, index.KindAVL,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	srv := httptest.NewServer(New(pipe, ext, dc.Catalog, Options{Ingester: dc}))
	defer srv.Close()

	a := ongoingAvail(t, ds)
	queryURL := fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(60))

	before := scrapeMetrics(t, srv.URL)

	// Two queries, both answered by the engine the catalog built at open.
	get(t, queryURL, http.StatusOK, nil)
	get(t, queryURL, http.StatusOK, nil)

	// Three acknowledged ingests plus a duplicate replay of the first;
	// each acknowledged one folds into the live engine in place.
	body := rccBody(950101, a)
	if status, _, _ := postJSON(t, srv.URL+"/rccs", body, nil); status != http.StatusCreated {
		t.Fatalf("ingest = %d, want 201", status)
	}
	if status, _, _ := postJSON(t, srv.URL+"/rccs", body, nil); status != http.StatusOK {
		t.Fatalf("duplicate ingest = %d, want 200", status)
	}
	for _, id := range []int{950102, 950110} {
		if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(id, a), nil); status != http.StatusCreated {
			t.Fatalf("ingest %d = %d, want 201", id, status)
		}
	}
	var view struct {
		Stale bool `json:"stale"`
	}
	for i := 0; i < 2; i++ {
		get(t, queryURL, http.StatusOK, &view)
		if view.Stale {
			t.Fatal("query on a healthy catalog was served stale")
		}
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

	// A shed request: park one ingest between its WAL append and its
	// apply on a MaxInFlight:1 server so the next non-probe request gets
	// 503. The shed server runs its own one-shard tier, opened after the
	// first scrape, so its engine builds land in the deltas too.
	tier := openTier(t, ds.Avails, ds.RCCs)
	shedSrv := httptest.NewServer(New(pipe, ext, tier, Options{MaxInFlight: 1}))
	defer shedSrv.Close()
	entered := make(chan struct{})
	release := make(chan struct{})
	faultinject.Arm(statusq.FailDurableApply, func() error {
		close(entered)
		<-release
		return nil
	})
	parked := make(chan error, 1)
	go func() {
		resp, err := http.Post(shedSrv.URL+"/rccs", "application/json", strings.NewReader(rccBody(950120, a)))
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

	// A stale serve: persistent WAL append faults drive the shed tier's
	// one shard to failed, and its reads are then served marked stale.
	faultinject.Enable(wal.FailAppendWrite, errors.New("metrics: wal disk full"))
	for i := 0; i < statusq.FailAfterFailures; i++ {
		if status, _, _ := postJSON(t, shedSrv.URL+"/rccs", rccBody(950130+i, a), nil); status != http.StatusServiceUnavailable {
			t.Fatalf("faulted ingest %d = %d, want 503", i, status)
		}
	}
	faultinject.Reset()
	if h := tier.HealthOf(0); h != statusq.ShardFailed {
		t.Fatalf("shard health after %d faulted ingests = %v, want failed", statusq.FailAfterFailures, h)
	}
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", shedSrv.URL, a.ID, a.PhysicalTime(60)), http.StatusOK, &view)
	if !view.Stale {
		t.Fatal("query on a failed shard was not served stale")
	}

	after := scrapeMetrics(t, srv.URL)

	// Per-route request counts. The /query route saw 4 successful GETs.
	wantAtLeast := map[string]float64{
		`domd_http_requests_total{route="/query",method="GET",code="200"}`:  4,
		`domd_http_requests_total{route="/fleet",method="GET",code="200"}`:  1,
		`domd_http_requests_total{route="/rccs",method="POST",code="201"}`:  3,
		`domd_http_requests_total{route="/rccs",method="POST",code="200"}`:  1,
		`domd_http_requests_total{route="/rccs",method="POST",code="500"}`:  1,
		`domd_http_requests_total{route="/avails",method="GET",code="503"}`: 1,

		// Latency histogram, by route: every /query answer was observed.
		`domd_http_request_duration_seconds_count{route="/query"}`: 4,

		// Shed and recovered-panic outcomes.
		`domd_http_shed_total`:   1,
		`domd_http_panics_total`: 1,

		// Engines: the shed tier built one per avail at open, one query
		// on its failed shard was served stale, and the three acknowledged
		// ingests on the main catalog folded into its live engine.
		`domd_engine_builds_total`:        float64(len(ds.Avails)),
		`domd_engine_stale_serves_total`:  1,
		`domd_engine_delta_applies_total`: 3,

		// Ingestion: three acks on the main catalog, one duplicate.
		`domd_ingest_acks_total`:       3,
		`domd_ingest_duplicates_total`: 1,

		// WAL on the main catalog: four appends reached the log (three
		// acks + the panicked apply), each fsynced under SyncAlways.
		`domd_wal_appends_total`:               4,
		`domd_wal_syncs_total`:                 4,
		`domd_wal_sync_duration_seconds_count`: 4,
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
