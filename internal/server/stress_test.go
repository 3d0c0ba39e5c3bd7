package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"domd/internal/domain"
)

// TestQueryUsesCachedEngine pins the serving-path fix: repeated /query
// requests for the same avail must read the engine the catalog built at
// open instead of re-indexing the RCC history per request (the old
// QueryService.Query behavior). The engine-build counter
// (domd_engine_builds_total) is the observable.
func TestQueryUsesCachedEngine(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	var target *domain.Avail
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			target = &ds.Avails[i]
			break
		}
	}
	url := fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, target.ID, target.PhysicalTime(50))
	before := engineBuilds(t, srv.URL)
	for i := 0; i < 12; i++ {
		get(t, url, http.StatusOK, nil)
	}
	if builds := engineBuilds(t, srv.URL) - before; builds != 0 {
		t.Errorf("12 queries to one avail built %v engines, want 0 (built at open)", builds)
	}
}

// TestConcurrentServingStress is the -race gate for the whole serving path:
// a mix of /query, /fleet, /avails, and catalog.Ingest goroutines hammering
// one server. On the pre-fix code this panics (concurrent map writes in
// Catalog) or trips the race detector (lazy index re-sorts, unguarded
// engine state); it must run clean now. It also pins the engine
// lifecycle: engines are built at open, so the mix builds none, and every
// ingest folds into its avail's live engine in place.
func TestConcurrentServingStress(t *testing.T) {
	srv, ds, catalog := newTestServer(t)
	var ongoing []*domain.Avail
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			ongoing = append(ongoing, &ds.Avails[i])
		}
	}
	if len(ongoing) == 0 {
		t.Fatal("fixture has no ongoing avails")
	}

	iters := 40
	if testing.Short() {
		iters = 8
	}
	client := srv.Client()
	var (
		wg       sync.WaitGroup
		adds     atomic.Int64
		rccID    atomic.Int64
		failures atomic.Int64
	)
	rccID.Store(10_000_000) // above every generated RCC id
	baseline := scrapeMetrics(t, srv.URL)

	fetch := func(url string, want int) {
		resp, err := client.Get(url)
		if err != nil {
			failures.Add(1)
			t.Errorf("GET %s: %v", url, err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			failures.Add(1)
			t.Errorf("GET %s = %d, want %d", url, resp.StatusCode, want)
		}
	}

	// Query workers: every request reads an engine built at open.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := ongoing[(w+i)%len(ongoing)]
				ts := 30 + 10*float64((w+i)%4)
				fetch(fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(ts)), http.StatusOK)
			}
		}(w)
	}
	// Fleet workers: bounded fan-out over every ongoing avail.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters/2; i++ {
				a := ongoing[(w+i)%len(ongoing)]
				fetch(srv.URL+"/fleet?date="+a.PhysicalTime(50).String(), http.StatusOK)
			}
		}(w)
	}
	// Catalog readers: list endpoints race the ingestion below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			fetch(srv.URL+"/avails", http.StatusOK)
		}
	}()
	// Ingestion workers: stream RCCs into the live engines.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters/2; i++ {
				a := ongoing[(w+i)%len(ongoing)]
				r := domain.RCC{
					ID:      int(rccID.Add(1)),
					AvailID: a.ID,
					Type:    domain.Growth,
					SWLIN:   43411001,
					Created: a.ActStart + 1,
					Settled: a.ActStart + 25,
					Amount:  1000,
				}
				if _, err := catalog.Ingest("", r); err != nil {
					t.Errorf("Ingest: %v", err)
					return
				}
				adds.Add(1)
			}
		}(w)
	}
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d requests failed under concurrency", failures.Load())
	}
	if adds.Load() == 0 {
		t.Fatal("no RCCs ingested; the stress mix did not exercise the in-place fold")
	}
	after := scrapeMetrics(t, srv.URL)
	if builds := delta(baseline, after, "domd_engine_builds_total"); builds != 0 {
		t.Errorf("engine builds = %v, want 0 (engines are built at open)", builds)
	}
	if applies := delta(baseline, after, "domd_engine_delta_applies_total"); applies != float64(adds.Load()) {
		t.Errorf("delta applies = %v, want %d (one per ingest)", applies, adds.Load())
	}
}
