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
// requests for the same avail must hit the catalog's cached engine instead
// of re-indexing the RCC history per request (the old QueryService.Query
// behavior). The engine-build counter (domd_engine_builds_total) is the
// observable.
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
	if builds := engineBuilds(t, srv.URL) - before; builds != 1 {
		t.Errorf("12 queries to one avail built %v engines, want 1 (cached)", builds)
	}
}

// TestConcurrentServingStress is the -race gate for the whole serving path:
// a mix of /query, /fleet, /avails, and catalog.Ingest goroutines hammering
// one server. On the pre-fix code this panics (concurrent map writes in
// Catalog) or trips the race detector (lazy index re-sorts, unguarded
// engine cache); it must run clean now. It also bounds engine builds:
// single-flight construction means at most one build per (avail ×
// invalidation), never one per request.
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
	baseline := engineBuilds(t, srv.URL)

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

	// Query workers: every request a cache hit or a single-flight rebuild.
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
	// Ingestion workers: stream RCCs in, invalidating cached engines.
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
		t.Fatal("no RCCs ingested; the stress mix did not exercise invalidation")
	}
	// Builds are bounded by first-use plus invalidations — if queries built
	// engines per request this would be on the order of total requests.
	builds := engineBuilds(t, srv.URL) - baseline
	limit := float64(len(ongoing) + int(adds.Load()))
	if builds > limit {
		t.Errorf("engine builds = %v, want <= %v (single-flight + invalidation bound)", builds, limit)
	}
	if builds == 0 {
		t.Error("no engines built; the stress mix did not exercise the cache")
	}
}
