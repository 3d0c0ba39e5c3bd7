package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"domd/internal/domain"
	"domd/internal/faultinject"
	"domd/internal/navsim"
	"domd/internal/statusq"
	"domd/internal/wal"
)

// newReplShardedServer serves a fleet through a 2-shard tier whose
// shards each journal to a 2-replica WAL set (quorum 2) — the wiring
// `domd serve -shards 2 -repl 2` uses.
func newReplShardedServer(t *testing.T, root string) (*httptest.Server, *navsim.Dataset, *statusq.ShardedCatalog) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 8, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	sc, _, err := statusq.OpenSharded(root, 2, ds.Avails, ds.RCCs,
		statusq.DurableOptions{Replicas: 2, WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	srv := httptest.NewServer(New(pipe, ext, sc, Options{}))
	t.Cleanup(srv.Close)
	return srv, ds, sc
}

// shardReplicaFailpoints returns the failpoint names for every WAL
// replica of the given shard.
func shardReplicaFailpoints(sc *statusq.ShardedCatalog, shard, replicas int) []string {
	fps := make([]string, replicas)
	for n := range fps {
		fps[n] = wal.ReplicaFailpoint(filepath.Join(sc.ShardDir(shard), fmt.Sprintf("replica-%02d", n)))
	}
	return fps
}

// TestChaosReplBothReplicasDownServesStale is the HTTP-level acceptance
// proof for the all-replicas-failed shard: ingests to it answer 503
// without acknowledging, its reads keep answering marked stale while
// other shards stay fresh, /fleet annotates its rows degraded, /readyz
// drops to 503 with a machine-readable per-shard body — and when the
// fault clears, breaker probes restore it to ready without a restart.
func TestChaosReplBothReplicasDownServesStale(t *testing.T) {
	defer faultinject.Reset()
	srv, ds, sc := newReplShardedServer(t, t.TempDir())
	victim, other := crossShardOngoing(t, ds, sc)
	vShard := sc.ShardOf(victim.ID)

	// Healthy replicated tier: 200 with one healthy, promotable row per
	// shard.
	var ready readyView
	get(t, srv.URL+"/readyz", http.StatusOK, &ready)
	if ready.Status != "ready" || len(ready.Shards) != 2 {
		t.Fatalf("healthy readyz = %+v, want status ready with 2 shard rows", ready)
	}
	for _, row := range ready.Shards {
		if row.State != "healthy" || row.Replicas != 2 || row.Live != 2 || !row.Promotable {
			t.Fatalf("healthy readyz shard row = %+v", row)
		}
	}

	// Warm the victim's engine so the failed shard has a last-good
	// engine to serve stale from.
	date := victim.PhysicalTime(50)
	var fresh queryView
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, victim.ID, date), http.StatusOK, &fresh)
	if fresh.Stale {
		t.Fatalf("warm query already stale: %+v", fresh)
	}

	// Take down every replica of the victim shard: quorum is gone, so
	// nothing can be acknowledged there.
	for _, fp := range shardReplicaFailpoints(sc, vShard, 2) {
		faultinject.Enable(fp, errors.New("chaos: replica disk down"))
	}
	for i := 0; i <= statusq.FailAfterFailures; i++ {
		status, hdr, _ := postJSON(t, srv.URL+"/rccs", rccBody(970001+i, victim), nil)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("quorum-lost ingest %d = %d, want 503", i, status)
		}
		if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
			t.Fatalf("quorum-lost ingest Retry-After = %q, want an integer in [1, 60]", hdr.Get("Retry-After"))
		}
	}
	if n := sc.IngestedCount(); n != 0 {
		t.Fatalf("unacknowledged ingests became visible: count = %d", n)
	}

	// The failed shard keeps answering reads, truthfully marked stale;
	// the other shard is untouched.
	var staleView queryView
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, victim.ID, date), http.StatusOK, &staleView)
	if !staleView.Stale {
		t.Fatalf("failed-shard query served stale=false: %+v", staleView)
	}
	var otherView queryView
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, other.ID, other.PhysicalTime(50)), http.StatusOK, &otherView)
	if otherView.Stale {
		t.Fatalf("healthy-shard query served stale under another shard's fault: %+v", otherView)
	}

	// /fleet flags exactly the failed shard's rows as degraded.
	for _, row := range fetchFleet(t, srv.URL, fleetDate(ds)) {
		if want := sc.ShardOf(row.AvailID) == vShard; row.Degraded != want {
			t.Fatalf("fleet row %d (shard %d) degraded=%v, want %v",
				row.AvailID, sc.ShardOf(row.AvailID), row.Degraded, want)
		}
	}

	// /readyz: 503 with the victim row failed and unpromotable, the
	// other row still healthy.
	var down readyView
	get(t, srv.URL+"/readyz", http.StatusServiceUnavailable, &down)
	if down.Status != "unready" || len(down.Shards) != 2 {
		t.Fatalf("failed readyz = %+v, want status unready with 2 shard rows", down)
	}
	for _, row := range down.Shards {
		if row.Shard == vShard {
			if row.State != "failed" || row.Promotable {
				t.Fatalf("failed shard readyz row = %+v, want failed and unpromotable", row)
			}
		} else if row.State != "healthy" || !row.Promotable {
			t.Fatalf("unaffected shard readyz row = %+v, want healthy", row)
		}
	}

	// Fault cleared: the breaker admits probes, one succeeds and revives
	// the replica set inline, and readiness returns without a restart.
	faultinject.Reset()
	recovered := false
	for i := 0; i < 64 && !recovered; i++ {
		if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(971001+i, victim), nil); status == http.StatusCreated {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("shard never recovered after the fault cleared")
	}
	var restored readyView
	get(t, srv.URL+"/readyz", http.StatusOK, &restored)
	if restored.Status != "ready" {
		t.Fatalf("post-recovery readyz = %+v, want ready", restored)
	}
	var freshAgain queryView
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, victim.ID, date), http.StatusOK, &freshAgain)
	if freshAgain.Stale {
		t.Fatalf("post-recovery query still stale: %+v", freshAgain)
	}
}

// TestChaosOneReplicaIngestFaultLadder pins the health ladder of the
// default tier — one shard, one WAL replica — under a persistent
// append-write fault: the shard reads healthy after one failed ingest,
// degraded after two and failed after five, /readyz tracks it (200
// ready, 200 degraded, 503 unready) with one unpromotable single-replica
// row, the breaker is open at five, and once the fault clears a probe
// ingest restores the shard to healthy and /readyz to 200.
func TestChaosOneReplicaIngestFaultLadder(t *testing.T) {
	defer faultinject.Reset()
	srv, ds, sc := newTestServer(t)
	var victim domain.Avail
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			victim = ds.Avails[i]
			break
		}
	}

	readyz := func(wantCode int, wantStatus, wantState string, wantBreaker bool) {
		t.Helper()
		var v readyView
		get(t, srv.URL+"/readyz", wantCode, &v)
		if v.Status != wantStatus || len(v.Shards) != 1 {
			t.Fatalf("readyz = %+v, want status %s with one shard row", v, wantStatus)
		}
		row := v.Shards[0]
		if row.State != wantState || row.Replicas != 1 || row.Promotable || row.BreakerOpen != wantBreaker {
			t.Fatalf("readyz row = %+v, want state %s, replicas 1, promotable false, breaker_open %v",
				row, wantState, wantBreaker)
		}
	}
	readyz(http.StatusOK, "ready", "healthy", false)

	faultinject.Enable(wal.FailAppendWrite, errors.New("chaos: wal disk full"))
	steps := []struct {
		failures int
		health   statusq.ShardHealth
		code     int
		status   string
		breaker  bool
	}{
		{1, statusq.ShardHealthy, http.StatusOK, "ready", false},
		{2, statusq.ShardDegraded, http.StatusOK, "degraded", false},
		{5, statusq.ShardFailed, http.StatusServiceUnavailable, "unready", true},
	}
	failed := 0
	for _, st := range steps {
		for ; failed < st.failures; failed++ {
			if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(980001+failed, victim), nil); status != http.StatusServiceUnavailable {
				t.Fatalf("faulted ingest %d = %d, want 503", failed+1, status)
			}
		}
		if h := sc.HealthOf(0); h != st.health {
			t.Fatalf("after %d failed ingests health = %v, want %v", st.failures, h, st.health)
		}
		readyz(st.code, st.status, st.health.String(), st.breaker)
	}
	if n := sc.IngestedCount(); n != 0 {
		t.Fatalf("unacknowledged ingests became visible: count = %d", n)
	}

	faultinject.Reset()
	recovered := false
	for i := 0; i < 64 && !recovered; i++ {
		if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(981001+i, victim), nil); status == http.StatusCreated {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("shard never recovered after the fault cleared")
	}
	if h := sc.HealthOf(0); h != statusq.ShardHealthy {
		t.Fatalf("recovered health = %v, want healthy", h)
	}
	readyz(http.StatusOK, "ready", "healthy", false)
}
