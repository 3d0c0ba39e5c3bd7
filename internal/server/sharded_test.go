package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"domd/internal/domain"
	"domd/internal/faultinject"
	"domd/internal/navsim"
	"domd/internal/statusq"
	"domd/internal/wal"
)

// newShardedServer serves a fleet with several ongoing avails through a
// 4-shard ShardedCatalog rooted at root. The sharded catalog is passed
// straight to New as both the query surface and (implicitly) the
// Ingester — the same wiring `domd serve -shards 4` uses.
func newShardedServer(t *testing.T, root string) (*httptest.Server, *navsim.Dataset, *statusq.ShardedCatalog) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 8, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	sc, _, err := statusq.OpenSharded(root, 4, ds.Avails, ds.RCCs,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	srv := httptest.NewServer(New(pipe, ext, sc, Options{}))
	t.Cleanup(srv.Close)
	return srv, ds, sc
}

// crossShardOngoing picks two ongoing avails owned by different shards
// (skipping the test if the fixture fleet all landed on one shard).
func crossShardOngoing(t *testing.T, ds *navsim.Dataset, sc *statusq.ShardedCatalog) (domain.Avail, domain.Avail) {
	t.Helper()
	var ongoing []domain.Avail
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			ongoing = append(ongoing, ds.Avails[i])
		}
	}
	for _, b := range ongoing[1:] {
		if sc.ShardOf(b.ID) != sc.ShardOf(ongoing[0].ID) {
			return ongoing[0], b
		}
	}
	t.Skip("fixture fleet's ongoing avails landed on one shard")
	return domain.Avail{}, domain.Avail{}
}

// fleetDate returns a date at which every ongoing avail in the fleet
// has started executing, so a /fleet sweep yields an answer row (not a
// not-yet-started error) for each of them.
func fleetDate(ds *navsim.Dataset) domain.Day {
	var date domain.Day
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			if d := ds.Avails[i].PhysicalTime(50); d > date {
				date = d
			}
		}
	}
	return date
}

// fetchFleet gets /fleet at the given date and decodes the rows.
func fetchFleet(t *testing.T, base string, date domain.Day) []fleetRow {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/fleet?date=%s", base, date))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fleet = %d, want 200", resp.StatusCode)
	}
	var rows []fleetRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestShardedFleetMergeDeterminism pins the cross-shard fleet contract:
// the scatter-gather over N shards renders every ongoing avail exactly
// once, in ascending id order, identically on repeated calls.
func TestShardedFleetMergeDeterminism(t *testing.T) {
	srv, ds, sc := newShardedServer(t, t.TempDir())
	a, _ := crossShardOngoing(t, ds, sc)
	date := a.PhysicalTime(50)

	first := fetchFleet(t, srv.URL, date)
	want := sc.OngoingIDs()
	if len(first) != len(want) {
		t.Fatalf("fleet rendered %d rows, want %d ongoing avails", len(first), len(want))
	}
	for i, row := range first {
		if row.AvailID != want[i] {
			t.Fatalf("fleet row %d is avail %d, want %d (ascending merge across shards)", i, row.AvailID, want[i])
		}
	}
	for rep := 0; rep < 3; rep++ {
		again := fetchFleet(t, srv.URL, date)
		if len(again) != len(first) {
			t.Fatalf("repeat %d rendered %d rows, want %d", rep, len(again), len(first))
		}
		for i := range again {
			if again[i].AvailID != first[i].AvailID {
				t.Fatalf("repeat %d row %d is avail %d, want %d: fleet order is not deterministic", rep, i, again[i].AvailID, first[i].AvailID)
			}
		}
	}
}

// TestChaosShardedFleetShardIsolation drives one shard to the failed
// health state with WAL append faults and proves the blast radius stays
// inside it: the victim shard's avails are served stale with a truthful
// asOf (the victim's includes its one acknowledged ingest), every other
// shard's avails stay fresh, and no avail is dropped or reordered. Once
// the fault clears, a probe ingest recovers the shard and the fleet is
// fresh again, including the records ingested since.
func TestChaosShardedFleetShardIsolation(t *testing.T) {
	defer faultinject.Reset()
	srv, ds, sc := newShardedServer(t, t.TempDir())
	victim, other := crossShardOngoing(t, ds, sc)
	victimShard := sc.ShardOf(victim.ID)
	date := fleetDate(ds)

	// Record every row's fresh asOf.
	warm := fetchFleet(t, srv.URL, date)
	baseAsOf := map[int]int64{}
	for _, row := range warm {
		if row.Error != "" || row.Result == nil {
			t.Fatalf("warm fleet row %d errored: %s", row.AvailID, row.Error)
		}
		if row.Result.Stale {
			t.Fatalf("warm fleet row %d already stale", row.AvailID)
		}
		baseAsOf[row.AvailID] = row.Result.AsOf
	}

	// One acknowledged ingest on the victim, then persistent append
	// faults: its shard fails after FailAfterFailures refused ingests.
	if status, _, out := postJSON(t, srv.URL+"/rccs", rccBody(980001, victim), nil); status != http.StatusCreated {
		t.Fatalf("victim ingest = %d %v, want 201", status, out)
	}
	baseAsOf[victim.ID]++
	faultinject.Enable(wal.FailAppendWrite, errors.New("chaos: shard disk down"))
	for i := 0; i < statusq.FailAfterFailures; i++ {
		if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(980010+i, victim), nil); status != http.StatusServiceUnavailable {
			t.Fatalf("faulted victim ingest %d = %d, want 503", i, status)
		}
	}
	if h := sc.HealthOf(victimShard); h != statusq.ShardFailed {
		t.Fatalf("victim shard health = %v, want failed", h)
	}

	degraded := fetchFleet(t, srv.URL, date)
	if len(degraded) != len(warm) {
		t.Fatalf("degraded fleet rendered %d rows, want %d: a shard fault dropped avails", len(degraded), len(warm))
	}
	for i, row := range degraded {
		if row.AvailID != warm[i].AvailID {
			t.Fatalf("degraded fleet row %d is avail %d, want %d: shard fault reordered output", i, row.AvailID, warm[i].AvailID)
		}
		if row.Result == nil {
			t.Fatalf("degraded fleet row %d has no result: %s", row.AvailID, row.Error)
		}
		if row.Result.AsOf != baseAsOf[row.AvailID] {
			t.Fatalf("avail %d asOf = %d, want %d: only acknowledged records count", row.AvailID, row.Result.AsOf, baseAsOf[row.AvailID])
		}
		// The failed shard's avails go stale; every avail on every other
		// shard stays fresh.
		if onVictim := sc.ShardOf(row.AvailID) == victimShard; row.Result.Stale != onVictim {
			t.Fatalf("avail %d (shard %d) stale=%v; only the failed shard %d should degrade",
				row.AvailID, sc.ShardOf(row.AvailID), row.Result.Stale, victimShard)
		}
	}
	if sc.ShardOf(other.ID) == victimShard {
		t.Fatalf("test fixture broken: %d and %d on one shard", other.ID, victim.ID)
	}

	// Fault cleared: the open breaker admits a probe ingest, whose ack
	// restores the shard; the fleet is fully fresh again, now including
	// the probe's record.
	faultinject.Reset()
	recovered := false
	for i := 0; i < 64 && !recovered; i++ {
		if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(981001+i, victim), nil); status == http.StatusCreated {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("victim shard never recovered after the fault cleared")
	}
	baseAsOf[victim.ID]++
	for _, row := range fetchFleet(t, srv.URL, date) {
		if row.Result == nil || row.Result.Stale {
			t.Fatalf("post-recovery row %d stale or missing", row.AvailID)
		}
		if row.Result.AsOf != baseAsOf[row.AvailID] {
			t.Fatalf("recovered avail %d asOf = %d, want %d (acknowledged records folded in)", row.AvailID, row.Result.AsOf, baseAsOf[row.AvailID])
		}
	}
}

// TestChaosShardedKillMidIngest runs the kill-mid-ingest crash proof
// against two different shards of a 4-shard tier: each shard's WAL
// independently surfaces its durable-but-unapplied record on restart,
// acknowledged records dedup on retry, and per-shard restore reports
// account for every record.
func TestChaosShardedKillMidIngest(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	srv, ds, sc := newShardedServer(t, root)
	a, b := crossShardOngoing(t, ds, sc)

	// One acknowledged ingest per shard.
	for i, av := range []domain.Avail{a, b} {
		if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(990001+i, av), nil); status != http.StatusCreated {
			t.Fatalf("acked ingest on shard %d = %d, want 201", sc.ShardOf(av.ID), status)
		}
	}
	// Then a kill mid-ingest on each shard: durable, unapplied, unacked.
	for i, av := range []domain.Avail{a, b} {
		faultinject.Arm(statusq.FailDurableApply, func() error { panic("chaos: kill -9 mid-ingest") })
		if status, _, _ := postJSON(t, srv.URL+"/rccs", rccBody(990011+i, av), nil); status != http.StatusInternalServerError {
			t.Fatalf("killed ingest on shard %d = %d, want 500", sc.ShardOf(av.ID), status)
		}
		faultinject.Reset()
	}
	if n := sc.IngestedCount(); n != 2 {
		t.Fatalf("unacknowledged RCCs became visible: count = %d, want 2", n)
	}

	// Restart the whole tier from the same root.
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	sc2, info, err := statusq.OpenSharded(root, 4, ds.Avails, ds.RCCs,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if tot := info.Totals(); tot.Restored < 2 {
		t.Fatalf("restored %d records tier-wide, want >= 2 (info %+v)", tot.Restored, info)
	}
	for _, av := range []domain.Avail{a, b} {
		sh := info.Shards[sc2.ShardOf(av.ID)]
		if sh.Info.Restored < 1 {
			t.Fatalf("shard %d restored %d records, want >= 1 (its acked ingest)", sh.Shard, sh.Info.Restored)
		}
	}

	// Retries of the acknowledged records dedup on their own shards.
	srv2 := httptest.NewServer(New(pipe, ext, sc2, Options{}))
	defer srv2.Close()
	for i, av := range []domain.Avail{a, b} {
		status, _, out := postJSON(t, srv2.URL+"/rccs", rccBody(990001+i, av), nil)
		if status != http.StatusOK || out["duplicate"] != true {
			t.Fatalf("retry of acked rcc on shard %d = %d %v, want 200 duplicate", sc2.ShardOf(av.ID), status, out)
		}
	}
}

// TestShardedQueryRouting smoke-tests the point-lookup surface over a
// sharded tier: /query and /query/batch answer for avails on different
// shards, and both match each other bitwise per avail.
func TestShardedQueryRouting(t *testing.T) {
	srv, ds, sc := newShardedServer(t, t.TempDir())
	a, b := crossShardOngoing(t, ds, sc)

	var qa, qb queryView
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(50)), http.StatusOK, &qa)
	get(t, fmt.Sprintf("%s/query?avail=%d&date=%s", srv.URL, b.ID, b.PhysicalTime(50)), http.StatusOK, &qb)

	body := fmt.Sprintf(`{"queries":[{"avail":%d,"date":%q},{"avail":%d,"date":%q}]}`,
		a.ID, a.PhysicalTime(50).String(), b.ID, b.PhysicalTime(50).String())
	resp, err := http.Post(srv.URL+"/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []batchRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("batch returned %d rows, want 2", len(rows))
	}
	for i, want := range []queryView{qa, qb} {
		got := rows[i].Result
		if got == nil {
			t.Fatalf("batch row %d errored: %s", i, rows[i].Error)
		}
		if got.FinalDays != want.FinalDays || got.AvailID != want.AvailID {
			t.Fatalf("batch row %d = %+v, want single-query answer %+v", i, got, want)
		}
	}
}
