package statusq

import (
	"fmt"
	"testing"

	"domd/internal/index"
)

// TestDurableDedupBounded is the regression gate for the idempotency-key
// memory leak: sustained unique-key traffic must not grow the dedup
// index past the configured budget, while recently acknowledged keys
// keep deduplicating.
func TestDurableDedupBounded(t *testing.T) {
	d, _, _ := durableFixture(t, t.TempDir(), DurableOptions{DedupCap: 8})
	defer d.Close()
	ids := d.AvailIDs()
	const n = 40
	for i := 0; i < n; i++ {
		if dup, err := d.Ingest(fmt.Sprintf("leak%d", i), deltaRCC(t, d.Catalog, ids[i%len(ids)], i)); err != nil || dup {
			t.Fatalf("ingest %d: dup=%v err=%v", i, dup, err)
		}
	}
	if got := d.DedupTracked(); got != 8 {
		t.Fatalf("dedup index holds %d keys after %d unique ingests; budget is 8", got, n)
	}
	// The newest key is inside the window: its retry must dedup.
	lastID := ids[(n-1)%len(ids)]
	if dup, err := d.Ingest(fmt.Sprintf("leak%d", n-1), deltaRCC(t, d.Catalog, lastID, n-1)); err != nil || !dup {
		t.Fatalf("retry of newest key: dup=%v err=%v, want dup=true", dup, err)
	}
	// The oldest key fell out of the window: a retry is accepted as a
	// fresh record — the documented capacity trade-off.
	before := d.IngestedCount()
	if dup, err := d.Ingest("leak0", deltaRCC(t, d.Catalog, ids[0], 0)); err != nil || dup {
		t.Fatalf("retry of evicted key: dup=%v err=%v, want fresh apply", dup, err)
	}
	if got := d.IngestedCount(); got != before+1 {
		t.Fatalf("evicted-key retry applied %d records, want 1", got-before)
	}
}

// TestDurableDedupKeepsLastCapKeys pins the idempotency window: the
// index holds exactly the last DedupCap acknowledged keys, so a retry of
// any of them deduplicates and a retry of the one just before them is
// accepted as a fresh record. A reopen replays the same cap over the
// same records and arrives at the same window.
func TestDurableDedupKeepsLastCapKeys(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DedupCap: 4}
	d, _, ds := durableFixture(t, dir, opts)
	ids := d.AvailIDs()
	ingest := func(d *DurableCatalog, i int, wantDup bool) {
		t.Helper()
		if dup, err := d.Ingest(fmt.Sprintf("cap%d", i), deltaRCC(t, d.Catalog, ids[i%len(ids)], i)); err != nil || dup != wantDup {
			t.Fatalf("ingest cap%d: dup=%v err=%v, want dup=%v", i, dup, err, wantDup)
		}
	}
	const n = 20
	for i := 0; i < n; i++ {
		ingest(d, i, false)
	}
	if got := d.DedupTracked(); got != 4 {
		t.Fatalf("dedup index holds %d keys, want the last 4", got)
	}
	for i := n - 4; i < n; i++ {
		ingest(d, i, true)
	}
	// cap15 fell out of the window: accepted fresh, it evicts cap16.
	ingest(d, n-5, false)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Restored != n+1 || info.Duplicates != 0 {
		t.Fatalf("restore info = %+v, want %d restored and no duplicates", info, n+1)
	}
	if got := d2.DedupTracked(); got != 4 {
		t.Fatalf("replayed dedup index holds %d keys, want 4", got)
	}
	for _, i := range []int{n - 5, n - 1, n - 2, n - 3} {
		ingest(d2, i, true)
	}
	ingest(d2, n-4, false)
}

// TestDurableDedupRestoreEquivalence proves bounded dedup does not
// break restart semantics: an evicted key that was legitimately
// re-accepted as a fresh record is applied twice on replay too — no
// acknowledged record disappears across a restart. (Replay evicts
// through the same bounded index as live ingest; the crash-window
// duplicate-pair direction is covered by
// TestDurableReplayDedupsDuplicateRecords.)
func TestDurableDedupRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{DedupCap: 4}
	d, _, ds := durableFixture(t, dir, opts)
	ids := d.AvailIDs()

	// Acknowledge "victim", push it out of the window with 12 unique
	// keys (budget 4), then re-ingest it: accepted as fresh.
	if dup, err := d.Ingest("victim", deltaRCC(t, d.Catalog, ids[0], 0)); err != nil || dup {
		t.Fatalf("victim ingest: dup=%v err=%v", dup, err)
	}
	for i := 1; i <= 12; i++ {
		if dup, err := d.Ingest(fmt.Sprintf("fill%d", i), deltaRCC(t, d.Catalog, ids[i%len(ids)], i)); err != nil || dup {
			t.Fatalf("fill %d: dup=%v err=%v", i, dup, err)
		}
	}
	if dup, err := d.Ingest("victim", deltaRCC(t, d.Catalog, ids[0], 13)); err != nil || dup {
		t.Fatalf("re-accepted victim: dup=%v err=%v, want fresh apply", dup, err)
	}
	want := evalFingerprint(t, d.Catalog)
	applied := d.IngestedCount()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Restored != applied {
		t.Fatalf("restored %d records, want %d (re-accepted key must not collapse)", info.Restored, applied)
	}
	if info.Duplicates != 0 {
		t.Fatalf("replay counted %d duplicates, want 0", info.Duplicates)
	}
	if got := evalFingerprint(t, d2.Catalog); !sameFingerprint(got, want) {
		t.Fatal("restored catalog answers differ from pre-restart answers")
	}
}
