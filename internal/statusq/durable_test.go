package statusq

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"domd/internal/domain"
	"domd/internal/faultinject"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/wal"
)

// durableFixture opens a DurableCatalog over the navsim fleet in dir.
func durableFixture(t *testing.T, dir string, opts DurableOptions) (*DurableCatalog, *RestoreInfo, *navsim.Dataset) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 15, NumOngoing: 3, MeanRCCsPerAvail: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, info, ds
}

// deltaRCC builds a valid runtime RCC for the avail, unique per n.
func deltaRCC(t *testing.T, c *Catalog, availID, n int) domain.RCC {
	t.Helper()
	a, ok := c.Avail(availID)
	if !ok {
		t.Fatalf("avail %d missing", availID)
	}
	return domain.RCC{
		ID: 2_000_000 + n, AvailID: availID, Type: domain.Growth,
		SWLIN:   43411001,
		Created: a.ActStart + 1, Settled: a.ActStart + 20, Amount: float64(100 + n),
	}
}

// evalSurface is the engine lookup evalFingerprint reads — satisfied by
// *Catalog, *DurableCatalog, and *ShardedCatalog alike.
type evalSurface interface {
	AvailIDs() []int
	engineLookup
}

// evalFingerprint returns the raw float bits of every avail's serving
// state at a few logical times, so two catalogs can be compared for
// bitwise-identical answers: the engine's own sweep grids, and a grid of
// Status Queries over an index of the engine's RCCs.
func evalFingerprint(t *testing.T, c evalSurface) []uint64 {
	t.Helper()
	var out []uint64
	queries := []Query{
		{Status: domain.Created, Agg: Count},
		{Status: domain.Active, Agg: SumAmount},
		{Status: domain.SettledStatus, Agg: AvgDuration},
	}
	for _, id := range c.AvailIDs() {
		e, err := engineOf(c, id)
		if err != nil {
			t.Fatalf("EngineAsOf(%d): %v", id, err)
		}
		ix, err := NewIndexed(e.Avail(), e.RCCs(), index.KindAVL)
		if err != nil {
			t.Fatalf("index avail %d: %v", id, err)
		}
		sw := e.Sweep()
		for _, ts := range []float64{10, 50, 90} {
			if err := sw.AdvanceTo(ts); err != nil {
				t.Fatalf("sweep avail %d to %.0f: %v", id, ts, err)
			}
			out = appendGridBits(out, sw.Grids())
			for _, q := range queries {
				v, err := ix.Eval(ts, q)
				if err != nil {
					t.Fatalf("Eval(%d, %.0f): %v", id, ts, err)
				}
				out = append(out, math.Float64bits(v))
			}
		}
		sw.Release()
	}
	return out
}

// appendGridBits appends every cell of gs to out as raw bits.
func appendGridBits(out []uint64, gs *GridSet) []uint64 {
	for st := range gs {
		for ti := range gs[st] {
			for si := range gs[st][ti] {
				c := &gs[st][ti][si]
				out = append(out, uint64(c.Count),
					math.Float64bits(c.SumAmount), math.Float64bits(c.SumSqAmount),
					math.Float64bits(c.MaxAmount), math.Float64bits(c.MinAmount),
					math.Float64bits(c.SumDuration), math.Float64bits(c.MaxDuration))
			}
		}
	}
	return out
}

func sameFingerprint(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDurableRestoreEquivalence is the replay equivalence gate: a catalog
// restored from WAL answers bitwise-identical Eval to the catalog that
// acknowledged the records, after a restart mid-stream whose restored
// log the reopened catalog keeps appending to.
func TestDurableRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	d, _, ds := durableFixture(t, dir, DurableOptions{})
	ids := d.AvailIDs()
	for n := 0; n < 12; n++ {
		if dup, err := d.Ingest(fmt.Sprintf("k%d", n), deltaRCC(t, d.Catalog, ids[n%len(ids)], n)); err != nil || dup {
			t.Fatalf("ingest %d: dup=%v err=%v", n, dup, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, _, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 12; n < 20; n++ {
		if _, err := d.Ingest(fmt.Sprintf("k%d", n), deltaRCC(t, d.Catalog, ids[n%len(ids)], n)); err != nil {
			t.Fatal(err)
		}
	}
	want := evalFingerprint(t, d.Catalog)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Restored != 20 || info.Duplicates != 0 || info.Skipped != 0 {
		t.Fatalf("restore info = %+v, want 20 restored", info)
	}
	if info.Recovery.Records != 20 || info.Recovery.TornTail {
		t.Fatalf("recovery = %+v, want 20 log records", info.Recovery)
	}
	if got := evalFingerprint(t, d2.Catalog); !sameFingerprint(got, want) {
		t.Fatal("restored catalog answers differ from the never-restarted one")
	}
}

// TestDurableCrashBetweenAppendAndApply simulates a kill in the window
// after the WAL append and before the in-memory apply: the record is
// durable, the process dies, and the restart must surface it.
func TestDurableCrashBetweenAppendAndApply(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	d, _, ds := durableFixture(t, dir, DurableOptions{})
	id := d.AvailIDs()[0]
	if _, err := d.Ingest("before", deltaRCC(t, d.Catalog, id, 0)); err != nil {
		t.Fatal(err)
	}
	baseline, err := evalVia(d, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(FailDurableApply, func() error { panic("simulated kill mid-ingest") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("armed kill hook did not fire")
			}
		}()
		// The armed hook panics, so there is no return value to observe.
		d.Ingest("crashed", deltaRCC(t, d.Catalog, id, 1))
	}()
	faultinject.Reset()
	// The dying process never applied it (and, having not returned, never
	// acknowledged it either).
	after, err := evalVia(d, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after) != math.Float64bits(baseline) {
		t.Fatal("un-applied record visible before restart")
	}

	// "Restart": reopen the same WAL dir. The logged record must replay.
	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Restored != 2 {
		t.Fatalf("restored %d records, want 2 (incl. the crash-window one)", info.Restored)
	}
	restored, err := evalVia(d2, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(restored) != math.Float64bits(baseline+1) {
		t.Fatalf("after restart count = %f, want %f", restored, baseline+1)
	}
	// The client's retry (same idempotency key) dedups, making the
	// at-least-once replay exactly-once.
	dup, err := d2.Ingest("crashed", deltaRCC(t, d2.Catalog, id, 1))
	if err != nil || !dup {
		t.Fatalf("retry after crash: dup=%v err=%v, want dup=true", dup, err)
	}
}

func TestDurableIdempotency(t *testing.T) {
	dir := t.TempDir()
	d, _, ds := durableFixture(t, dir, DurableOptions{})
	id := d.AvailIDs()[0]
	r := deltaRCC(t, d.Catalog, id, 0)
	if dup, err := d.Ingest("same-key", r); err != nil || dup {
		t.Fatalf("first ingest: dup=%v err=%v", dup, err)
	}
	if dup, err := d.Ingest("same-key", r); err != nil || !dup {
		t.Fatalf("second ingest: dup=%v err=%v, want dup", dup, err)
	}
	if got := d.IngestedCount(); got != 1 {
		t.Fatalf("ingested count = %d, want 1", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay must also dedup duplicated keys (here: none duplicated on
	// disk, but the seen-set survives via restore).
	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Restored != 1 || info.Duplicates != 0 {
		t.Fatalf("restore info = %+v", info)
	}
	if dup, err := d2.Ingest("same-key", r); err != nil || !dup {
		t.Fatalf("ingest after restore: dup=%v err=%v, want dup", dup, err)
	}
}

// TestDurableReplayDedupsDuplicateRecords covers a WAL that physically
// contains two records with one idempotency key — the shape a crash
// between append and acknowledgment plus a client retry produces.
func TestDurableReplayDedupsDuplicateRecords(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	d, _, ds := durableFixture(t, dir, DurableOptions{})
	id := d.AvailIDs()[0]
	r := deltaRCC(t, d.Catalog, id, 0)
	if _, err := d.Ingest("dup-key", r); err != nil {
		t.Fatal(err)
	}
	// Crash before the apply marked the key seen…
	faultinject.Arm(FailDurableApply, func() error { panic("kill") })
	func() {
		defer func() { recover() }() // the recovered panic is the expected simulated kill
		d.seen = map[string]bool{}   // pretend the key was never applied (post-crash memory)
		d.Ingest("dup-key", r)       // the armed hook panics; no return to observe
	}()
	faultinject.Reset()

	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Restored != 1 || info.Duplicates != 1 {
		t.Fatalf("restore info = %+v, want 1 restored + 1 duplicate", info)
	}
}

func TestDurableUnknownAvailAndValidation(t *testing.T) {
	d, _, _ := durableFixture(t, t.TempDir(), DurableOptions{})
	defer d.Close()
	seqBefore := d.IngestedCount()
	_, err := d.Ingest("k", domain.RCC{ID: 7, AvailID: 99999, Created: 0, Settled: 1})
	if !errors.Is(err, ErrUnknownAvail) {
		t.Fatalf("unknown avail ingest = %v, want ErrUnknownAvail", err)
	}
	id := d.AvailIDs()[0]
	if _, err := d.Ingest("k2", domain.RCC{ID: 8, AvailID: id, Created: 10, Settled: 5}); err == nil {
		t.Fatal("invalid rcc accepted")
	}
	if d.IngestedCount() != seqBefore {
		t.Fatal("rejected ingest left state behind")
	}
	// Neither rejection may have reached the WAL.
	if got := d.log.Seq(); got != 0 {
		t.Fatalf("rejected ingests appended %d WAL records", got)
	}
}

func TestDurableWALFaultNotAcknowledged(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	d, _, ds := durableFixture(t, dir, DurableOptions{})
	id := d.AvailIDs()[0]
	baseline, err := evalVia(d, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("disk gone")
	faultinject.EnableTimes(wal.FailAppendWrite, errDisk, 1)
	if _, err := d.Ingest("k", deltaRCC(t, d.Catalog, id, 0)); !errors.Is(err, errDisk) {
		t.Fatalf("ingest under disk fault = %v", err)
	}
	after, err := evalVia(d, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after) != math.Float64bits(baseline) {
		t.Fatal("failed ingest mutated the catalog")
	}
	// Transient fault: the retry succeeds and survives restart.
	if dup, err := d.Ingest("k", deltaRCC(t, d.Catalog, id, 0)); err != nil || dup {
		t.Fatalf("retry: dup=%v err=%v", dup, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Restored != 1 {
		t.Fatalf("restored %d, want 1", info.Restored)
	}
}

// TestDurableLogIsTheHistory pins that the durable tier never compacts:
// with CompactEvery set (it is ignored) every acknowledged record stays
// in the log, the directory holds nothing else, and a reopen replays
// them all.
func TestDurableLogIsTheHistory(t *testing.T) {
	dir := t.TempDir()
	d, _, ds := durableFixture(t, dir, DurableOptions{CompactEvery: 5})
	ids := d.AvailIDs()
	for n := 0; n < 13; n++ {
		if _, err := d.Ingest(fmt.Sprintf("k%d", n), deltaRCC(t, d.Catalog, ids[n%len(ids)], n)); err != nil {
			t.Fatal(err)
		}
	}
	want := evalFingerprint(t, d.Catalog)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Recovery.Records != 13 || info.Restored != 13 {
		t.Fatalf("restore info = %+v / recovery %+v, want 13 log records", info, info.Recovery)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != wal.LogFile {
		t.Fatalf("WAL dir holds %v (err=%v), want only %s", ents, err, wal.LogFile)
	}
	if got := evalFingerprint(t, d2.Catalog); !sameFingerprint(got, want) {
		t.Fatal("restored catalog answers differ")
	}
}

func TestDurableReadyAndClose(t *testing.T) {
	d, _, _ := durableFixture(t, t.TempDir(), DurableOptions{})
	if err := d.Ready(); err != nil {
		t.Fatalf("fresh catalog not ready: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil no-op", err)
	}
	if err := d.Ready(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("closed catalog Ready = %v", err)
	}
	if _, err := d.Ingest("k", deltaRCC(t, d.Catalog, d.AvailIDs()[0], 0)); !errors.Is(err, ErrNotReady) {
		t.Fatalf("ingest after close = %v", err)
	}
	// Queries still serve from memory after Close (drain semantics).
	if _, err := evalVia(d, d.AvailIDs()[0], 50, Query{Status: domain.Created, Agg: Count}); err != nil {
		t.Fatalf("query after close: %v", err)
	}
}

// TestDurableConcurrentIngest is the -race gate for the ingestion path:
// parallel Ingest + Eval, then a restart that must see every
// acknowledged record exactly once.
func TestDurableConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	d, _, ds := durableFixture(t, dir, DurableOptions{})
	ids := d.AvailIDs()
	var wg sync.WaitGroup
	var acked atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				n := w*25 + i
				dup, err := d.Ingest(fmt.Sprintf("w%d-%d", w, i), deltaRCC(t, d.Catalog, ids[n%len(ids)], n))
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				if !dup {
					acked.Add(1)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := evalVia(d, ids[(w+i)%len(ids)], 50, Query{Status: domain.Created, Agg: Count}); err != nil {
					t.Errorf("eval: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if int64(info.Restored) != acked.Load() || info.Duplicates != 0 {
		t.Fatalf("restored %d of %d acknowledged (dups %d)", info.Restored, acked.Load(), info.Duplicates)
	}
}

// TestDurableReplaySkipsUnfoldableRecords replays a log holding records
// the decoder accepts but no engine can fold — a type-7 RCC, a NaN
// amount, a SWLIN code past eight digits — beside an orphan, a duplicate
// key and two good records. Each bad record is counted Skipped and never
// applied, the good ones are restored, and the avail's engine sweeps.
func TestDurableReplaySkipsUnfoldableRecords(t *testing.T) {
	dir := t.TempDir()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 15, NumOngoing: 3, MeanRCCsPerAvail: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCatalog(ds.Avails, ds.RCCs)
	if err != nil {
		t.Fatal(err)
	}
	id := ref.AvailIDs()[0]
	good := func(n int) domain.RCC { return deltaRCC(t, ref, id, n) }
	bad := func(n int, edit func(*domain.RCC)) domain.RCC {
		r := good(n)
		edit(&r)
		return r
	}
	entries := []walEntry{
		{Key: "g0", RCC: good(0)},
		{Key: "type7", RCC: bad(1, func(r *domain.RCC) { r.Type = 7 })},
		{Key: "nan", RCC: bad(2, func(r *domain.RCC) { r.Amount = math.NaN() })},
		{Key: "swlin", RCC: bad(3, func(r *domain.RCC) { r.SWLIN = 1_000_000_000 })},
		{Key: "orphan", RCC: bad(4, func(r *domain.RCC) { r.AvailID = 999_999 })},
		{Key: "g0", RCC: good(0)},
		{Key: "g5", RCC: good(5)},
	}
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, err := l.Append(encodeWALEntry(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	d, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if info.Restored != 2 || info.Duplicates != 1 || info.Skipped != 4 {
		t.Fatalf("restore info = %+v, want 2 restored, 1 duplicate, 4 skipped", info)
	}
	eng, asOf, _, err := d.EngineAsOf(id)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]domain.RCC(nil), ds.RCCsByAvail()[id]...), good(0), good(5))
	if asOf != int64(len(want)) || !slices.Equal(eng.RCCs(), want) {
		t.Fatalf("engine holds %d RCCs (asOf %d), want the base plus the two good records (%d)", eng.NumRCCs(), asOf, len(want))
	}
	sw := eng.Sweep()
	defer sw.Release()
	if err := sw.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
}
