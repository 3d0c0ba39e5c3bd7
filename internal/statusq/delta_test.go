package statusq

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/wal"
)

// The delta differential suite proves the claim of the incremental ingest
// path: an engine maintained by ApplyRCC across a randomized ingest stream
// is bitwise-identical, in its event orders, its sweeps and every query
// over its RCCs, to one rebuilt from scratch over the same history — after
// every prefix of the stream, and across a WAL-replay restore.

// randRCC draws a random RCC for avail a. Creation dates are drawn
// uniformly, so the stream arrives out of creation order — the regime the
// engine-level delta path must still handle exactly.
func randRCC(rng *rand.Rand, a *domain.Avail, id int) domain.RCC {
	span := int(a.PlannedDuration()) * 2
	created := a.ActStart + domain.Day(rng.Intn(span))
	return domain.RCC{
		ID:      id,
		AvailID: a.ID,
		Type:    domain.RCCType(rng.Intn(domain.NumRCCTypes)),
		SWLIN:   rng.Intn(100_000_000),
		Created: created,
		Settled: created + domain.Day(rng.Intn(120)),
		Amount:  math.Trunc(rng.Float64()*1e6) / 100,
	}
}

// randQuery draws one Status Query covering the filter × status × aggregate
// space.
func randQuery(rng *rand.Rand) Query {
	q := Query{
		Status: domain.RCCStatus(rng.Intn(domain.NumRCCStatuses)),
		Agg:    Aggregate(rng.Intn(NumAggregates)),
	}
	switch rng.Intn(3) {
	case 1:
		typ := domain.RCCType(rng.Intn(domain.NumRCCTypes))
		q.Type = &typ
	case 2:
		q.SWLINPrefix = []int{rng.Intn(10)}
	}
	return q
}

// diffEngines asserts that the delta-applied engine inc and scratch, a
// rebuild over the same history, agree bit for bit: on their RCCs and
// event orders, on the grids of sweeps each hands out, advanced to random
// ascending logical times, and on a randomized Status Query battery over
// an index (of design kind) of each engine's RCCs.
func diffEngines(t *testing.T, rng *rand.Rand, inc, scratch *Engine, kind index.Kind, tag string) {
	t.Helper()
	if inc.NumRCCs() != scratch.NumRCCs() {
		t.Fatalf("%s: NumRCCs %d != %d", tag, inc.NumRCCs(), scratch.NumRCCs())
	}
	if !slices.Equal(inc.RCCs(), scratch.RCCs()) {
		t.Fatalf("%s: RCCs differ", tag)
	}
	if !equalInts(inc.creations, scratch.creations) || !equalInts(inc.settlements, scratch.settlements) {
		t.Fatalf("%s: event orders differ", tag)
	}
	var at [4]float64
	for i := range at {
		at[i] = rng.Float64() * 120
	}
	slices.Sort(at[:])
	gotSw, wantSw := inc.Sweep(), scratch.Sweep()
	defer gotSw.Release()
	defer wantSw.Release()
	for _, ts := range at {
		if err := gotSw.AdvanceTo(ts); err != nil {
			t.Fatalf("%s: incremental sweep: %v", tag, err)
		}
		if err := wantSw.AdvanceTo(ts); err != nil {
			t.Fatalf("%s: scratch sweep: %v", tag, err)
		}
		if *gotSw.Grids() != *wantSw.Grids() {
			t.Fatalf("%s: sweep grids at ts=%g differ", tag, ts)
		}
	}
	incIx, err := NewIndexed(inc.Avail(), inc.RCCs(), kind)
	if err != nil {
		t.Fatalf("%s: index incremental RCCs: %v", tag, err)
	}
	scratchIx, err := NewIndexed(scratch.Avail(), scratch.RCCs(), kind)
	if err != nil {
		t.Fatalf("%s: index scratch RCCs: %v", tag, err)
	}
	for i := 0; i < 4; i++ {
		ts := rng.Float64() * 120
		q := randQuery(rng)
		got, err := incIx.Eval(ts, q)
		if err != nil {
			t.Fatalf("%s: incremental Eval: %v", tag, err)
		}
		want, err := scratchIx.Eval(ts, q)
		if err != nil {
			t.Fatalf("%s: scratch Eval: %v", tag, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Eval(ts=%g, q=%+v) = %v (incremental) != %v (scratch)", tag, ts, q, got, want)
		}
	}
}

// TestDeltaEngineDifferential streams 1000 randomized ingests into one
// engine via ApplyRCC and, after every prefix, checks it against a
// from-scratch NewEngine over the same extended history — running the
// Status Query battery on each time-index design.
func TestDeltaEngineDifferential(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 120
	}
	for _, kind := range []index.Kind{index.KindNaive, index.KindAVL, index.KindSorted} {
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			a := &domain.Avail{
				ID: 1, ShipID: 1, Status: domain.StatusOngoing,
				PlanStart: 0, PlanEnd: 300, ActStart: 0,
			}
			base := make([]domain.RCC, 0, 40)
			for i := 0; i < 40; i++ {
				base = append(base, randRCC(rng, a, i))
			}
			inc, err := NewEngine(a, base)
			if err != nil {
				t.Fatal(err)
			}
			history := append([]domain.RCC(nil), base...)
			for i := 0; i < n; i++ {
				r := randRCC(rng, a, 10_000+i)
				if err := inc.ApplyRCC(r); err != nil {
					t.Fatalf("ApplyRCC #%d: %v", i, err)
				}
				history = append(history, r)
				scratch, err := NewEngine(a, history)
				if err != nil {
					t.Fatal(err)
				}
				diffEngines(t, rng, inc, scratch, kind, fmt.Sprintf("prefix %d", i+1))
			}
		})
	}
}

// TestDeltaEngineEventOrders checks the event orders Engine.ApplyRCC keeps
// for Sweep: after every prefix of a random, out-of-date-order ingest
// stream they equal a rebuilt engine's, and a sweep taken mid-stream keeps
// the orders it captured while later applies insert into copies. A sweep
// from the maintained engine then matches a fresh NewCellSweep bitwise.
func TestDeltaEngineEventOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	a := &domain.Avail{ID: 1, ShipID: 1, Status: domain.StatusOngoing, PlanStart: 0, PlanEnd: 300, ActStart: 0}
	base := make([]domain.RCC, 0, 20)
	for i := 0; i < 20; i++ {
		base = append(base, randRCC(rng, a, i))
	}
	inc, err := NewEngine(a, append([]domain.RCC(nil), base...))
	if err != nil {
		t.Fatal(err)
	}
	history := append([]domain.RCC(nil), base...)
	type taken struct {
		sw                     *CellSweep
		creations, settlements []int
	}
	var sweeps []taken
	for i := 0; i < 400; i++ {
		r := randRCC(rng, a, 10_000+i)
		if err := inc.ApplyRCC(r); err != nil {
			t.Fatalf("ApplyRCC #%d: %v", i, err)
		}
		history = append(history, r)
		scratch, err := NewEngine(a, history)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(inc.creations, scratch.creations) {
			t.Fatalf("prefix %d: creation order diverges from a rebuild", i+1)
		}
		if !equalInts(inc.settlements, scratch.settlements) {
			t.Fatalf("prefix %d: settlement order diverges from a rebuild", i+1)
		}
		if rng.Intn(3) == 0 {
			sw := inc.Sweep()
			sweeps = append(sweeps, taken{sw,
				append([]int(nil), sw.creations...), append([]int(nil), sw.settlements...)})
		}
	}
	if len(sweeps) == 0 {
		t.Fatal("stream took no sweeps")
	}
	for k, s := range sweeps {
		if !equalInts(s.sw.creations, s.creations) || !equalInts(s.sw.settlements, s.settlements) {
			t.Fatalf("sweep %d (%d rccs): a later ApplyRCC rewrote its orders", k, s.sw.NumRCCs())
		}
	}
	got := inc.Sweep()
	want, err := NewCellSweep(a, history)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0.0; ts <= 200; ts += 12.5 {
		if err := got.AdvanceTo(ts); err != nil {
			t.Fatal(err)
		}
		if err := want.AdvanceTo(ts); err != nil {
			t.Fatal(err)
		}
		if *got.Grids() != *want.Grids() {
			t.Fatalf("ts=%g: engine sweep diverges from NewCellSweep", ts)
		}
	}
}

// TestDeltaCatalogWALReplayDifferential is the serving-tier half of the
// differential: a DurableCatalog folds a randomized 1000-RCC stream into
// the engine it built at open, the engine is checked against a
// from-scratch build after every prefix, and after a close/reopen the
// WAL-restored catalog must agree with both.
func TestDeltaCatalogWALReplayDifferential(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	rng := rand.New(rand.NewSource(71))
	ds, err := navsim.Generate(navsim.Config{NumClosed: 8, NumOngoing: 2, MeanRCCsPerAvail: 25, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dc, _, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	var avail *domain.Avail
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			avail = &ds.Avails[i]
			break
		}
	}
	id := avail.ID
	history := append([]domain.RCC(nil), ds.RCCsByAvail()[id]...)

	warm, err := engineOf(dc, id)
	if err != nil {
		t.Fatal(err)
	}
	builds, applies := mEngineBuilds.Value(), mDeltaApplies.Value()

	for i := 0; i < n; i++ {
		r := randRCC(rng, avail, 20_000+i)
		if dup, err := dc.Ingest(fmt.Sprintf("key-%d", i), r); err != nil || dup {
			t.Fatalf("ingest #%d: dup=%v err=%v", i, dup, err)
		}
		history = append(history, r)
		eng, asOf, stale, err := dc.Catalog.EngineAsOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if stale || asOf != int64(len(history)) {
			t.Fatalf("ingest #%d: stale=%v asOf=%d, want fresh asOf=%d", i, stale, asOf, len(history))
		}
		if eng != warm {
			t.Fatalf("ingest #%d: engine was rebuilt, want in-place delta apply", i)
		}
		scratch, err := NewEngine(avail, history)
		if err != nil {
			t.Fatal(err)
		}
		diffEngines(t, rng, eng, scratch, index.KindAVL, fmt.Sprintf("prefix %d", i+1))
	}
	if got := mDeltaApplies.Value() - applies; got != int64(n) {
		t.Errorf("delta applies = %d, want %d (every ingest folded in place)", got, n)
	}
	if got := mEngineBuilds.Value() - builds; got != 0 {
		t.Errorf("engine builds = %d, want 0 (no rebuild during the stream)", got)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the WAL replay restores every acked ingest into the RCCs
	// the engine is built over; it must agree bitwise with a from-scratch
	// engine over the full history (and therefore with the delta-applied
	// engine checked above).
	dc2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if info.Restored != n {
		t.Fatalf("replay restored %d RCCs, want %d", info.Restored, n)
	}
	restored, err := engineOf(dc2, id)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewEngine(avail, history)
	if err != nil {
		t.Fatal(err)
	}
	diffEngines(t, rng, restored, scratch, index.KindAVL, "post-replay")
	diffEngines(t, rng, warm, scratch, index.KindAVL, "pre-close delta engine vs post-replay history")
}
