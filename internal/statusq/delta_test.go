package statusq

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/wal"
)

// The delta differential suite proves the tentpole claim of the
// incremental ingest path: an engine (or sweep structure) maintained by
// ApplyRCC across a randomized ingest stream is bitwise-identical, under
// every query, to one rebuilt from scratch over the same history — after
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

// diffEngines asserts that two engines answer a randomized query battery
// bitwise-identically.
func diffEngines(t *testing.T, rng *rand.Rand, inc, scratch *Engine, tag string) {
	t.Helper()
	if inc.NumRCCs() != scratch.NumRCCs() {
		t.Fatalf("%s: NumRCCs %d != %d", tag, inc.NumRCCs(), scratch.NumRCCs())
	}
	for i := 0; i < 4; i++ {
		ts := rng.Float64() * 120
		q := randQuery(rng)
		got, err := inc.Eval(ts, q)
		if err != nil {
			t.Fatalf("%s: incremental Eval: %v", tag, err)
		}
		want, err := scratch.Eval(ts, q)
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
// from-scratch NewEngine over the same extended history — for each time
// index design the catalog can be configured with.
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
			inc, err := NewEngine(a, base, kind)
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
				scratch, err := NewEngine(a, history, kind)
				if err != nil {
					t.Fatal(err)
				}
				diffEngines(t, rng, inc, scratch, fmt.Sprintf("prefix %d", i+1))
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
	inc, err := NewEngine(a, append([]domain.RCC(nil), base...), index.KindAVL)
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
		scratch, err := NewEngine(a, history, index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(inc.view.creations, scratch.view.creations) {
			t.Fatalf("prefix %d: creation order diverges from a rebuild", i+1)
		}
		if !equalInts(inc.view.settlements, scratch.view.settlements) {
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
// differential: a DurableCatalog ingests a randomized 1000-RCC stream into
// a warm engine (so every ingest takes the O(delta) path), the engine is
// checked against a from-scratch build after every prefix, and after a
// close/reopen the WAL-replayed catalog must agree with both.
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

	// Warm the engine so the stream hits the delta path, not rebuilds.
	warm, err := dc.Catalog.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	buildsBefore := dc.Catalog.EngineBuilds()

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
		scratch, err := NewEngine(avail, history, index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		diffEngines(t, rng, eng, scratch, fmt.Sprintf("prefix %d", i+1))
	}
	if got := dc.Catalog.DeltaApplies(); got != int64(n) {
		t.Errorf("DeltaApplies = %d, want %d (every ingest on the warm engine)", got, n)
	}
	if got := dc.Catalog.EngineBuilds(); got != buildsBefore {
		t.Errorf("EngineBuilds = %d, want %d (no rebuild during the stream)", got, buildsBefore)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the WAL replay restores every acked ingest; the rebuilt
	// engine must agree bitwise with a from-scratch engine over the full
	// history (and therefore with the delta-applied engine checked above).
	dc2, info, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer dc2.Close()
	if info.Restored != n {
		t.Fatalf("replay restored %d RCCs, want %d", info.Restored, n)
	}
	restored, err := dc2.Catalog.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewEngine(avail, history, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	diffEngines(t, rng, restored, scratch, "post-replay")
	diffEngines(t, rng, warm, scratch, "pre-close delta engine vs post-replay history")
}

// TestDeltaSweepDifferential checks CellSweep.ApplyRCC: after advancing a
// sweep to a random position and folding a new RCC in, the grid state must
// equal (bitwise, via struct equality on the float fields) a fresh sweep
// over the extended set advanced to the same position — and stay equal
// after both advance further.
func TestDeltaSweepDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := &domain.Avail{ID: 5, ShipID: 1, Status: domain.StatusOngoing, PlanStart: 0, PlanEnd: 200, ActStart: 0}
	applied, rejected := 0, 0
	for trial := 0; trial < 300; trial++ {
		base := make([]domain.RCC, 0, 30)
		for i := 0; i < rng.Intn(30); i++ {
			base = append(base, randRCC(rng, a, trial*1000+i))
		}
		inc, err := NewCellSweep(a, base)
		if err != nil {
			t.Fatal(err)
		}
		ts1 := rng.Float64() * 100
		if err := inc.AdvanceTo(ts1); err != nil {
			t.Fatal(err)
		}
		before := *inc.Grids()
		r := randRCC(rng, a, trial*1000+999)
		if err := inc.ApplyRCC(r); err != nil {
			if !errors.Is(err, ErrCannotApply) {
				t.Fatalf("trial %d: ApplyRCC: %v", trial, err)
			}
			if *inc.Grids() != before {
				t.Fatalf("trial %d: rejected ApplyRCC mutated the grids", trial)
			}
			rejected++
			continue
		}
		applied++
		fresh, err := NewCellSweep(a, append(append([]domain.RCC(nil), base...), r))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.AdvanceTo(ts1); err != nil {
			t.Fatal(err)
		}
		if *inc.Grids() != *fresh.Grids() {
			t.Fatalf("trial %d: grids diverge after ApplyRCC at ts=%g", trial, ts1)
		}
		ts2 := ts1 + rng.Float64()*(120-ts1)
		if err := inc.AdvanceTo(ts2); err != nil {
			t.Fatal(err)
		}
		if err := fresh.AdvanceTo(ts2); err != nil {
			t.Fatal(err)
		}
		if *inc.Grids() != *fresh.Grids() {
			t.Fatalf("trial %d: grids diverge after advancing to ts=%g", trial, ts2)
		}
	}
	if applied == 0 || rejected == 0 {
		t.Fatalf("trial mix did not cover both outcomes: applied=%d rejected=%d", applied, rejected)
	}
}

// TestDeltaSweepCannotApply pins the designed fallback trigger: an RCC
// whose creation (or settlement) date precedes events the sweep already
// folded is rejected with ErrCannotApply, leaving the sweep fully usable.
func TestDeltaSweepCannotApply(t *testing.T) {
	a := &domain.Avail{ID: 7, ShipID: 1, Status: domain.StatusOngoing, PlanStart: 0, PlanEnd: 100, ActStart: 0}
	base := []domain.RCC{
		{ID: 1, AvailID: 7, Type: domain.Growth, SWLIN: 43411001, Created: 10, Settled: 90, Amount: 1},
		{ID: 2, AvailID: 7, Type: domain.Growth, SWLIN: 43411002, Created: 20, Settled: 95, Amount: 2},
	}
	s, err := NewCellSweep(a, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(30); err != nil { // both creations applied
		t.Fatal(err)
	}
	// Created=15 is inside the swept region but before the last applied
	// creation (day 20): folding it now would break the canonical order.
	outOfOrder := domain.RCC{ID: 3, AvailID: 7, Type: domain.NewGrowth, SWLIN: 43411003, Created: 15, Settled: 80, Amount: 3}
	if err := s.ApplyRCC(outOfOrder); !errors.Is(err, ErrCannotApply) {
		t.Fatalf("out-of-order ApplyRCC = %v, want ErrCannotApply", err)
	}
	if s.NumRCCs() != 2 {
		t.Fatalf("rejected apply changed NumRCCs to %d", s.NumRCCs())
	}
	// In-order (or future-dated) RCCs still apply, and the sweep advances.
	ok := domain.RCC{ID: 4, AvailID: 7, Type: domain.NewGrowth, SWLIN: 43411004, Created: 25, Settled: 80, Amount: 4}
	if err := s.ApplyRCC(ok); err != nil {
		t.Fatalf("in-order ApplyRCC: %v", err)
	}
	if err := s.AdvanceTo(90); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCellSweep(a, append(append([]domain.RCC(nil), base...), ok))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.AdvanceTo(90); err != nil {
		t.Fatal(err)
	}
	if *s.Grids() != *fresh.Grids() {
		t.Fatal("sweep state diverges from scratch after rejected + accepted applies")
	}
}
