package statusq

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"domd/internal/domain"
	"domd/internal/faultinject"
	"domd/internal/index"
	"domd/internal/navsim"
)

func catalogFixture(t *testing.T) (*Catalog, *navsim.Dataset) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 15, NumOngoing: 3, MeanRCCsPerAvail: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCatalog(ds.Avails, ds.RCCs)
	if err != nil {
		t.Fatal(err)
	}
	return c, ds
}

func TestCatalogLookupAndIDs(t *testing.T) {
	c, ds := catalogFixture(t)
	if got := len(c.AvailIDs()); got != 18 {
		t.Errorf("AvailIDs = %d, want 18", got)
	}
	if got := len(c.OngoingIDs()); got != 3 {
		t.Errorf("OngoingIDs = %d, want 3", got)
	}
	a, ok := c.Avail(ds.Avails[0].ID)
	if !ok || a.ID != ds.Avails[0].ID {
		t.Error("Avail lookup failed")
	}
	if _, ok := c.Avail(99999); ok {
		t.Error("lookup of unknown id succeeded")
	}
	// Ascending order.
	ids := c.AvailIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ids not ascending")
		}
	}
}

func TestCatalogEngineCachedAndCorrect(t *testing.T) {
	c, ds := catalogFixture(t)
	id := ds.Avails[0].ID
	e1, err := c.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("engine should be cached")
	}
	// The cached engine's RCCs answer as the catalog's history does.
	q := Query{Status: domain.Created, Agg: Count}
	got, err := evalVia(c.Engine, id, 50, q)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Avail(id)
	ix, err := NewIndexed(a, c.RCCs(id), index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Eval(50, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("engine eval %f != history eval %f", got, want)
	}
	if _, err := c.Engine(99999); err == nil {
		t.Error("engine for unknown avail: want error")
	}
}

// evalVia answers one Status Query over the serving engine engine(id)
// returns: it indexes the engine's RCC snapshot and evaluates there, so an
// unknown avail fails in the lookup.
func evalVia(engine func(int) (*Engine, error), id int, ts float64, q Query) (float64, error) {
	e, err := engine(id)
	if err != nil {
		return 0, err
	}
	ix, err := NewIndexed(e.Avail(), e.RCCs(), index.KindAVL)
	if err != nil {
		return 0, err
	}
	return ix.Eval(ts, q)
}

func TestCatalogAddRCC(t *testing.T) {
	c, ds := catalogFixture(t)
	id := ds.Avails[0].ID
	before, err := evalVia(c.Engine, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Avail(id)
	add := domain.RCC{
		ID: 1_000_000, AvailID: id, Type: domain.Growth,
		SWLIN:   43411001,
		Created: a.ActStart + 1, Settled: a.ActStart + 30, Amount: 5000,
	}
	if err := c.AddRCC(add); err != nil {
		t.Fatal(err)
	}
	after, err := evalVia(c.Engine, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Errorf("count after AddRCC = %f, want %f", after, before+1)
	}
	// Errors.
	if err := c.AddRCC(domain.RCC{ID: 2, AvailID: 99999, Created: 0, Settled: 1}); err == nil {
		t.Error("unknown avail: want error")
	}
	if err := c.AddRCC(domain.RCC{ID: 3, AvailID: id, Created: 10, Settled: 5}); err == nil {
		t.Error("invalid rcc: want error")
	}
}

func TestCatalogValidation(t *testing.T) {
	avails := []domain.Avail{
		{ID: 1, Status: domain.StatusClosed, PlanStart: 0, PlanEnd: 100, ActStart: 0, ActEnd: 100},
		{ID: 1, Status: domain.StatusClosed, PlanStart: 0, PlanEnd: 100, ActStart: 0, ActEnd: 100},
	}
	if _, err := NewCatalog(avails, nil); err == nil {
		t.Error("duplicate avail ids: want error")
	}
	orphan := []domain.RCC{{ID: 1, AvailID: 42, Created: 0, Settled: 1}}
	if _, err := NewCatalog(avails[:1], orphan); err == nil {
		t.Error("orphan rcc: want error")
	}
	bad := []domain.Avail{{ID: 1, PlanStart: 10, PlanEnd: 5}}
	if _, err := NewCatalog(bad, nil); err == nil {
		t.Error("invalid avail: want error")
	}
}

func TestCatalogEngineSingleFlight(t *testing.T) {
	c, ds := catalogFixture(t)
	id := ds.Avails[0].ID
	const n = 32
	engines := make([]*Engine, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e, err := c.Engine(id)
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = e
		}(i)
	}
	close(start)
	wg.Wait()
	if got := c.EngineBuilds(); got != 1 {
		t.Errorf("%d concurrent first queries built %d engines, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if engines[i] != engines[0] {
			t.Fatal("concurrent callers got different engines")
		}
	}
}

// TestCatalogConcurrentMix is the package-level -race gate: Engine (and a
// Status Query over its RCCs), RCCs, and AddRCC from many goroutines at
// once. The pre-fix Catalog fails here with a concurrent-map-write panic.
func TestCatalogConcurrentMix(t *testing.T) {
	c, ds := catalogFixture(t)
	ids := c.AvailIDs()
	q := Query{Status: domain.Created, Agg: Count}
	var wg sync.WaitGroup
	var nextID atomic.Int64
	nextID.Store(5_000_000)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := ids[(w+i)%len(ids)]
				if _, err := evalVia(c.Engine, id, float64(10+(i%9)*10), q); err != nil {
					t.Errorf("Eval(%d): %v", id, err)
					return
				}
				_ = c.RCCs(id)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := ids[(w+i)%len(ids)]
				a, _ := c.Avail(id)
				r := domain.RCC{
					ID: int(nextID.Add(1)), AvailID: id, Type: domain.Growth,
					SWLIN:   43411001,
					Created: a.ActStart + 1, Settled: a.ActStart + 20, Amount: 100,
				}
				if err := c.AddRCC(r); err != nil {
					t.Errorf("AddRCC(%d): %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	_ = ds
}

// TestCatalogAddRCCDeltaApplies pins the read-your-writes guarantee under
// the incremental ingest path: an Engine call that starts after AddRCC
// returns sees the new RCC, and the cached engine was folded in place
// (same engine, no rebuild) rather than invalidated.
func TestCatalogAddRCCDeltaApplies(t *testing.T) {
	c, ds := catalogFixture(t)
	id := ds.Avails[0].ID
	e1, err := c.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	builds := c.EngineBuilds()
	a, _ := c.Avail(id)
	add := domain.RCC{
		ID: 9_000_000, AvailID: id, Type: domain.Growth, SWLIN: 43411001,
		Created: a.ActStart + 1, Settled: a.ActStart + 30, Amount: 1,
	}
	if err := c.AddRCC(add); err != nil {
		t.Fatal(err)
	}
	e2, err := c.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("AddRCC rebuilt the engine instead of delta-applying in place")
	}
	if want := len(ds.RCCsByAvail()[id]) + 1; e2.NumRCCs() != want {
		t.Errorf("engine has %d RCCs, want %d", e2.NumRCCs(), want)
	}
	if got := c.DeltaApplies(); got != 1 {
		t.Errorf("DeltaApplies = %d, want 1", got)
	}
	if got := c.EngineBuilds(); got != builds {
		t.Errorf("EngineBuilds = %d, want %d (no rebuild)", got, builds)
	}
}

// TestCatalogAddRCCInvalidatesWithoutDelta pins the fallback: when the
// in-place fold is refused (here by the armed FailDeltaApply failpoint;
// likewise for any ineligible slot) AddRCC invalidates the cached engine
// and the next Engine call rebuilds over the extended history — the
// pre-incremental behaviour.
func TestCatalogAddRCCInvalidatesWithoutDelta(t *testing.T) {
	defer faultinject.Reset()
	c, ds := catalogFixture(t)
	id := ds.Avails[0].ID
	e1, err := c.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Avail(id)
	add := domain.RCC{
		ID: 9_000_000, AvailID: id, Type: domain.Growth, SWLIN: 43411001,
		Created: a.ActStart + 1, Settled: a.ActStart + 30, Amount: 1,
	}
	faultinject.EnableTimes(FailDeltaApply, errors.New("force rebuild path"), 1)
	if err := c.AddRCC(add); err != nil {
		t.Fatal(err)
	}
	e2, err := c.Engine(id)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Fatal("AddRCC did not invalidate the cached engine")
	}
	if e2.NumRCCs() != e1.NumRCCs()+1 {
		t.Errorf("rebuilt engine has %d RCCs, want %d", e2.NumRCCs(), e1.NumRCCs()+1)
	}
	if got := c.DeltaFallbacks(); got != 1 {
		t.Errorf("DeltaFallbacks = %d, want 1", got)
	}
	if got := c.DeltaApplies(); got != 0 {
		t.Errorf("DeltaApplies = %d, want 0 (the fold was refused)", got)
	}
}

// TestCatalogUnknownAvailSentinel pins the previously undocumented
// failure mode: every unknown-avail path wraps ErrUnknownAvail so
// callers (the server's 404 mapping) can test with errors.Is.
func TestCatalogUnknownAvailSentinel(t *testing.T) {
	c, _ := catalogFixture(t)
	if err := c.AddRCC(domain.RCC{ID: 1, AvailID: 99999, Created: 0, Settled: 1}); !errors.Is(err, ErrUnknownAvail) {
		t.Errorf("AddRCC unknown avail = %v, want ErrUnknownAvail", err)
	}
	if _, err := c.Engine(99999); !errors.Is(err, ErrUnknownAvail) {
		t.Errorf("Engine unknown avail = %v, want ErrUnknownAvail", err)
	}
	if _, _, _, err := c.EngineAsOf(99999); !errors.Is(err, ErrUnknownAvail) {
		t.Errorf("EngineAsOf unknown avail = %v, want ErrUnknownAvail", err)
	}
}

// TestCatalogEngineBuildFaultServesLastGood drives the degraded-serving
// contract: with the engine build failing, EngineAsOf answers from the
// last successfully built engine marked stale; once the fault clears,
// the next call rebuilds fresh.
func TestCatalogEngineBuildFaultServesLastGood(t *testing.T) {
	defer faultinject.Reset()
	c, ds := catalogFixture(t)
	id := ds.Avails[0].ID

	good, asOf, stale, err := c.EngineAsOf(id)
	if err != nil || stale {
		t.Fatalf("healthy EngineAsOf: stale=%v err=%v", stale, err)
	}
	if asOf != int64(good.NumRCCs()) {
		t.Fatalf("asOf = %d, want history length %d", asOf, good.NumRCCs())
	}

	// Force the ingest down the invalidation path (the armed failpoint
	// suppresses the in-place delta apply), then make every rebuild fail.
	a, _ := c.Avail(id)
	add := domain.RCC{
		ID: 7_000_000, AvailID: id, Type: domain.Growth, SWLIN: 43411001,
		Created: a.ActStart + 1, Settled: a.ActStart + 30, Amount: 1,
	}
	faultinject.EnableTimes(FailDeltaApply, errors.New("force rebuild path"), 1)
	if err := c.AddRCC(add); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected build failure")
	faultinject.Enable(FailEngineBuild, boom)

	if _, err := c.Engine(id); !errors.Is(err, boom) {
		t.Fatalf("strict Engine under fault = %v, want the build error", err)
	}
	eng, asOf2, stale2, err := c.EngineAsOf(id)
	if err != nil {
		t.Fatalf("EngineAsOf under fault = %v, want stale fallback", err)
	}
	if !stale2 || eng != good || asOf2 != asOf {
		t.Fatalf("fallback = (%p stale=%v asOf=%d), want last good (%p stale=true asOf=%d)",
			eng, stale2, asOf2, good, asOf)
	}

	// Fault clears: the failed slot was dropped, so the rebuild runs and
	// folds in the appended RCC.
	faultinject.Reset()
	fresh, asOf3, stale3, err := c.EngineAsOf(id)
	if err != nil || stale3 {
		t.Fatalf("post-fault EngineAsOf: stale=%v err=%v", stale3, err)
	}
	if fresh == good || asOf3 != asOf+1 {
		t.Fatalf("post-fault engine not rebuilt: asOf=%d want %d", asOf3, asOf+1)
	}
	if fresh.NumRCCs() != good.NumRCCs()+1 {
		t.Fatalf("rebuilt engine has %d RCCs, want %d", fresh.NumRCCs(), good.NumRCCs()+1)
	}
}

// TestCatalogEngineBuildFaultNoLastGood: with no prior good engine the
// build error must propagate — degraded mode cannot invent answers.
func TestCatalogEngineBuildFaultNoLastGood(t *testing.T) {
	defer faultinject.Reset()
	c, ds := catalogFixture(t)
	id := ds.Avails[1].ID
	boom := errors.New("injected build failure")
	faultinject.EnableTimes(FailEngineBuild, boom, 1)
	if _, _, _, err := c.EngineAsOf(id); !errors.Is(err, boom) {
		t.Fatalf("EngineAsOf with no last-good = %v, want build error", err)
	}
	// The failed slot must not be pinned: the next call retries and succeeds.
	if _, _, stale, err := c.EngineAsOf(id); err != nil || stale {
		t.Fatalf("retry after transient fault: stale=%v err=%v", stale, err)
	}
}
