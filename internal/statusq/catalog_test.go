package statusq

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"domd/internal/domain"
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
	e1, err := engineOf(c, id)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := engineOf(c, id)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("engine should be cached")
	}
	// The engine built at open answers as the avail's RCC table does.
	q := Query{Status: domain.Created, Agg: Count}
	got, err := evalVia(c, id, 50, q)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Avail(id)
	ix, err := NewIndexed(a, ds.RCCsByAvail()[id], index.KindAVL)
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
	if _, err := engineOf(c, 99999); err == nil {
		t.Error("engine for unknown avail: want error")
	}
}

// engineLookup is the one engine lookup every catalog serves, satisfied
// by *Catalog, *DurableCatalog and *ShardedCatalog alike.
type engineLookup interface {
	EngineAsOf(id int) (eng *Engine, asOf int64, stale bool, err error)
}

// engineOf returns the avail's engine without its provenance.
func engineOf(c engineLookup, id int) (*Engine, error) {
	eng, _, _, err := c.EngineAsOf(id)
	return eng, err
}

// evalVia answers one Status Query over the avail's serving engine: it
// indexes the engine's RCC snapshot and evaluates there, so an unknown
// avail fails in the lookup.
func evalVia(c engineLookup, id int, ts float64, q Query) (float64, error) {
	e, err := engineOf(c, id)
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
	before, err := evalVia(c, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Avail(id)
	add := domain.RCC{
		ID: 1_000_000, AvailID: id, Type: domain.Growth,
		SWLIN:   43411001,
		Created: a.ActStart + 1, Settled: a.ActStart + 30, Amount: 5000,
	}
	if err := c.addRCC(add); err != nil {
		t.Fatal(err)
	}
	after, err := evalVia(c, id, 100, Query{Status: domain.Created, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	if after != before+1 {
		t.Errorf("count after addRCC = %f, want %f", after, before+1)
	}
	// Errors.
	if err := c.addRCC(domain.RCC{ID: 2, AvailID: 99999, Created: 0, Settled: 1}); err == nil {
		t.Error("unknown avail: want error")
	}
	if err := c.addRCC(domain.RCC{ID: 3, AvailID: id, Created: 10, Settled: 5}); err == nil {
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
	// Engines are built at open, so a base RCC the sweep cannot fold
	// fails the table, named in the error, instead of the first query.
	badRCC := []domain.RCC{
		{ID: 1, AvailID: 1, Created: 0, Settled: 1},
		{ID: 77, AvailID: 1, Type: 7, Created: 0, Settled: 1},
	}
	_, err := NewCatalog(avails[:1], badRCC)
	if err == nil || !strings.Contains(err.Error(), "rcc 77") {
		t.Errorf("invalid base rcc: err = %v, want one naming rcc 77", err)
	}
}

// TestCatalogConcurrentMix is the package-level -race gate: engine lookups
// (and a Status Query over the engine's RCCs) and addRCC from many
// goroutines at once. Readers touch only the first half of the avails, so
// the writers also fold into engines no read has touched yet; afterwards
// every engine holds its base RCCs plus exactly the RCCs folded into it.
func TestCatalogConcurrentMix(t *testing.T) {
	c, ds := catalogFixture(t)
	ids := c.AvailIDs()
	read := len(ids) / 2
	q := Query{Status: domain.Created, Agg: Count}
	var wg sync.WaitGroup
	var nextID atomic.Int64
	nextID.Store(5_000_000)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := ids[(w+i)%read]
				if _, err := evalVia(c, id, float64(10+(i%9)*10), q); err != nil {
					t.Errorf("Eval(%d): %v", id, err)
					return
				}
			}
		}(w)
	}
	added := make([][]int, 2)
	for w := range added {
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
				if err := c.addRCC(r); err != nil {
					t.Errorf("addRCC(%d): %v", id, err)
					return
				}
				added[w] = append(added[w], id)
			}
		}(w)
	}
	wg.Wait()
	want := map[int]int{}
	for id, rccs := range ds.RCCsByAvail() {
		want[id] = len(rccs)
	}
	for _, ws := range added {
		for _, id := range ws {
			want[id]++
		}
	}
	for _, id := range ids {
		e, err := engineOf(c, id)
		if err != nil {
			t.Fatal(err)
		}
		if e.NumRCCs() != want[id] {
			t.Errorf("avail %d engine holds %d RCCs, want %d", id, e.NumRCCs(), want[id])
		}
	}
}

// TestCatalogAddRCCDeltaApplies pins the read-your-writes guarantee under
// the incremental ingest path: a lookup that starts after addRCC returns
// sees the new RCC, and the engine was folded in place (same engine, no
// build) rather than replaced.
func TestCatalogAddRCCDeltaApplies(t *testing.T) {
	c, ds := catalogFixture(t)
	id := ds.Avails[0].ID
	e1, asOf1, _, err := c.EngineAsOf(id)
	if err != nil {
		t.Fatal(err)
	}
	builds, applies := mEngineBuilds.Value(), mDeltaApplies.Value()
	a, _ := c.Avail(id)
	add := domain.RCC{
		ID: 9_000_000, AvailID: id, Type: domain.Growth, SWLIN: 43411001,
		Created: a.ActStart + 1, Settled: a.ActStart + 30, Amount: 1,
	}
	if err := c.addRCC(add); err != nil {
		t.Fatal(err)
	}
	e2, asOf2, stale, err := c.EngineAsOf(id)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("addRCC replaced the engine instead of folding in place")
	}
	if want := len(ds.RCCsByAvail()[id]) + 1; e2.NumRCCs() != want || asOf2 != int64(want) || asOf2 != asOf1+1 || stale {
		t.Errorf("engine has %d RCCs, asOf %d (was %d), stale %v; want %d, fresh", e2.NumRCCs(), asOf2, asOf1, stale, want)
	}
	if got := mDeltaApplies.Value() - applies; got != 1 {
		t.Errorf("delta applies = %d, want 1", got)
	}
	if got := mEngineBuilds.Value() - builds; got != 0 {
		t.Errorf("engine builds = %d, want 0 (no rebuild)", got)
	}
}

// TestCatalogUnknownAvailSentinel pins the previously undocumented
// failure mode: every unknown-avail path wraps ErrUnknownAvail so
// callers (the server's 404 mapping) can test with errors.Is.
func TestCatalogUnknownAvailSentinel(t *testing.T) {
	c, _ := catalogFixture(t)
	if err := c.addRCC(domain.RCC{ID: 1, AvailID: 99999, Created: 0, Settled: 1}); !errors.Is(err, ErrUnknownAvail) {
		t.Errorf("addRCC unknown avail = %v, want ErrUnknownAvail", err)
	}
	if _, _, _, err := c.EngineAsOf(99999); !errors.Is(err, ErrUnknownAvail) {
		t.Errorf("EngineAsOf unknown avail = %v, want ErrUnknownAvail", err)
	}
}
