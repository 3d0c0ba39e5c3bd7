package core

import (
	"sync"
	"testing"

	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/split"
	"domd/internal/statusq"
)

// trainService builds a trained pipeline plus the ongoing avails to query.
func trainService(t *testing.T) (*QueryService, *navsim.Dataset) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{
		NumClosed: 60, NumOngoing: 4, MeanRCCsPerAvail: 60, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	ext := features.NewExtractor()
	tensor, err := features.BuildTensor(ext, ds.Avails, ds.RCCsByAvail(), 20, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(fastConfig(), tensor, sp.Train, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	return NewQueryService(p, ext, index.KindAVL), ds
}

func ongoingAvail(t *testing.T, ds *navsim.Dataset) *domain.Avail {
	t.Helper()
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			return &ds.Avails[i]
		}
	}
	t.Fatal("no ongoing avail in dataset")
	return nil
}

func TestQueryOngoingAvail(t *testing.T) {
	svc, ds := trainService(t)
	a := ongoingAvail(t, ds)
	rccs := ds.RCCsByAvail()[a.ID]
	// Query mid-execution: t* = 50%.
	at := a.PhysicalTime(50)
	res, err := svc.Query(a, rccs, at)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvailID != a.ID {
		t.Errorf("avail id = %d", res.AvailID)
	}
	if res.LogicalTime < 49 || res.LogicalTime > 51 {
		t.Errorf("t* = %f, want ≈50", res.LogicalTime)
	}
	// Grid 0,20,40 are <= 50: three estimates.
	if len(res.Estimates) != 3 {
		t.Fatalf("%d estimates, want 3 (0,20,40)", len(res.Estimates))
	}
	for i, e := range res.Estimates {
		if e.Timestamp != []float64{0, 20, 40}[i] {
			t.Errorf("estimate %d at t*=%f", i, e.Timestamp)
		}
	}
	if len(res.TopDrivers) != 5 {
		t.Errorf("%d top drivers, want 5", len(res.TopDrivers))
	}
	if res.Final() != res.Estimates[2].Fused {
		t.Error("Final() must be the last fused estimate")
	}
}

func TestQueryAtStartUsesStaticModelOnly(t *testing.T) {
	svc, ds := trainService(t)
	a := ongoingAvail(t, ds)
	res, err := svc.Query(a, ds.RCCsByAvail()[a.ID], a.ActStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 1 || res.Estimates[0].Timestamp != 0 {
		t.Fatalf("estimates at start = %+v, want single t*=0", res.Estimates)
	}
	if res.Estimates[0].Raw != res.Estimates[0].Fused {
		t.Error("single estimate must fuse to itself")
	}
}

func TestQueryBeforeStartErrors(t *testing.T) {
	svc, ds := trainService(t)
	a := ongoingAvail(t, ds)
	if _, err := svc.Query(a, ds.RCCsByAvail()[a.ID], a.ActStart-10); err == nil {
		t.Error("query before start: want error")
	}
}

func TestQueryPastPlanCapsAt100(t *testing.T) {
	svc, ds := trainService(t)
	a := ongoingAvail(t, ds)
	at := a.PhysicalTime(130)
	res, err := svc.Query(a, ds.RCCsByAvail()[a.ID], at)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Estimates[len(res.Estimates)-1]
	if last.Timestamp != 100 {
		t.Errorf("last estimate at t*=%f, want 100", last.Timestamp)
	}
	if res.LogicalTime < 125 {
		t.Errorf("logical time = %f, want > 125", res.LogicalTime)
	}
}

func TestQueryRejectsForeignRCCs(t *testing.T) {
	svc, ds := trainService(t)
	a := ongoingAvail(t, ds)
	foreign := []domain.RCC{{ID: 1, AvailID: a.ID + 1, Created: a.ActStart, Settled: a.ActStart + 5}}
	if _, err := svc.Query(a, foreign, a.PhysicalTime(10)); err == nil {
		t.Error("foreign rccs: want error")
	}
}

// TestQueryEngineMatchesQuery pins the cached serving path: answering via a
// prebuilt (catalog-cached) engine must be indistinguishable from the
// one-shot Query path that re-indexes per call.
func TestQueryEngineMatchesQuery(t *testing.T) {
	svc, ds := trainService(t)
	a := ongoingAvail(t, ds)
	rccs := ds.RCCsByAvail()[a.ID]
	at := a.PhysicalTime(50)
	fresh, err := svc.Query(a, rccs, at)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := statusq.NewEngine(a, rccs)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := svc.QueryEngine(eng, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Estimates) != len(fresh.Estimates) {
		t.Fatalf("estimates %d != %d", len(cached.Estimates), len(fresh.Estimates))
	}
	for k := range fresh.Estimates {
		if cached.Estimates[k] != fresh.Estimates[k] {
			t.Errorf("estimate %d: cached %+v != fresh %+v", k, cached.Estimates[k], fresh.Estimates[k])
		}
	}
	if cached.LogicalTime != fresh.LogicalTime || cached.Final() != fresh.Final() {
		t.Errorf("cached (t*=%f, final=%f) != fresh (t*=%f, final=%f)",
			cached.LogicalTime, cached.Final(), fresh.LogicalTime, fresh.Final())
	}
	// A shared engine must answer concurrent queries race-free (see the
	// index.TimeIndex concurrency contract); run with -race.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := svc.QueryEngine(eng, a.PhysicalTime(float64(30+w*10))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Not-started avails are rejected the same way on both paths.
	if _, err := svc.QueryEngine(eng, a.ActStart-10); err == nil {
		t.Error("QueryEngine before start: want error")
	}
}
