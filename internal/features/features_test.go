package features

import (
	"math"
	"strings"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/statusq"
	"domd/internal/swlin"
)

func TestRegistrySizeAndNaming(t *testing.T) {
	e := NewExtractor()
	// 3 statuses × 4 types × 11 swlin groups × 11 aggregates.
	want := 3 * 4 * 11 * 11
	if e.NumDynamic() != want {
		t.Fatalf("NumDynamic = %d, want %d", e.NumDynamic(), want)
	}
	names := e.Names()
	if len(names) != NumStatic+want {
		t.Fatalf("Names = %d, want %d", len(names), NumStatic+want)
	}
	// Unique names.
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	// Paper-style name present (status made explicit).
	if !seen["G1-SETTLED_AVG_SETTLED_AMT"] {
		t.Error("expected paper-style feature G1-SETTLED_AVG_SETTLED_AMT")
	}
	if !seen["ALLALL-CREATED_COUNT"] {
		t.Error("expected whole-ship count feature")
	}
	for _, s := range StaticNames {
		if !seen[s] {
			t.Errorf("static %q missing from Names", s)
		}
	}
}

func TestStaticVector(t *testing.T) {
	a := &domain.Avail{
		ID: 1, ShipClass: 3, RMC: 2, ShipAge: 17.5,
		PlanStart: 0, PlanEnd: 250, PlannedCost: 9e6,
		PriorAvails: 4, DockType: 1, HomeportDist: 812,
	}
	v := StaticVector(a)
	if len(v) != NumStatic {
		t.Fatalf("static vector len = %d, want %d", len(v), NumStatic)
	}
	want := []float64{3, 2, 17.5, 250, 9e6, 4, 1, 812}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("static[%d] (%s) = %f, want %f", i, StaticNames[i], v[i], want[i])
		}
	}
}

// fixture reuses the hand-checkable engine from the statusq tests.
func fixture(t *testing.T) *statusq.Engine {
	t.Helper()
	a := &domain.Avail{ID: 1, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 100, ActStart: 0, ActEnd: 120}
	mk := func(s string) int {
		c, err := swlin.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return int(c)
	}
	rccs := []domain.RCC{
		{ID: 101, AvailID: 1, Type: domain.Growth, SWLIN: mk("434-11-001"), Created: 10, Settled: 50, Amount: 100},
		{ID: 102, AvailID: 1, Type: domain.Growth, SWLIN: mk("434-22-001"), Created: 20, Settled: 90, Amount: 200},
		{ID: 103, AvailID: 1, Type: domain.NewWork, SWLIN: mk("911-90-001"), Created: 30, Settled: 60, Amount: 400},
		{ID: 104, AvailID: 1, Type: domain.NewGrowth, SWLIN: mk("434-33-001"), Created: 0, Settled: 10, Amount: 800},
	}
	eng, err := statusq.NewEngine(a, rccs, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// lookup finds a feature value by name.
func lookup(t *testing.T, e *Extractor, vec []float64, name string) float64 {
	t.Helper()
	for i, n := range e.Names() {
		if n == name {
			return vec[i]
		}
	}
	t.Fatalf("feature %q not found", name)
	return 0
}

func TestDynamicVectorHandChecked(t *testing.T) {
	e := NewExtractor()
	eng := fixture(t)
	vec, err := e.Vector(eng, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != NumStatic+e.NumDynamic() {
		t.Fatalf("vector len = %d", len(vec))
	}
	cases := []struct {
		name string
		want float64
	}{
		// @day 30: active = {G:100, G:200, NW:400}, settled = {NG:800}.
		{"ALLALL-ACTIVE_COUNT", 3},
		{"ALLALL-ACTIVE_SUM_SETTLED_AMT", 700},
		{"ALLALL-SETTLED_COUNT", 1},
		{"ALLALL-SETTLED_SUM_SETTLED_AMT", 800},
		{"ALLALL-CREATED_COUNT", 4},
		{"GALL-ACTIVE_COUNT", 2},
		{"GALL-ACTIVE_AVG_SETTLED_AMT", 150},
		{"G4-ACTIVE_COUNT", 2},
		{"G9-ACTIVE_COUNT", 0},
		{"NW9-ACTIVE_COUNT", 1},
		{"NW9-ACTIVE_MAX_SETTLED_AMT", 400},
		{"NG4-SETTLED_COUNT", 1},
		{"NG4-SETTLED_AVG_DUR", 10},
		{"ALL4-CREATED_COUNT", 3},
		{"ALLALL-ACTIVE_PCT", 0.75},
		{"ALLALL-ACTIVE_RATE", 0.1},
		{"ALLALL-ACTIVE_MAX_DUR", 70},
	}
	for _, c := range cases {
		if got := lookup(t, e, vec, c.name); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %f, want %f", c.name, got, c.want)
		}
	}
}

func TestDynamicFeaturesEvolveOverTime(t *testing.T) {
	e := NewExtractor()
	eng := fixture(t)
	v0, err := e.Vector(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	v100, err := e.Vector(eng, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Created count is monotone over time; everything is settled by t*=100.
	if lookup(t, e, v0, "ALLALL-CREATED_COUNT") != 1 {
		t.Error("only the day-0 RCC should exist at t*=0")
	}
	if lookup(t, e, v100, "ALLALL-SETTLED_COUNT") != 4 {
		t.Error("all RCCs settled by t*=100")
	}
	if lookup(t, e, v100, "ALLALL-ACTIVE_COUNT") != 0 {
		t.Error("no RCC active at t*=100")
	}
	// Statics identical across time.
	for i := 0; i < NumStatic; i++ {
		if v0[i] != v100[i] {
			t.Errorf("static feature %d changed over time", i)
		}
	}
}

func TestBuildTensor(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 12, NumOngoing: 2, MeanRCCsPerAvail: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExtractor()
	tensor, err := BuildTensor(e, ds.Avails, ds.RCCsByAvail(), 10, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	if len(tensor.Timestamps) != 11 {
		t.Fatalf("timestamps = %v, want 0..100 step 10", tensor.Timestamps)
	}
	if tensor.NumAvails() != 12 {
		t.Errorf("tensor rows = %d, want 12 closed avails", tensor.NumAvails())
	}
	for k, slice := range tensor.Slices {
		if err := slice.Validate(); err != nil {
			t.Fatalf("slice %d invalid: %v", k, err)
		}
		if slice.NumRows() != 12 {
			t.Fatalf("slice %d rows = %d", k, slice.NumRows())
		}
		if slice.NumCols() != NumStatic+e.NumDynamic() {
			t.Fatalf("slice %d cols = %d", k, slice.NumCols())
		}
	}
	// Targets equal the avail delays on every slice.
	for r, a := range tensor.Avails {
		d, err := a.Delay()
		if err != nil {
			t.Fatal(err)
		}
		for k := range tensor.Slices {
			if tensor.Slices[k].Y[r] != float64(d) {
				t.Fatalf("slice %d row %d label %f, want %d", k, r, tensor.Slices[k].Y[r], d)
			}
		}
	}
}

func TestBuildTensorFractionalGap(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 5, NumOngoing: 0, MeanRCCsPerAvail: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExtractor()
	tensor, err := BuildTensor(e, ds.Avails, ds.RCCsByAvail(), 33, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 33, 66, 99, 100}
	if len(tensor.Timestamps) != len(want) {
		t.Fatalf("timestamps = %v, want %v", tensor.Timestamps, want)
	}
	for i := range want {
		if tensor.Timestamps[i] != want[i] {
			t.Fatalf("timestamps = %v, want %v", tensor.Timestamps, want)
		}
	}
}

func TestBuildTensorErrors(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 5, NumOngoing: 0, MeanRCCsPerAvail: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExtractor()
	if _, err := BuildTensor(e, ds.Avails, ds.RCCsByAvail(), 0, index.KindAVL); err == nil {
		t.Error("gap 0: want error")
	}
	if _, err := BuildTensor(e, ds.Avails, ds.RCCsByAvail(), 101, index.KindAVL); err == nil {
		t.Error("gap 101: want error")
	}
	ongoingOnly := []domain.Avail{{ID: 1, Status: domain.StatusOngoing, PlanStart: 0, PlanEnd: 10, ActStart: 0}}
	if _, err := BuildTensor(e, ongoingOnly, nil, 10, index.KindAVL); err == nil {
		t.Error("no closed avails: want error")
	}
}

func TestSpecNameFormat(t *testing.T) {
	g := domain.Growth
	s := Spec{Type: &g, Subsystem: 1, Status: domain.SettledStatus, Agg: statusq.AvgAmount}
	if s.Name() != "G1-SETTLED_AVG_SETTLED_AMT" {
		t.Errorf("Name = %q", s.Name())
	}
	all := Spec{Subsystem: -1, Status: domain.Active, Agg: statusq.Count}
	if !strings.HasPrefix(all.Name(), "ALLALL-") {
		t.Errorf("all-name = %q", all.Name())
	}
}

// TestRowExtractsEachPointOnce pins the Row memo a /fleet row's query and
// prediction share: a later call over points already read (the default
// window 50–100 grid after the base grid) extracts nothing and hands back
// the same vectors; a call reaching back before the sweep's position
// rewinds it; every vector equals the scratch Vector bitwise.
func TestRowExtractsEachPointOnce(t *testing.T) {
	e := NewExtractor()
	eng := fixture(t)
	row := e.NewRow(eng)
	base := TimestampGrid(10)
	first, err := row.Vectors(base[:8]) // t* = 75: points 0..70
	if err != nil {
		t.Fatal(err)
	}
	if len(row.memo) != 8 {
		t.Fatalf("memo holds %d points after one 8-point call", len(row.memo))
	}
	window, err := row.Vectors([]float64{50, 60, 70})
	if err != nil {
		t.Fatal(err)
	}
	if len(row.memo) != 8 {
		t.Fatalf("a subset grid extracted %d new points", len(row.memo)-8)
	}
	for i, k := range []int{5, 6, 7} {
		if &window[i][0] != &first[k][0] {
			t.Fatalf("point %g was re-extracted instead of shared", base[k])
		}
	}
	// 25 and 100 are new; 25 lies behind the sweep (at 70), so it rewinds.
	more, err := row.Vectors([]float64{25, 60, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(row.memo) != 10 {
		t.Fatalf("memo holds %d points, want 10", len(row.memo))
	}
	check := func(ts float64, got []float64) {
		t.Helper()
		want, err := e.Vector(eng, ts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("t*=%g feature %d: row %v, scratch %v", ts, j, got[j], want[j])
			}
		}
	}
	for k, v := range first {
		check(base[k], v)
	}
	check(25, more[0])
	check(100, more[2])
}
