package statusq

import (
	"math"
	"math/rand"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/swlin"
)

// fixtureAvail: planned 2000-01-01 .. 2000-04-10 (100 days), started on time.
func fixtureAvail() *domain.Avail {
	return &domain.Avail{
		ID: 1, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 100, ActStart: 0, ActEnd: 120,
	}
}

func code(t *testing.T, s string) int {
	t.Helper()
	c, err := swlin.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return int(c)
}

// fixtureRCCs: hand-checkable set.
//
//	pos 0: G,  434-..., [10, 50),  $100
//	pos 1: G,  434-..., [20, 90),  $200
//	pos 2: NW, 911-..., [30, 60),  $400
//	pos 3: NG, 434-..., [ 0, 10),  $800
func fixtureRCCs(t *testing.T) []domain.RCC {
	return []domain.RCC{
		{ID: 101, AvailID: 1, Type: domain.Growth, SWLIN: code(t, "434-11-001"), Created: 10, Settled: 50, Amount: 100},
		{ID: 102, AvailID: 1, Type: domain.Growth, SWLIN: code(t, "434-22-001"), Created: 20, Settled: 90, Amount: 200},
		{ID: 103, AvailID: 1, Type: domain.NewWork, SWLIN: code(t, "911-90-001"), Created: 30, Settled: 60, Amount: 400},
		{ID: 104, AvailID: 1, Type: domain.NewGrowth, SWLIN: code(t, "434-33-001"), Created: 0, Settled: 10, Amount: 800},
	}
}

func engine(t *testing.T, kind index.Kind) *Indexed {
	t.Helper()
	e, err := NewIndexed(fixtureAvail(), fixtureRCCs(t), kind)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRetrieveByStatus(t *testing.T) {
	for _, kind := range index.Kinds() {
		e := engine(t, kind)
		// t* = 30% => day 30. Active: pos 0 ([10,50)), 1 ([20,90)), 2 ([30,60)).
		// Settled: pos 3 ([0,10)). Created: all.
		got, err := e.Retrieve(30, Query{Status: domain.Active})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got, []int{0, 1, 2}) {
			t.Errorf("%s: active @30%% = %v, want [0 1 2]", kind, got)
		}
		got, _ = e.Retrieve(30, Query{Status: domain.SettledStatus})
		if !equalInts(got, []int{3}) {
			t.Errorf("%s: settled @30%% = %v, want [3]", kind, got)
		}
		got, _ = e.Retrieve(30, Query{Status: domain.Created})
		if !equalInts(got, []int{0, 1, 2, 3}) {
			t.Errorf("%s: created @30%% = %v, want all", kind, got)
		}
	}
}

func TestRetrieveWithGroupBys(t *testing.T) {
	e := engine(t, index.KindAVL)
	g := domain.Growth
	// Growth + active @ day 30: positions 0, 1.
	got, err := e.Retrieve(30, Query{Type: &g, Status: domain.Active})
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got, []int{0, 1}) {
		t.Errorf("G active = %v, want [0 1]", got)
	}
	// SWLIN subtree 4 + created: positions 0, 1, 3.
	got, _ = e.Retrieve(30, Query{SWLINPrefix: []int{4}, Status: domain.Created})
	if !equalInts(got, []int{0, 1, 3}) {
		t.Errorf("swlin-4 created = %v, want [0 1 3]", got)
	}
	// Combined: Growth in subtree 4, active: 0, 1.
	got, _ = e.Retrieve(30, Query{Type: &g, SWLINPrefix: []int{4}, Status: domain.Active})
	if !equalInts(got, []int{0, 1}) {
		t.Errorf("G+swlin4 active = %v, want [0 1]", got)
	}
	// Deeper prefix 4,3,4,2: only pos 1.
	got, _ = e.Retrieve(30, Query{SWLINPrefix: []int{4, 3, 4, 2}, Status: domain.Created})
	if !equalInts(got, []int{1}) {
		t.Errorf("deep prefix = %v, want [1]", got)
	}
	// Empty subtree.
	got, _ = e.Retrieve(30, Query{SWLINPrefix: []int{7}, Status: domain.Created})
	if len(got) != 0 {
		t.Errorf("empty subtree = %v", got)
	}
}

func TestEvalAggregates(t *testing.T) {
	e := engine(t, index.KindAVL)
	// Active @30%: amounts {100,200,400}, durations {40,70,30}.
	cases := []struct {
		agg  Aggregate
		want float64
	}{
		{Count, 3},
		{SumAmount, 700},
		{AvgAmount, 700.0 / 3},
		{MaxAmount, 400},
		{MinAmount, 100},
		{SumDuration, 140},
		{AvgDuration, 140.0 / 3},
		{MaxDuration, 70},
		{Pct, 0.75},
		{Rate, 0.1}, // 3 / 30%
	}
	for _, c := range cases {
		got, err := e.Eval(30, Query{Status: domain.Active, Agg: c.agg})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v = %f, want %f", c.agg, got, c.want)
		}
	}
	// StdAmount of {100,200,400}: mean 233.33, var = (17777.8+1111.1+27777.8)/3.
	std, _ := e.Eval(30, Query{Status: domain.Active, Agg: StdAmount})
	want := math.Sqrt((100*100+200*200+400*400)/3.0 - (700.0/3)*(700.0/3))
	if math.Abs(std-want) > 1e-9 {
		t.Errorf("StdAmount = %f, want %f", std, want)
	}
}

func TestEvalEmptySetIsZero(t *testing.T) {
	e := engine(t, index.KindAVL)
	for agg := Aggregate(0); agg < NumAggregates; agg++ {
		// Before anything is created (t* negative => day -5).
		got, err := e.Eval(-5, Query{Status: domain.Active, Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("%v on empty set = %f, want 0", agg, got)
		}
	}
}

func TestRateAtZeroFallsBackToCount(t *testing.T) {
	e := engine(t, index.KindAVL)
	got, err := e.Eval(0, Query{Status: domain.Created, Agg: Rate})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 { // only pos 3 created at day 0
		t.Errorf("Rate @0 = %f, want count fallback 1", got)
	}
}

func TestEngineValidation(t *testing.T) {
	wrong := fixtureRCCs(t)
	wrong[0].AvailID = 99
	bad := fixtureRCCs(t)
	bad[1].Settled = bad[1].Created - 1
	for _, c := range []struct {
		name string
		a    *domain.Avail
		rccs []domain.RCC
	}{
		{"nil avail", nil, nil},
		{"zero plan", &domain.Avail{ID: 1, PlanStart: 5, PlanEnd: 5}, nil},
		{"foreign rcc", fixtureAvail(), wrong},
		{"invalid rcc", fixtureAvail(), bad},
	} {
		if _, err := NewEngine(c.a, c.rccs); err == nil {
			t.Errorf("NewEngine, %s: want error", c.name)
		}
		if _, err := NewIndexed(c.a, c.rccs, index.KindAVL); err == nil {
			t.Errorf("NewIndexed, %s: want error", c.name)
		}
	}
	if _, err := NewIndexed(fixtureAvail(), nil, index.Kind("nope")); err == nil {
		t.Error("bad index kind: want error")
	}
	// ApplyRCC refuses what NewEngine refuses and leaves the engine as it was.
	e, err := NewEngine(fixtureAvail(), fixtureRCCs(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyRCC(wrong[0]); err == nil {
		t.Error("ApplyRCC foreign rcc: want error")
	}
	if err := e.ApplyRCC(bad[1]); err == nil {
		t.Error("ApplyRCC invalid rcc: want error")
	}
	if e.NumRCCs() != 4 || len(e.creations) != 4 || len(e.settlements) != 4 {
		t.Errorf("refused ApplyRCC changed the engine: %d rccs, %d/%d events",
			e.NumRCCs(), len(e.creations), len(e.settlements))
	}
}

func TestUnknownStatusErrors(t *testing.T) {
	e := engine(t, index.KindAVL)
	if _, err := e.Retrieve(10, Query{Status: domain.RCCStatus(9)}); err == nil {
		t.Error("unknown status: want error")
	}
}

func TestAllIndexKindsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := &domain.Avail{ID: 7, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 200, ActStart: 0, ActEnd: 260}
	var rccs []domain.RCC
	for i := 0; i < 400; i++ {
		created := domain.Day(rng.Intn(260))
		rccs = append(rccs, domain.RCC{
			ID: i + 1, AvailID: 7,
			Type:    domain.RCCType(rng.Intn(domain.NumRCCTypes)),
			SWLIN:   rng.Intn(100_000_000),
			Created: created,
			Settled: created + domain.Day(rng.Intn(80)),
			Amount:  float64(rng.Intn(100000)),
		})
	}
	engines := map[index.Kind]*Indexed{}
	for _, kind := range index.Kinds() {
		e, err := NewIndexed(a, rccs, kind)
		if err != nil {
			t.Fatal(err)
		}
		engines[kind] = e
	}
	g := domain.Growth
	queries := []Query{
		{Status: domain.Active, Agg: Count},
		{Status: domain.SettledStatus, Agg: SumAmount},
		{Status: domain.Created, Agg: AvgDuration},
		{Type: &g, Status: domain.Active, Agg: SumAmount},
		{SWLINPrefix: []int{3}, Status: domain.Created, Agg: Count},
		{Type: &g, SWLINPrefix: []int{5}, Status: domain.SettledStatus, Agg: MaxAmount},
	}
	for ts := 0.0; ts <= 130; ts += 10 {
		for qi, q := range queries {
			ref, err := engines[index.KindNaive].Eval(ts, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []index.Kind{index.KindAVL, index.KindInterval} {
				got, err := engines[kind].Eval(ts, q)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-ref) > 1e-9 {
					t.Fatalf("query %d @%g: %s = %f, naive = %f", qi, ts, kind, got, ref)
				}
			}
		}
	}
}

func TestAggregateString(t *testing.T) {
	if Count.String() != "COUNT" || AvgAmount.String() != "AVG_SETTLED_AMT" {
		t.Error("aggregate names wrong")
	}
	if Aggregate(99).String() == "" {
		t.Error("out-of-range aggregate should still print")
	}
}

func equalInts(a, b []int) bool {
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

// TestNewEngineAllocsConstant pins what a serving engine holds: its RCCs
// and two event orders, a fixed number of allocations whatever the RCC
// count. A per-RCC structure (an index node, a trie entry) would make the
// count grow with n.
func TestNewEngineAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		a, rccs, _ := benchIngestFixture(n)
		return testing.AllocsPerRun(10, func() {
			if _, err := NewEngine(a, rccs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(260), allocs(4000)
	if large > small {
		t.Errorf("NewEngine allocations grow with n: %v at 260 RCCs, %v at 4000", small, large)
	}
}
