package statusq

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/swlin"
)

// randomAvailRCCs builds a random avail and RCC set for differential tests.
// Some RCCs settle instantly (Created == Settled), some never overlap the
// plan window, and amounts include exact duplicates to exercise min/max
// tie-breaking.
func randomAvailRCCs(seed int64, n int) (*domain.Avail, []domain.RCC) {
	rng := rand.New(rand.NewSource(seed))
	a := &domain.Avail{ID: 7, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 150, ActStart: 0, ActEnd: 200}
	rccs := make([]domain.RCC, n)
	for i := range rccs {
		created := domain.Day(rng.Intn(220))
		dur := domain.Day(rng.Intn(80))
		if rng.Intn(10) == 0 {
			dur = 0 // same-day settlement
		}
		amount := float64(rng.Intn(50)) * 100.5 // deliberate duplicates
		rccs[i] = domain.RCC{
			ID: i + 1, AvailID: 7,
			Type:    domain.RCCType(rng.Intn(domain.NumRCCTypes)),
			SWLIN:   rng.Intn(100_000_000),
			Created: created,
			Settled: created + dur,
			Amount:  amount,
		}
	}
	return a, rccs
}

// TestCellSweepMatchesScratchBitwise advances a sweep over an ascending
// grid and checks every cell (concrete and margin) of every status class is
// bitwise-equal to the from-scratch grid fill at the same timestamp —
// including the ts=0 and ts=100 boundaries, timestamps where whole groups
// are settled, and empty windows (consecutive grid points with no events).
func TestCellSweepMatchesScratchBitwise(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a, rccs := randomAvailRCCs(seed, 300)
		sw, err := NewCellSweep(a, rccs)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewIndexed(a, rccs, index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		// 0.5-percent spacing yields many empty windows on 300 RCCs.
		var scratch GridSet
		for ts := 0.0; ts <= 100; ts += 0.5 {
			if err := sw.AdvanceTo(ts); err != nil {
				t.Fatal(err)
			}
			if err := eng.CellGridsAt(ts, &scratch); err != nil {
				t.Fatal(err)
			}
			got := sw.Grids()
			for st := domain.RCCStatus(0); st < domain.NumRCCStatuses; st++ {
				for ti := 0; ti <= TypeAll; ti++ {
					for si := 0; si <= SubsystemAll; si++ {
						if got[st][ti][si] != scratch[st][ti][si] {
							t.Fatalf("seed %d ts=%g status=%v cell[%d][%d]: sweep %+v != scratch %+v",
								seed, ts, st, ti, si, got[st][ti][si], scratch[st][ti][si])
						}
					}
				}
			}
			if sw.CreatedCount() != eng.CreatedCount(ts) {
				t.Fatalf("seed %d ts=%g: created count %d != %d", seed, ts, sw.CreatedCount(), eng.CreatedCount(ts))
			}
		}
	}
}

// TestCellSweepAllSettled checks the Active min/max edge case where every
// group has fully settled: all Active cells must be zero-valued, and the
// Settled grid must equal the Created grid.
func TestCellSweepAllSettled(t *testing.T) {
	a, rccs := randomAvailRCCs(4, 120)
	// Clamp all settlements inside the plan so everything settles by 100%.
	for i := range rccs {
		if rccs[i].Created > 60 {
			rccs[i].Created = domain.Day(int(rccs[i].Created) % 60)
		}
		rccs[i].Settled = rccs[i].Created + domain.Day(i%20)
	}
	sw, err := NewCellSweep(a, rccs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	gs := sw.Grids()
	var zero CellStats
	for ti := 0; ti <= TypeAll; ti++ {
		for si := 0; si <= SubsystemAll; si++ {
			if gs[domain.Active][ti][si] != zero {
				t.Fatalf("active cell [%d][%d] not empty after full settlement: %+v", ti, si, gs[domain.Active][ti][si])
			}
			if gs[domain.SettledStatus][ti][si] != gs[domain.Created][ti][si] {
				t.Fatalf("settled != created at cell [%d][%d] after full settlement", ti, si)
			}
		}
	}
}

// TestCellSweepBackwardsAndReset checks forward-only enforcement and that
// Reset rewinds to a reusable pristine state.
func TestCellSweepBackwardsAndReset(t *testing.T) {
	a, rccs := randomAvailRCCs(5, 50)
	sw, err := NewCellSweep(a, rccs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AdvanceTo(60); err != nil {
		t.Fatal(err)
	}
	if err := sw.AdvanceTo(30); err == nil {
		t.Fatal("backwards advance must error")
	}
	want := *sw.Grids() // snapshot at 60
	sw.Reset()
	if got := sw.Grids().CreatedCount(); got != 0 {
		t.Fatalf("created count after Reset = %d", got)
	}
	if err := sw.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if err := sw.AdvanceTo(60); err != nil {
		t.Fatal(err)
	}
	if *sw.Grids() != want {
		t.Fatal("replay after Reset diverged from the direct advance")
	}
}

// TestCellSweepMatchesFixture reads hand-computed §4.3 aggregates off the
// sweep's grids at t* = 30 on the four-RCC fixture.
func TestCellSweepMatchesFixture(t *testing.T) {
	sw, err := NewCellSweep(fixtureAvail(), fixtureRCCs(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AdvanceTo(30); err != nil { // day 30
		t.Fatal(err)
	}
	active, settled := sw.Grids().Grid(domain.Active), sw.Grids().Grid(domain.SettledStatus)
	all, allSettled := active.At(-1, -1), settled.At(-1, -1)
	if all.Count != 3 || allSettled.Count != 1 {
		t.Errorf("@30%%: active %d settled %d, want 3/1", all.Count, allSettled.Count)
	}
	if math.Abs(all.SumAmount-700) > 1e-9 {
		t.Errorf("active sum = %f, want 700", all.SumAmount)
	}
	if math.Abs(allSettled.SumAmount-800) > 1e-9 {
		t.Errorf("settled sum = %f, want 800", allSettled.SumAmount)
	}
	if math.Abs(allSettled.SumDuration-10) > 1e-9 {
		t.Errorf("settled duration = %f, want 10", allSettled.SumDuration)
	}
	if sw.CreatedCount() != 4 {
		t.Errorf("created = %d, want 4", sw.CreatedCount())
	}

	g := int(domain.Growth)
	if a, st := active.At(g, -1).Count, settled.At(g, -1).Count; a != 2 || st != 0 {
		t.Errorf("growth: active %d settled %d, want 2/0", a, st)
	}
	if a, st := active.At(-1, 4).Count, settled.At(-1, 4).Count; a != 2 || st != 1 {
		t.Errorf("subsystem 4: active %d settled %d, want 2/1", a, st)
	}
	if cell := active.At(int(domain.NewWork), 9); cell.Count != 1 || cell.SumAmount != 400 {
		t.Errorf("NW/9 cell: %+v", *cell)
	}
	for st := domain.RCCStatus(0); st < domain.NumRCCStatuses; st++ {
		if z := sw.Grids().Grid(st).At(g, 7); *z != (CellStats{}) {
			t.Errorf("absent cell G/7 in status %d should be zero: %+v", st, *z)
		}
	}
}

// TestIncrementalMatchesDirect sweeps random data over the logical timeline
// and cross-checks the sweep's additive aggregates against the index-based
// engine, at every step and for every type × subsystem filter, ALL margins
// included.
func TestIncrementalMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := &domain.Avail{ID: 3, Status: domain.StatusClosed,
		PlanStart: 100, PlanEnd: 400, ActStart: 110, ActEnd: 520}
	var rccs []domain.RCC
	for i := 0; i < 500; i++ {
		created := a.ActStart + domain.Day(rng.Intn(400))
		sub := rng.Intn(10)
		code, err := swlin.FromParts(sub*100+11, 11, 1+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		rccs = append(rccs, domain.RCC{
			ID: i + 1, AvailID: 3,
			Type:    domain.RCCType(rng.Intn(domain.NumRCCTypes)),
			SWLIN:   int(code),
			Created: created,
			Settled: created + domain.Day(rng.Intn(150)),
			Amount:  10 + float64(rng.Intn(50000)),
		})
	}
	e, err := NewIndexed(a, rccs, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewCellSweep(a, rccs)
	if err != nil {
		t.Fatal(err)
	}
	for ts := 0.0; ts <= 140; ts += 7 {
		if err := sw.AdvanceTo(ts); err != nil {
			t.Fatal(err)
		}
		active, settled := sw.Grids().Grid(domain.Active), sw.Grids().Grid(domain.SettledStatus)
		for typ := -1; typ < domain.NumRCCTypes; typ++ {
			var qTyp *domain.RCCType
			if typ >= 0 {
				tv := domain.RCCType(typ)
				qTyp = &tv
			}
			for sub := -1; sub < NumSubsystems; sub++ {
				var prefix []int
				if sub >= 0 {
					prefix = []int{sub}
				}
				act, set := active.At(typ, sub), settled.At(typ, sub)
				activeCount, err := e.Eval(ts, Query{Type: qTyp, SWLINPrefix: prefix, Status: domain.Active, Agg: Count})
				if err != nil {
					t.Fatal(err)
				}
				if float64(act.Count) != activeCount {
					t.Fatalf("ts=%g typ=%d sub=%d: active count sweep=%d direct=%f", ts, typ, sub, act.Count, activeCount)
				}
				settledSum, _ := e.Eval(ts, Query{Type: qTyp, SWLINPrefix: prefix, Status: domain.SettledStatus, Agg: SumAmount})
				if math.Abs(set.SumAmount-settledSum) > 1e-6 {
					t.Fatalf("ts=%g typ=%d sub=%d: settled sum sweep=%f direct=%f", ts, typ, sub, set.SumAmount, settledSum)
				}
				activeSum, _ := e.Eval(ts, Query{Type: qTyp, SWLINPrefix: prefix, Status: domain.Active, Agg: SumAmount})
				if math.Abs(act.SumAmount-activeSum) > 1e-6 {
					t.Fatalf("ts=%g typ=%d sub=%d: active sum sweep=%f direct=%f", ts, typ, sub, act.SumAmount, activeSum)
				}
				settledDur, _ := e.Eval(ts, Query{Type: qTyp, SWLINPrefix: prefix, Status: domain.SettledStatus, Agg: SumDuration})
				if math.Abs(set.SumDuration-settledDur) > 1e-6 {
					t.Fatalf("ts=%g typ=%d sub=%d: settled dur sweep=%f direct=%f", ts, typ, sub, set.SumDuration, settledDur)
				}
			}
		}
	}
}

// TestCellSweepEmptyRCCs checks the degenerate no-events sweep.
func TestCellSweepEmptyRCCs(t *testing.T) {
	a := &domain.Avail{ID: 1, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 100, ActStart: 0, ActEnd: 100}
	sw, err := NewCellSweep(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []float64{0, 50, 100} {
		if err := sw.AdvanceTo(ts); err != nil {
			t.Fatal(err)
		}
		if sw.CreatedCount() != 0 {
			t.Fatalf("empty sweep created count %d at ts=%g", sw.CreatedCount(), ts)
		}
	}
}

// TestCellSweepValidation mirrors the engine's construction checks.
func TestCellSweepValidation(t *testing.T) {
	if _, err := NewCellSweep(nil, nil); err == nil {
		t.Error("nil avail: want error")
	}
	flat := &domain.Avail{ID: 2, PlanStart: 5, PlanEnd: 5}
	if _, err := NewCellSweep(flat, nil); err == nil {
		t.Error("zero-duration plan: want error")
	}
	a := &domain.Avail{ID: 3, Status: domain.StatusClosed, PlanStart: 0, PlanEnd: 10, ActStart: 0, ActEnd: 10}
	stray := []domain.RCC{{ID: 9, AvailID: 99, Created: 1, Settled: 2}}
	if _, err := NewCellSweep(a, stray); err == nil {
		t.Error("foreign-avail RCC: want error")
	}
	bad := []domain.RCC{{ID: 9, AvailID: 3, Created: 5, Settled: 2}}
	if _, err := NewCellSweep(a, bad); err == nil {
		t.Error("settled-before-created RCC: want error")
	}
}

// intersectMap is the hash-set intersection (membership map plus output
// sort) that Indexed.intersectMerge replaced: the oracle the merge is held
// to. It keeps the candidates in timeSet, of type typ when typ is set.
func intersectMap(rccs []domain.RCC, candidates, timeSet []int, typ *domain.RCCType) []int {
	member := make(map[int]bool, len(timeSet))
	for _, p := range timeSet {
		member[p] = true
	}
	var out []int
	for _, p := range candidates {
		if !member[p] {
			continue
		}
		if typ != nil && rccs[p].Type != *typ {
			continue
		}
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// TestRetrieveMergeMatchesMap differentially tests the linear
// merge-intersection retrieval against the hash-set oracle intersectMap on
// randomized data, across status classes and group-by selections.
func TestRetrieveMergeMatchesMap(t *testing.T) {
	for _, seed := range []int64{10, 11, 12} {
		a, rccs := randomAvailRCCs(seed, 250)
		eng, err := NewIndexed(a, rccs, index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 60; trial++ {
			ts := rng.Float64() * 110
			st := domain.RCCStatus(rng.Intn(domain.NumRCCStatuses))
			q := Query{Status: st}
			if rng.Intn(2) == 0 {
				typ := domain.RCCType(rng.Intn(domain.NumRCCTypes))
				q.Type = &typ
			}
			if rng.Intn(2) == 0 {
				q.SWLINPrefix = []int{rng.Intn(10)}
			}
			got, err := eng.Retrieve(ts, q)
			if err != nil {
				t.Fatal(err)
			}
			timeSet, err := eng.statusSet(ts, q.Status)
			if err != nil {
				t.Fatal(err)
			}
			var candidates []int
			switch {
			case q.Type == nil && q.SWLINPrefix == nil:
				candidates = timeSet
			case q.SWLINPrefix == nil:
				candidates = eng.typeGroups[*q.Type]
			default:
				candidates = eng.swlinTree.Group(q.SWLINPrefix)
			}
			want := intersectMap(eng.rccs, candidates, timeSet, q.Type)
			if len(got) != len(want) {
				t.Fatalf("seed %d trial %d: merge %v != map %v (q=%+v ts=%g)", seed, trial, got, want, q, ts)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d trial %d pos %d: merge %v != map %v", seed, trial, i, got, want)
				}
			}
		}
	}
}

// TestConcurrentSweepDuringApply is the -race gate for Engine.Sweep: sweeps
// are taken and advanced across the grid while ApplyRCC folds an
// out-of-order stream into the same engine. Each sweep must stay a
// consistent snapshot — its grids equal CellGridsAt on an index engine over
// exactly the RCC prefix it captured.
func TestConcurrentSweepDuringApply(t *testing.T) {
	a, rccs := randomAvailRCCs(11, 600)
	const base = 100
	eng, err := NewEngine(a, append([]domain.RCC(nil), rccs[:base]...))
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0, 15, 30, 45, 60, 75, 90, 100, 130}
	var wg sync.WaitGroup
	var once sync.Once
	first, done := make(chan struct{}), make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		<-first // start applying only once a sweep holds the engine's orders
		for _, r := range rccs[base:] {
			if err := eng.ApplyRCC(r); err != nil {
				t.Errorf("ApplyRCC(%d): %v", r.ID, err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sw := eng.Sweep()
				once.Do(func() { close(first) })
				got := make([]GridSet, len(grid))
				for k, ts := range grid {
					if err := sw.AdvanceTo(ts); err != nil {
						t.Errorf("AdvanceTo(%g): %v", ts, err)
						return
					}
					got[k] = *sw.Grids()
				}
				n := sw.NumRCCs()
				scratch, err := NewIndexed(a, rccs[:n:n], index.KindAVL)
				if err != nil {
					t.Errorf("rebuild over %d rccs: %v", n, err)
					return
				}
				var want GridSet
				for k, ts := range grid {
					if err := scratch.CellGridsAt(ts, &want); err != nil {
						t.Errorf("CellGridsAt(%g): %v", ts, err)
						return
					}
					if got[k] != want {
						t.Errorf("sweep over %d rccs diverges from CellGridsAt at ts=%g", n, ts)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecycledSweepMatchesScratch takes sweeps from engines of shrinking
// and growing RCC counts, releasing each after a full pass, so later
// sweeps reuse the grids and link arrays earlier ones dirtied (through the
// pool, and once directly). Every pass must match the scratch grid fill
// bitwise.
func TestRecycledSweepMatchesScratch(t *testing.T) {
	check := func(sw *CellSweep, ix *Indexed, label string) {
		t.Helper()
		var scratch GridSet
		for ts := 0.0; ts <= 100; ts += 2.5 {
			if err := sw.AdvanceTo(ts); err != nil {
				t.Fatal(err)
			}
			if err := ix.CellGridsAt(ts, &scratch); err != nil {
				t.Fatal(err)
			}
			if *sw.Grids() != scratch {
				t.Fatalf("%s ts=%g: recycled sweep differs from the scratch grids", label, ts)
			}
		}
	}
	var dirty *CellSweep
	for i, n := range []int{300, 20, 0, 150, 400} {
		a, rccs := randomAvailRCCs(int64(10+i), n)
		eng, err := NewEngine(a, rccs)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewIndexed(a, rccs, index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		sw := eng.Sweep()
		check(sw, ix, "pooled")
		if dirty != nil {
			dirty.init(eng.avail, eng.rccs, eng.creations, eng.settlements)
			check(dirty, ix, "reinitialized")
		}
		dirty = sw
		sw.Release()
		if sw.rccs != nil || sw.creations != nil || sw.settlements != nil || sw.avail != nil {
			t.Fatal("Release kept references to the engine's state")
		}
	}
}
