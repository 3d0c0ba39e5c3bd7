package statusq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"domd/internal/domain"
	"domd/internal/index"
)

// randomCells builds a CellStats from n random RCC-like observations plus
// the raw observations for oracle checks.
func randomCells(rng *rand.Rand, n int) (CellStats, []float64, []float64) {
	var c CellStats
	amounts := make([]float64, n)
	durs := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Float64() * 1e5
		d := float64(rng.Intn(200))
		amounts[i], durs[i] = a, d
		if c.Count == 0 {
			c.MinAmount, c.MaxAmount, c.MaxDuration = a, a, d
		} else {
			c.MinAmount = math.Min(c.MinAmount, a)
			c.MaxAmount = math.Max(c.MaxAmount, a)
			c.MaxDuration = math.Max(c.MaxDuration, d)
		}
		c.Count++
		c.SumAmount += a
		c.SumSqAmount += a * a
		c.SumDuration += d
	}
	return c, amounts, durs
}

// TestQuickCellMergeEquivalence: merging two cells must equal building one
// cell from the concatenated observations.
func TestQuickCellMergeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := rng.Intn(20), rng.Intn(20)
		c1, a1, d1 := randomCells(rng, n1)
		c2, a2, d2 := randomCells(rng, n2)
		merged := c1.Merge(c2)

		var whole CellStats
		for i, a := range append(append([]float64(nil), a1...), a2...) {
			d := append(append([]float64(nil), d1...), d2...)[i]
			if whole.Count == 0 {
				whole.MinAmount, whole.MaxAmount, whole.MaxDuration = a, a, d
			} else {
				whole.MinAmount = math.Min(whole.MinAmount, a)
				whole.MaxAmount = math.Max(whole.MaxAmount, a)
				whole.MaxDuration = math.Max(whole.MaxDuration, d)
			}
			whole.Count++
			whole.SumAmount += a
			whole.SumSqAmount += a * a
			whole.SumDuration += d
		}
		eq := func(x, y float64) bool { return math.Abs(x-y) <= 1e-6*(1+math.Abs(x)) }
		return merged.Count == whole.Count &&
			eq(merged.SumAmount, whole.SumAmount) &&
			eq(merged.SumSqAmount, whole.SumSqAmount) &&
			eq(merged.MinAmount, whole.MinAmount) &&
			eq(merged.MaxAmount, whole.MaxAmount) &&
			eq(merged.SumDuration, whole.SumDuration) &&
			eq(merged.MaxDuration, whole.MaxDuration)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCellMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, _, _ := randomCells(rng, 7)
	var zero CellStats
	if got := c.Merge(zero); got != c {
		t.Error("merge with empty must be identity")
	}
	if got := zero.Merge(c); got != c {
		t.Error("empty merge must be identity")
	}
	// The max/min fold agrees with math.Max and math.Min on the two zeros
	// and the infinities, bit for bit. Any NaN makes it NaN, which math.Max
	// and math.Min also answer except beside +Inf (Max) or -Inf (Min).
	same := func(got, want float64) bool {
		if math.IsNaN(want) {
			return math.IsNaN(got)
		}
		return math.Float64bits(got) == math.Float64bits(want)
	}
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1}
	for _, x := range special {
		for _, y := range special {
			wantMax, wantMin := math.Max(x, y), math.Min(x, y)
			if math.IsNaN(x) || math.IsNaN(y) {
				wantMax, wantMin = math.NaN(), math.NaN()
			}
			cx := CellStats{Count: 1, MaxAmount: x, MinAmount: x, MaxDuration: x}
			cy := CellStats{Count: 1, MaxAmount: y, MinAmount: y, MaxDuration: y}
			m := cx.Merge(cy)
			if !same(m.MaxAmount, wantMax) || !same(m.MinAmount, wantMin) || !same(m.MaxDuration, wantMax) {
				t.Errorf("merge(%v, %v): max %v min %v maxdur %v, want %v %v %v",
					x, y, m.MaxAmount, m.MinAmount, m.MaxDuration, wantMax, wantMin, wantMax)
			}
		}
	}
}

// TestCellStatsAtMatchesEval cross-checks the batched cell path against the
// per-query Eval path for every aggregate on random data.
func TestCellStatsAtMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := &domain.Avail{ID: 5, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 150, ActStart: 0, ActEnd: 200}
	var rccs []domain.RCC
	for i := 0; i < 250; i++ {
		created := domain.Day(rng.Intn(200))
		rccs = append(rccs, domain.RCC{
			ID: i + 1, AvailID: 5,
			Type:    domain.RCCType(rng.Intn(domain.NumRCCTypes)),
			SWLIN:   rng.Intn(100_000_000),
			Created: created,
			Settled: created + domain.Day(rng.Intn(60)),
			Amount:  rng.Float64() * 1e5,
		})
	}
	e, err := NewIndexed(a, rccs, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []float64{0, 25, 60, 110} {
		for _, st := range []domain.RCCStatus{domain.Active, domain.SettledStatus, domain.Created} {
			cells, err := e.CellStatsAt(ts, st)
			if err != nil {
				t.Fatal(err)
			}
			var all CellStats
			for _, c := range cells {
				all = all.Merge(c)
			}
			created := e.CreatedCount(ts)
			for agg := Aggregate(0); agg < NumAggregates; agg++ {
				want, err := e.Eval(ts, Query{Status: st, Agg: agg})
				if err != nil {
					t.Fatal(err)
				}
				got := all.Aggregate(agg, created, ts)
				if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
					t.Fatalf("ts=%g status=%v agg=%v: cells %f vs eval %f", ts, st, agg, got, want)
				}
			}
		}
	}
}
