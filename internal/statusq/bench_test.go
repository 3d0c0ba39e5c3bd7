package statusq

import (
	"fmt"
	"math/rand"
	"testing"

	"domd/internal/domain"
	"domd/internal/navsim"
)

// The ingest benchmarks compare the two ways a serving process could absorb
// a freshly ingested RCC and then answer a warm-avail query: folding it
// into the live engine (Engine.ApplyRCC, the one path a catalog takes)
// versus rebuilding the engine over the extended history. Sizes start at the README
// scalability fixture's ≥1k RCCs per avail, where the rebuild cost
// dominates post-ingest query latency.

// benchIngestFixture builds one ongoing avail with n RCCs drawn by the same
// generator the differential suite uses.
func benchIngestFixture(n int) (*domain.Avail, []domain.RCC, *rand.Rand) {
	a := &domain.Avail{ID: 1, ShipID: 1, Status: domain.StatusOngoing, PlanStart: 0, PlanEnd: 400, ActStart: 0}
	rng := rand.New(rand.NewSource(41))
	rccs := make([]domain.RCC, 0, n)
	for i := 0; i < n; i++ {
		rccs = append(rccs, randRCC(rng, a, i))
	}
	return a, rccs, rng
}

// benchSink keeps the benchmarked answers live.
var benchSink float64

// benchAnswer is the warm query both ingest benchmarks answer after every
// ingest, so they time the identical "ingest one RCC, answer one query"
// unit of work: a sweep taken from eng, advanced to t* = 60, read at the
// whole-ship Active cell — what a served feature vector reads.
func benchAnswer(b *testing.B, eng *Engine) {
	sw := eng.Sweep()
	defer sw.Release()
	if err := sw.AdvanceTo(60); err != nil {
		b.Fatal(err)
	}
	benchSink = sw.Grids().Grid(domain.Active).At(-1, -1).SumAmount
}

// BenchmarkApplyRCC times the incremental path: one Engine.ApplyRCC fold
// plus one query against the still-warm engine.
func BenchmarkApplyRCC(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a, rccs, rng := benchIngestFixture(n)
			eng, err := NewEngine(a, rccs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.ApplyRCC(randRCC(rng, a, n+i)); err != nil {
					b.Fatal(err)
				}
				benchAnswer(b, eng)
			}
		})
	}
}

// BenchmarkRebuildAfterIngest times the path the incremental design
// replaces: append to the history, rebuild the engine from scratch,
// answer the same query.
func BenchmarkRebuildAfterIngest(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a, rccs, rng := benchIngestFixture(n)
			history := append([]domain.RCC(nil), rccs...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				history = append(history, randRCC(rng, a, n+i))
				eng, err := NewEngine(a, history)
				if err != nil {
					b.Fatal(err)
				}
				benchAnswer(b, eng)
			}
		})
	}
}

// BenchmarkNewEngine times one serving-engine build, what a catalog pays
// per avail when it opens: validation and the two event-order sorts.
// n = 260 is a fleet-scan-sized history.
func BenchmarkNewEngine(b *testing.B) {
	for _, n := range []int{260, 1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a, rccs, _ := benchIngestFixture(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewEngine(a, rccs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNewCatalog times opening a catalog at the domdbench fleet's
// scale (navsim seed 1: 187 closed avails of ~283 RCCs and the
// fleet-scan workload's 48 ongoing ones): grouping the RCCs by avail and
// building every avail's engine up front.
func BenchmarkNewCatalog(b *testing.B) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 187, NumOngoing: 48, MeanRCCsPerAvail: 283, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCatalog(ds.Avails, ds.RCCs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.RCCs)), "rccs")
}
