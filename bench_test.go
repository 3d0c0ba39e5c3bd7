// Package domd's root benchmark suite regenerates every table and figure of
// the paper's evaluation as a testing.B benchmark (see DESIGN.md §4 for the
// experiment index). Data generation and feature extraction are performed
// once per input size and cached; each benchmark iteration measures only the
// work the corresponding artifact reports.
//
// Benchmark inputs are scaled down from the paper's full workload so the
// whole suite completes in minutes; `cmd/experiments` runs the full-size
// versions.
package domd_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/experiments"
	"domd/internal/featsel"
	"domd/internal/features"
	"domd/internal/fusion"
	"domd/internal/index"
	"domd/internal/ml/gbt"
	"domd/internal/ml/linear"
	"domd/internal/ml/loss"
	"domd/internal/navsim"
	"domd/internal/stats"
	"domd/internal/statusq"
)

// --- cached fixtures -------------------------------------------------------

var (
	dataOnce sync.Once
	baseData *navsim.Dataset

	workloadOnce sync.Once
	workload     *experiments.Workload
)

// benchData is the scalability base dataset (1x ≈ 8k RCCs).
func benchData(b *testing.B) *navsim.Dataset {
	b.Helper()
	dataOnce.Do(func() {
		ds, err := navsim.Generate(navsim.Config{
			NumClosed: 80, NumOngoing: 4, MeanRCCsPerAvail: 100, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		baseData = ds
	})
	return baseData
}

// benchWorkload is the modeling workload (tensor + splits).
func benchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	workloadOnce.Do(func() {
		w, err := experiments.NewWorkload(navsim.Config{
			NumClosed: 60, NumOngoing: 0, MeanRCCsPerAvail: 80, Seed: 1,
		}, 20)
		if err != nil {
			b.Fatal(err)
		}
		p := gbt.DefaultParams()
		p.NumRounds = 25
		p.LearningRate = 0.2
		w.DesignGBT = p
		w.Runs = 1 // single split redraw: benches time one run
		workload = w
	})
	return workload
}

func trainCurve(b *testing.B, cfg core.Config) []float64 {
	b.Helper()
	w := benchWorkload(b)
	p, err := core.Train(cfg, w.Tensor, w.Splits.Train, w.Splits.Val)
	if err != nil {
		b.Fatal(err)
	}
	reports, err := p.EvaluateRows(w.Tensor, w.Splits.Val)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(reports))
	for i, r := range reports {
		out[i] = r.MAE
	}
	return out
}

func baselineCfg(b *testing.B) core.Config {
	w := benchWorkload(b)
	cfg := core.BaselineConfig()
	cfg.GBTParams = &w.DesignGBT
	return cfg
}

// --- Fig. 2 / Table 5: dataset --------------------------------------------

func BenchmarkFig2DelayDistribution(b *testing.B) {
	ds := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delays := ds.Delays()
		if _, _, err := stats.Histogram(delays, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5DatasetStats(b *testing.B) {
	ds := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiments.Table5(ds)
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Fig. 5a / Table 6: index creation ------------------------------------

// scaledIntervals caches the logical-interval projection per scale factor.
var (
	scaledMu  sync.Mutex
	scaledIvs = map[int][]experiments.LogicalInterval{}
)

func intervalsAt(b *testing.B, factor int) []experiments.LogicalInterval {
	b.Helper()
	scaledMu.Lock()
	defer scaledMu.Unlock()
	if ivs, ok := scaledIvs[factor]; ok {
		return ivs
	}
	ds, err := navsim.Scale(benchData(b), factor)
	if err != nil {
		b.Fatal(err)
	}
	ivs := experiments.ProjectLogical(ds)
	scaledIvs[factor] = ivs
	return ivs
}

func rawIntervals(ivs []experiments.LogicalInterval) []index.Interval {
	raw := make([]index.Interval, len(ivs))
	for i := range ivs {
		raw[i] = ivs[i].Interval
	}
	return raw
}

func benchCreation(b *testing.B, kind index.Kind, factor int) {
	raw := rawIntervals(intervalsAt(b, factor))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(kind, raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aIndexCreation(b *testing.B) {
	for _, factor := range []int{1, 5, 10} {
		for _, kind := range index.Kinds() {
			b.Run(fmt.Sprintf("%s/%dx", kind, factor), func(b *testing.B) {
				benchCreation(b, kind, factor)
			})
		}
	}
}

func BenchmarkTable6IndexMemory(b *testing.B) {
	for _, kind := range index.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			raw := rawIntervals(intervalsAt(b, 5))
			var mem int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := index.Build(kind, raw)
				if err != nil {
					b.Fatal(err)
				}
				mem = idx.MemoryBytes()
			}
			b.ReportMetric(float64(mem)/(1<<20), "MB")
		})
	}
}

// --- Fig. 5b / 5c: query processing ----------------------------------------

func builtIndex(b *testing.B, kind index.Kind, factor int) index.TimeIndex {
	b.Helper()
	idx, err := index.Build(kind, rawIntervals(intervalsAt(b, factor)))
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

func BenchmarkFig5bQueryProcessing(b *testing.B) {
	const factor = 5
	ivs := intervalsAt(b, factor)
	for _, kind := range index.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			idx := builtIndex(b, kind, factor)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if kind == index.KindAVL {
					experiments.SweepIncremental(idx, ivs, 10)
				} else {
					experiments.SweepScratch(idx, ivs, 10)
				}
			}
		})
	}
}

func BenchmarkFig5cTotalTime(b *testing.B) {
	const factor = 5
	ivs := intervalsAt(b, factor)
	for _, kind := range index.Kinds() {
		b.Run(string(kind), func(b *testing.B) {
			raw := rawIntervals(ivs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := index.Build(kind, raw)
				if err != nil {
					b.Fatal(err)
				}
				if kind == index.KindAVL {
					experiments.SweepIncremental(idx, ivs, 10)
				} else {
					experiments.SweepScratch(idx, ivs, 10)
				}
			}
		})
	}
}

// --- Fig. 6a: feature selection --------------------------------------------

func BenchmarkFig6aFeatureSelection(b *testing.B) {
	w := benchWorkload(b)
	slice := w.Tensor.Slices[len(w.Tensor.Slices)/2].Subset(w.Splits.Train)
	dynCols := make([]int, slice.NumCols()-features.NumStatic)
	for j := range dynCols {
		dynCols[j] = features.NumStatic + j
	}
	dyn := slice.Select(dynCols)
	selectors := map[string]featsel.Selector{
		featsel.MethodPearson:  featsel.Pearson{},
		featsel.MethodSpearman: featsel.Spearman{},
		featsel.MethodMutual:   featsel.MutualInfo{Bins: 8},
		featsel.MethodRandom:   &featsel.Random{Seed: 1},
	}
	for name, sel := range selectors {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(dyn, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run(featsel.MethodRFE, func(b *testing.B) {
		p := gbt.DefaultParams()
		p.NumRounds = 10
		p.MaxDepth = 3
		sel := &featsel.RFE{Trainer: gbt.NewTrainer(p, nil), Step: 0.5}
		for i := 0; i < b.N; i++ {
			if _, err := sel.Select(dyn, 60); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Fig. 6b: base model families ------------------------------------------

func BenchmarkFig6bBaseModel(b *testing.B) {
	b.Run("xgboost", func(b *testing.B) {
		cfg := baselineCfg(b)
		for i := 0; i < b.N; i++ {
			trainCurve(b, cfg)
		}
	})
	b.Run("elasticnet", func(b *testing.B) {
		cfg := baselineCfg(b)
		cfg.Family = core.FamilyElasticNet
		for i := 0; i < b.N; i++ {
			trainCurve(b, cfg)
		}
	})
}

// --- Fig. 6c: stacking -------------------------------------------------------

func BenchmarkFig6cStacking(b *testing.B) {
	for _, stacked := range []bool{false, true} {
		name := "non-stacked"
		if stacked {
			name = "stacked"
		}
		b.Run(name, func(b *testing.B) {
			cfg := baselineCfg(b)
			cfg.Stacked = stacked
			for i := 0; i < b.N; i++ {
				trainCurve(b, cfg)
			}
		})
	}
}

// --- Fig. 6d: loss functions -------------------------------------------------

func BenchmarkFig6dLoss(b *testing.B) {
	for _, l := range []string{"l2", "l1", "pseudohuber"} {
		b.Run(l, func(b *testing.B) {
			cfg := baselineCfg(b)
			cfg.Loss = l
			if l == "pseudohuber" {
				cfg.LossDelta = loss.PaperDelta
			}
			for i := 0; i < b.N; i++ {
				trainCurve(b, cfg)
			}
		})
	}
}

// --- Fig. 6e: HPT trials -------------------------------------------------------

func BenchmarkFig6eHPTTrials(b *testing.B) {
	for _, trials := range []int{10, 30} {
		b.Run(fmt.Sprintf("trials=%d", trials), func(b *testing.B) {
			cfg := baselineCfg(b)
			cfg.HPTTrials = trials
			cfg.HPTMethod = "tpe"
			for i := 0; i < b.N; i++ {
				trainCurve(b, cfg)
			}
		})
	}
}

// --- Fig. 6f: fusion -----------------------------------------------------------

func BenchmarkFig6fFusion(b *testing.B) {
	for _, f := range fusion.Methods() {
		b.Run(f, func(b *testing.B) {
			cfg := baselineCfg(b)
			cfg.Fusion = f
			for i := 0; i < b.N; i++ {
				trainCurve(b, cfg)
			}
		})
	}
}

// --- Table 7: final test evaluation ---------------------------------------------

func BenchmarkTable7TestEvaluation(b *testing.B) {
	w := benchWorkload(b)
	cfg := core.DefaultConfig()
	cfg.HPTTrials = 0
	cfg.GBTParams = &w.DesignGBT
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table7(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- supporting micro-benchmarks (substrate costs) ------------------------------

func BenchmarkFeatureExtractionPerAvailTimestamp(b *testing.B) {
	ds := benchData(b)
	ext := features.NewExtractor()
	a := &ds.Avails[0]
	ix, err := statusq.NewIndexed(a, ds.RCCsByAvail()[a.ID], index.KindAVL)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, ext.NumDynamic())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ext.DynamicVectorScratch(dst, ix, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// table5Data caches the Table-5-scale dataset (≈200 avails × 53k RCCs) the
// tensor-build benchmarks share.
var (
	table5Once sync.Once
	table5Data *navsim.Dataset
)

func table5ScaleData(b *testing.B) *navsim.Dataset {
	b.Helper()
	table5Once.Do(func() {
		ds, err := navsim.Generate(navsim.Config{
			NumClosed: 200, NumOngoing: 0, MeanRCCsPerAvail: 265, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		table5Data = ds
	})
	return table5Data
}

// BenchmarkBuildTensorSerialVsParallel measures the full feature-tensor
// build (transformation 𝒯) at the paper's Table-5 scale with gap x=5:
// the pre-sweep from-scratch reference, the incremental sweep on one
// worker, and the sweep fanned over GOMAXPROCS workers.
func BenchmarkBuildTensorSerialVsParallel(b *testing.B) {
	ds := table5ScaleData(b)
	byAvail := ds.RCCsByAvail()
	ext := features.NewExtractor()
	const gap = 5.0
	b.Logf("avails=%d rccs=%d gomaxprocs=%d", len(ds.Avails), len(ds.RCCs), runtime.GOMAXPROCS(0))
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := features.BuildTensorScratch(ext, ds.Avails, byAvail, gap, index.KindAVL); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep-serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := features.BuildTensorOpt(ext, ds.Avails, byAvail, gap, features.TensorOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := features.BuildTensorOpt(ext, ds.Avails, byAvail, gap, features.TensorOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// bigAvailFixture builds one avail holding n synthetic RCCs for the
// per-avail sweep benchmarks.
func bigAvailFixture(b *testing.B, n int) (*domain.Avail, []domain.RCC) {
	b.Helper()
	rng := benchRand(uint64(n))
	a := &domain.Avail{ID: 1, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 400, ActStart: 0, ActEnd: 480}
	rccs := make([]domain.RCC, n)
	for i := range rccs {
		created := domain.Day(rng.next() % 450)
		rccs[i] = domain.RCC{
			ID: i + 1, AvailID: 1,
			Type:    domain.RCCType(rng.next() % domain.NumRCCTypes),
			SWLIN:   int(rng.next() % 100_000_000),
			Created: created,
			Settled: created + domain.Day(rng.next()%90),
			Amount:  float64(rng.next()%1_000_000) / 10,
		}
	}
	return a, rccs
}

// benchRand is a tiny deterministic PRNG (splitmix64) so fixture cost stays
// negligible at large n.
type splitmix struct{ s uint64 }

func benchRand(seed uint64) *splitmix { return &splitmix{s: seed*0x9E3779B97F4A7C15 + 1} }

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4B5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// BenchmarkCellSweepVsScratch isolates the Status Query state maintenance
// behind one avail's timestamp grid (x=5 ⇒ 21 points): from-scratch dense
// grid fills versus one incremental CellSweep advanced across the grid. The
// scratch cost grows with total RCCs at every grid point; the sweep's
// per-advance cost tracks only the events inside each window (plus the live
// active set), so doubling n roughly doubles the whole-grid sweep time while
// the scratch path pays the doubling at all 21 points.
func BenchmarkCellSweepVsScratch(b *testing.B) {
	grid := features.TimestampGrid(5)
	for _, n := range []int{8_000, 32_000} {
		a, rccs := bigAvailFixture(b, n)
		b.Run(fmt.Sprintf("scratch/n=%d", n), func(b *testing.B) {
			ix, err := statusq.NewIndexed(a, rccs, index.KindAVL)
			if err != nil {
				b.Fatal(err)
			}
			var gs statusq.GridSet
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, ts := range grid {
					if err := ix.CellGridsAt(ts, &gs); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("sweep/n=%d", n), func(b *testing.B) {
			sw, err := statusq.NewCellSweep(a, rccs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw.Reset()
				for _, ts := range grid {
					if err := sw.AdvanceTo(ts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDynamicVectorInto verifies the zero-allocation contract of the
// sweep-backed feature evaluation: advancing plus evaluating all 1452
// generated features must allocate nothing beyond the caller's dst.
func BenchmarkDynamicVectorInto(b *testing.B) {
	a, rccs := bigAvailFixture(b, 8_000)
	ext := features.NewExtractor()
	sw, err := statusq.NewCellSweep(a, rccs)
	if err != nil {
		b.Fatal(err)
	}
	grid := features.TimestampGrid(5)
	dst := make([]float64, ext.NumDynamic())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % len(grid)
		if k == 0 {
			sw.Reset()
		}
		if err := ext.DynamicVectorInto(dst, sw, grid[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajectoryAt compares the scratch oracle (every grid point's
// vector rebuilt through Extractor.Vector) with the served path (one row,
// one forward sweep from the engine's event orders) for one trajectory:
// on a fleet-scan-sized history (260 RCCs, the median ongoing avail of
// that fleet) and a ~5k-RCC one, on the base gap-10 grid at t* = 90 and on
// the window 50–100 grid at t* = 55, where the served path evaluates
// a single point and pays the sweep's set-up against one scratch vector.
func BenchmarkTrajectoryAt(b *testing.B) {
	fx := mustTrajFixture(b)
	for _, n := range []int{260, 5_000} {
		a, rccs := bigAvailFixture(b, n)
		eng, err := statusq.NewEngine(a, rccs)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			grid string
			p    *core.Pipeline
			ts   float64
		}{{"base", fx.base, 90}, {"window-50-100", fx.late, 55}} {
			b.Run(fmt.Sprintf("scratch/n=%d/%s", n, c.grid), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := scratchTrajectoryOracle(c.p, fx.ext, eng, c.ts); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("served/n=%d/%s", n, c.grid), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := c.p.TrajectoryAt(fx.ext.NewRow(eng), c.ts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkGBTFit(b *testing.B) {
	w := benchWorkload(b)
	slice := w.Tensor.Slices[0].Subset(w.Splits.Train)
	sel, err := (featsel.Pearson{}).Select(slice, 60)
	if err != nil {
		b.Fatal(err)
	}
	d := slice.Select(sel)
	p := gbt.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbt.Fit(p, loss.Squared{}, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkElasticNetFit(b *testing.B) {
	w := benchWorkload(b)
	slice := w.Tensor.Slices[0].Subset(w.Splits.Train)
	sel, err := (featsel.Pearson{}).Select(slice, 60)
	if err != nil {
		b.Fatal(err)
	}
	d := slice.Select(sel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linear.Fit(linear.DefaultParams(), d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---------------

// BenchmarkAblationBulkVsIncrementalLoad quantifies the bulk-load fast path
// versus n incremental inserts for the tree indexes.
func BenchmarkAblationBulkVsIncrementalLoad(b *testing.B) {
	raw := rawIntervals(intervalsAt(b, 1))
	for _, kind := range []index.Kind{index.KindAVL, index.KindInterval} {
		b.Run(string(kind)+"/bulk", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := index.Build(kind, raw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(kind)+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx, err := index.New(kind)
				if err != nil {
					b.Fatal(err)
				}
				for j := range raw {
					if err := idx.Insert(raw[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationCountVsRetrieve contrasts the AVL's O(log n) rank-based
// cardinality query with materializing the id set — the reason aggregate-only
// Status Queries skip retrieval.
func BenchmarkAblationCountVsRetrieve(b *testing.B) {
	idx := builtIndex(b, index.KindAVL, 5)
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.CountActiveAt(5000)
		}
	})
	b.Run("retrieve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.ActiveAt(5000)
		}
	})
}

// BenchmarkAblationParallelTraining measures the Workers knob on pipeline
// training (per-timestamp models are independent).
func BenchmarkAblationParallelTraining(b *testing.B) {
	w := benchWorkload(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := baselineCfg(b)
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := core.Train(cfg, w.Tensor, w.Splits.Train, w.Splits.Val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIncrementalSweepStep isolates the per-step cost of the
// incremental Status Query advance versus a full recomputation at one
// timestamp.
func BenchmarkAblationIncrementalSweepStep(b *testing.B) {
	ivs := intervalsAt(b, 5)
	idx := builtIndex(b, index.KindAVL, 5)
	b.Run("incremental-window", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.CreatedIn(4000, 5000)
		}
	})
	b.Run("scratch-prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.CreatedBy(5000)
		}
	})
	_ = ivs
}
