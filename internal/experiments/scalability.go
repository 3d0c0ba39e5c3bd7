package experiments

import (
	"fmt"
	"runtime"
	"time"

	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/swlin"
)

// LogicalInterval is one RCC projected onto its avail's logical timeline in
// fixed-point centi-percent (t* × 100), the (t*_start, t*_end, ID) triple
// the paper's indexes store.
type LogicalInterval struct {
	index.Interval
	// Type and Subsystem carry the group-by attributes; Amount and
	// Duration the aggregated measures of the Fig. 3 Status Query.
	Type      domain.RCCType
	Subsystem int
	Amount    float64
	Duration  float64
}

// ProjectLogical converts the dataset's RCCs to logical intervals. RCCs of
// avails with unusable plans are skipped.
func ProjectLogical(ds *navsim.Dataset) []LogicalInterval {
	availByID := make(map[int]*domain.Avail, len(ds.Avails))
	for i := range ds.Avails {
		availByID[ds.Avails[i].ID] = &ds.Avails[i]
	}
	out := make([]LogicalInterval, 0, len(ds.RCCs))
	for i := range ds.RCCs {
		r := &ds.RCCs[i]
		a := availByID[r.AvailID]
		if a == nil || a.PlannedDuration() <= 0 {
			continue
		}
		ts, err := a.LogicalTime(r.Created)
		if err != nil {
			continue
		}
		te, err := a.LogicalTime(r.Settled)
		if err != nil {
			continue
		}
		out = append(out, LogicalInterval{
			Interval:  index.Interval{Start: int64(ts * 100), End: int64(te * 100), ID: len(out)},
			Type:      r.Type,
			Subsystem: swlin.Code(r.SWLIN).Subsystem(),
			Amount:    r.Amount,
			Duration:  float64(r.Duration()),
		})
	}
	return out
}

// ScaleMeasurement is one (factor × index design) cell of the scalability
// study.
type ScaleMeasurement struct {
	Factor   int
	NumRCCs  int
	Kind     index.Kind
	Creation time.Duration
	MemoryMB float64
	// Query is the cost of the full Status Query sweep over the t* grid
	// (incremental for the AVL design, from-scratch otherwise).
	Query time.Duration
}

// Total returns creation plus query time (Fig. 5c).
func (m ScaleMeasurement) Total() time.Duration { return m.Creation + m.Query }

// RunScalability measures index creation, memory, and Status Query sweep
// cost for every design at every scale factor. gridStep is the t* spacing
// of the query sweep (the paper's x).
func RunScalability(base *navsim.Dataset, factors []int, gridStep float64) ([]ScaleMeasurement, error) {
	if gridStep <= 0 || gridStep > 100 {
		return nil, fmt.Errorf("experiments: grid step %f outside (0,100]", gridStep)
	}
	var out []ScaleMeasurement
	for _, f := range factors {
		scaled, err := navsim.Scale(base, f)
		if err != nil {
			return nil, err
		}
		ivs := ProjectLogical(scaled)
		for _, kind := range index.Kinds() {
			m := ScaleMeasurement{Factor: f, NumRCCs: len(ivs), Kind: kind}

			raw := make([]index.Interval, len(ivs))
			for i := range ivs {
				raw[i] = ivs[i].Interval
			}
			start := time.Now()
			idx, err := index.Build(kind, raw)
			if err != nil {
				return nil, err
			}
			m.Creation = time.Since(start)
			m.MemoryMB = float64(idx.MemoryBytes()) / (1 << 20)

			start = time.Now()
			if kind == index.KindAVL {
				SweepIncremental(idx, ivs, gridStep)
			} else {
				SweepScratch(idx, ivs, gridStep)
			}
			m.Query = time.Since(start)
			out = append(out, m)
		}
	}
	return out, nil
}

// TensorScaleMeasurement is one scale-factor row of the feature-tensor
// build study: the full 𝒯 materialization (every avail × every grid
// timestamp × 1460 features) under the three build strategies.
type TensorScaleMeasurement struct {
	Factor    int
	NumRCCs   int
	NumAvails int
	// Scratch is the pre-sweep reference: per-avail engine, every
	// timestamp recomputed from the index, serial.
	Scratch time.Duration
	// SweepSerial is the incremental CellSweep path on one worker.
	SweepSerial time.Duration
	// SweepParallel is the CellSweep path fanned over the worker pool.
	SweepParallel time.Duration
	Workers       int
}

// RunTensorScalability measures the end-to-end tensor build (the
// transformation 𝒯 the whole modeling pipeline funnels through) at every
// scale factor, for the from-scratch reference path, the incremental sweep
// on a single worker, and the sweep fanned over workers (<= 0 selects
// GOMAXPROCS). gridStep is the t* spacing x.
func RunTensorScalability(base *navsim.Dataset, factors []int, gridStep float64, workers int) ([]TensorScaleMeasurement, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ext := features.NewExtractor()
	var out []TensorScaleMeasurement
	for _, f := range factors {
		scaled, err := navsim.Scale(base, f)
		if err != nil {
			return nil, err
		}
		byAvail := scaled.RCCsByAvail()
		m := TensorScaleMeasurement{Factor: f, NumRCCs: len(scaled.RCCs), Workers: workers}

		start := time.Now()
		tRef, err := features.BuildTensorScratch(ext, scaled.Avails, byAvail, gridStep, index.KindAVL)
		if err != nil {
			return nil, err
		}
		m.Scratch = time.Since(start)
		m.NumAvails = tRef.NumAvails()

		start = time.Now()
		if _, err := features.BuildTensorOpt(ext, scaled.Avails, byAvail, gridStep, features.TensorOptions{Workers: 1}); err != nil {
			return nil, err
		}
		m.SweepSerial = time.Since(start)

		start = time.Now()
		if _, err := features.BuildTensorOpt(ext, scaled.Avails, byAvail, gridStep, features.TensorOptions{Workers: workers}); err != nil {
			return nil, err
		}
		m.SweepParallel = time.Since(start)
		out = append(out, m)
	}
	return out, nil
}

// TensorScaleTable renders the tensor-build study in the Fig. 5 style.
func TensorScaleTable(ms []TensorScaleMeasurement) *Table {
	t := &Table{
		ID:     "tensor",
		Title:  "Feature-tensor build time (ms) vs RCC scale: scratch vs incremental sweep vs parallel sweep",
		Header: []string{"scale", "#rccs", "#avails", "scratch_serial", "sweep_serial", "sweep_parallel", "speedup"},
	}
	for _, m := range ms {
		speedup := 0.0
		if m.SweepParallel > 0 {
			speedup = float64(m.Scratch) / float64(m.SweepParallel)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx", m.Factor),
			fmt.Sprintf("%d", m.NumRCCs),
			fmt.Sprintf("%d", m.NumAvails),
			f2(float64(m.Scratch.Microseconds()) / 1000),
			f2(float64(m.SweepSerial.Microseconds()) / 1000),
			f2(float64(m.SweepParallel.Microseconds()) / 1000),
			f2(speedup),
		})
	}
	return t
}

// GroupAgg accumulates the Fig. 3 measures per (type × subsystem) group.
type GroupAgg struct {
	Count       int
	SumAmount   float64
	SumDuration float64
}

const numGroups = domain.NumRCCTypes * 10

func groupOf(iv *LogicalInterval) int { return int(iv.Type)*10 + iv.Subsystem }

// SweepScratch answers the Status Query at every grid point from scratch:
// retrieve the created set and re-aggregate all of it (what the Pandas
// merge baseline and the non-incremental interval tree do).
func SweepScratch(idx index.TimeIndex, ivs []LogicalInterval, step float64) [][]GroupAgg {
	var results [][]GroupAgg
	for ts := 0.0; ts <= 100; ts += step {
		q := int64(ts * 100)
		groups := make([]GroupAgg, numGroups)
		for _, id := range idx.CreatedBy(q) {
			iv := &ivs[id]
			g := &groups[groupOf(iv)]
			g.Count++
			g.SumAmount += iv.Amount
			g.SumDuration += iv.Duration
		}
		results = append(results, groups)
	}
	return results
}

// SweepIncremental advances a §4.3 running aggregate (the CellSweep scheme) using
// the (prev, cur] windows of §4.3: each step touches only the new events.
func SweepIncremental(idx index.TimeIndex, ivs []LogicalInterval, step float64) [][]GroupAgg {
	var results [][]GroupAgg
	groups := make([]GroupAgg, numGroups)
	prev := int64(-1 << 62)
	for ts := 0.0; ts <= 100; ts += step {
		q := int64(ts * 100)
		for _, id := range idx.CreatedIn(prev, q) {
			iv := &ivs[id]
			g := &groups[groupOf(iv)]
			g.Count++
			g.SumAmount += iv.Amount
			g.SumDuration += iv.Duration
		}
		prev = q
		snapshot := make([]GroupAgg, numGroups)
		copy(snapshot, groups)
		results = append(results, snapshot)
	}
	return results
}

// Fig5a renders index creation time vs scale.
func Fig5a(ms []ScaleMeasurement) *Table {
	return scaleTable(ms, "fig5a", "Index creation time (ms) vs RCC scale", func(m ScaleMeasurement) string {
		return f2(float64(m.Creation.Microseconds()) / 1000)
	})
}

// Table6 renders index memory usage vs scale.
func Table6(ms []ScaleMeasurement) *Table {
	return scaleTable(ms, "table6", "Index construction cost considering space (MB)", func(m ScaleMeasurement) string {
		return f2(m.MemoryMB)
	})
}

// Fig5b renders query processing time vs scale.
func Fig5b(ms []ScaleMeasurement) *Table {
	return scaleTable(ms, "fig5b", "Status Query sweep time (ms) vs RCC scale (AVL incremental)", func(m ScaleMeasurement) string {
		return f2(float64(m.Query.Microseconds()) / 1000)
	})
}

// Fig5c renders total (creation + query) time vs scale.
func Fig5c(ms []ScaleMeasurement) *Table {
	return scaleTable(ms, "fig5c", "Index creation + query processing time (ms)", func(m ScaleMeasurement) string {
		return f2(float64(m.Total().Microseconds()) / 1000)
	})
}

func scaleTable(ms []ScaleMeasurement, id, title string, cell func(ScaleMeasurement) string) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"scale", "#rccs", "pandas_merge(naive)", "avl_tree", "interval_tree"},
	}
	byFactor := map[int]map[index.Kind]ScaleMeasurement{}
	var order []int
	for _, m := range ms {
		if byFactor[m.Factor] == nil {
			byFactor[m.Factor] = map[index.Kind]ScaleMeasurement{}
			order = append(order, m.Factor)
		}
		byFactor[m.Factor][m.Kind] = m
	}
	for _, f := range order {
		row := byFactor[f]
		naive := row[index.KindNaive]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx", f),
			fmt.Sprintf("%d", naive.NumRCCs),
			cell(row[index.KindNaive]),
			cell(row[index.KindAVL]),
			cell(row[index.KindInterval]),
		})
	}
	return t
}
