// Package features implements Task 1 of the paper: the transformation
// function 𝒯 that turns an avail's static attributes and its RCC history at
// logical timestamp t* into the model-ready feature vector F_{i,t*}.
//
// Generated (dynamic) features enumerate the cross product
//
//	status {ACTIVE, SETTLED, CREATED} ×
//	type   {G, NW, NG, ALL} ×
//	SWLIN  {subsystem digit 0..9, ALL} ×
//	aggregate (11 kinds, package statusq)
//
// which yields 3 × 4 × 11 × 11 = 1452 named features such as
// "G4-SETTLED_AVG_SETTLED_AMT" — the paper's "G1-AVG_SETTLED_AMT" naming with
// an explicit status segment — close to the 1490 RCC-dependent features of
// §5.2.1. Static features are the 8 the paper lists (ship class, RMC id,
// ship age, planning attributes, …) and are always included; feature
// selection applies only to generated features (§3.2.1).
//
// Every generated feature resolves to exactly one cell of the dense
// statusq.GridSet (the ALL selections hit the grid margins), so a full
// 1452-feature evaluation is a flat loop of array reads with no map lookups
// and no allocations beyond the caller's output slice.
//
// Across avails and logical timestamps the output forms the paper's
// (avail × feature × t*) tensor; BuildTensor materializes the slices each
// per-timestamp model trains on, fanning avails out over a worker pool and
// advancing one incremental statusq.CellSweep per avail across the
// timestamp grid (§4.3) instead of recomputing each timestamp from scratch.
// Serving reads its grids the same way, through a Row: one forward sweep
// over the avail's cached engine, memoized by grid point for one request.
// Vector and DynamicVector are the single-point scratch reference both
// swept paths are tested against bit for bit.
package features

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/ml"
	"domd/internal/obs"
	"domd/internal/statusq"
)

// Spec defines one generated feature.
type Spec struct {
	// Type restricts to one RCC type; nil means all.
	Type *domain.RCCType
	// Subsystem restricts to a SWLIN first digit; -1 means all.
	Subsystem int
	// Status is the temporal class.
	Status domain.RCCStatus
	// Agg is the aggregate.
	Agg statusq.Aggregate
}

// Name renders the feature's canonical name.
func (s Spec) Name() string {
	typ := "ALL"
	if s.Type != nil {
		typ = s.Type.String()
	}
	sub := "ALL"
	if s.Subsystem >= 0 {
		sub = fmt.Sprintf("%d", s.Subsystem)
	}
	return fmt.Sprintf("%s%s-%s_%s", typ, sub, s.Status, s.Agg)
}

// StaticNames are the 8 static features of §5.2.1 in vector order.
var StaticNames = []string{
	"SHIP_CLASS", "RMC_ID", "SHIP_AGE", "PLANNED_DURATION",
	"PLANNED_COST", "PRIOR_AVAILS", "DOCK_TYPE", "HOMEPORT_DIST",
}

// NumStatic is the static feature count.
const NumStatic = 8

// gridGroup is the compiled form of one (status × type × subsystem)
// selection: the grid cell its 11 aggregates are read from, resolved once
// at registry construction. The registry emits the aggregates of a
// selection consecutively in Aggregate order, so evaluation batches all 11
// from a single cell load.
type gridGroup struct {
	status domain.RCCStatus
	typ    int8 // grid row (statusq.TypeAll for ALL)
	sub    int8 // grid column (statusq.SubsystemAll for ALL)
}

// Extractor holds the generated-feature registry. It is immutable and safe
// for concurrent use.
type Extractor struct {
	specs  []Spec
	names  []string
	groups []gridGroup // groups[g] covers specs[g*NumAggregates : (g+1)*NumAggregates]
}

var rccTypes = []domain.RCCType{domain.Growth, domain.NewWork, domain.NewGrowth}

// NewExtractor builds the full registry in deterministic order.
func NewExtractor() *Extractor {
	e := &Extractor{}
	statuses := []domain.RCCStatus{domain.Active, domain.SettledStatus, domain.Created}
	for _, st := range statuses {
		for t := -1; t < len(rccTypes); t++ {
			var typ *domain.RCCType
			if t >= 0 {
				typ = &rccTypes[t]
			}
			for sub := -1; sub < 10; sub++ {
				g := gridGroup{status: st, typ: int8(statusq.TypeAll), sub: int8(statusq.SubsystemAll)}
				if typ != nil {
					g.typ = int8(*typ)
				}
				if sub >= 0 {
					g.sub = int8(sub)
				}
				e.groups = append(e.groups, g)
				for agg := statusq.Aggregate(0); agg < statusq.NumAggregates; agg++ {
					s := Spec{Type: typ, Subsystem: sub, Status: st, Agg: agg}
					e.specs = append(e.specs, s)
					e.names = append(e.names, s.Name())
				}
			}
		}
	}
	return e
}

// NumDynamic is the generated-feature count (1452).
func (e *Extractor) NumDynamic() int { return len(e.specs) }

// DynamicNames returns the generated feature names in vector order. The
// slice is shared; do not mutate.
func (e *Extractor) DynamicNames() []string { return e.names }

// Names returns static followed by dynamic names (the full F_{i,t*} order).
func (e *Extractor) Names() []string {
	out := make([]string, 0, NumStatic+len(e.names))
	out = append(out, StaticNames...)
	return append(out, e.names...)
}

// Specs exposes the registry (shared; do not mutate).
func (e *Extractor) Specs() []Spec { return e.specs }

// StaticVector encodes the 8 static features of an avail.
func StaticVector(a *domain.Avail) []float64 {
	return []float64{
		float64(a.ShipClass),
		float64(a.RMC),
		a.ShipAge,
		float64(a.PlannedDuration()),
		a.PlannedCost,
		float64(a.PriorAvails),
		float64(a.DockType),
		a.HomeportDist,
	}
}

// evalGrids evaluates every generated feature from a finalized grid set
// into dst (len NumDynamic): one cell load per (status × type × subsystem)
// selection, all 11 aggregates batched from it. Pure array reads — no map
// lookups, no allocation.
func (e *Extractor) evalGrids(dst []float64, gs *statusq.GridSet, ts float64) {
	total := gs.CreatedCount()
	for g := range e.groups {
		c := &e.groups[g]
		gs[c.status][c.typ][c.sub].AggregateAll(dst[g*statusq.NumAggregates:], total, ts)
	}
}

// DynamicVectorInto advances the sweep to ts and evaluates every generated
// feature into dst (len NumDynamic). Successive calls with ascending ts
// reuse the sweep's state, so the per-timestamp cost is the incremental
// advance (§4.3) plus the flat evaluation loop — zero allocations.
func (e *Extractor) DynamicVectorInto(dst []float64, sw *statusq.CellSweep, ts float64) error {
	if len(dst) != len(e.specs) {
		return fmt.Errorf("features: dst len %d, want %d", len(dst), len(e.specs))
	}
	if err := sw.AdvanceTo(ts); err != nil {
		return err
	}
	e.evalGrids(dst, sw.Grids(), ts)
	return nil
}

// DynamicVectorScratch evaluates every generated feature at ts into dst
// using the engine's from-scratch dense grid fill. This is the
// non-incremental reference path: each call pays the full index retrieval
// and sort, but any timestamp can be queried in any order.
func (e *Extractor) DynamicVectorScratch(dst []float64, eng *statusq.Engine, ts float64) error {
	if len(dst) != len(e.specs) {
		return fmt.Errorf("features: dst len %d, want %d", len(dst), len(e.specs))
	}
	var gs statusq.GridSet
	if err := eng.CellGridsAt(ts, &gs); err != nil {
		return err
	}
	e.evalGrids(dst, &gs, ts)
	return nil
}

// DynamicVector evaluates every generated feature at ts from scratch,
// allocating the output slice. It is the single-point scratch reference:
// a grid of points is read through a Row (serving) or BuildTensorOpt
// (training), which sweep instead.
func (e *Extractor) DynamicVector(eng *statusq.Engine, ts float64) ([]float64, error) {
	out := make([]float64, len(e.specs))
	if err := e.DynamicVectorScratch(out, eng, ts); err != nil {
		return nil, err
	}
	return out, nil
}

// Vector concatenates static and dynamic features for one avail at ts,
// from scratch. It is the single-point scratch reference the swept paths
// are tested against bit for bit; grids of points use a Row.
func (e *Extractor) Vector(eng *statusq.Engine, ts float64) ([]float64, error) {
	dyn, err := e.DynamicVector(eng, ts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, NumStatic+len(dyn))
	out = append(out, StaticVector(eng.Avail())...)
	return append(out, dyn...), nil
}

// Row is one avail's full feature vectors (static then dynamic, the Names
// order) at the grid points one request reads, memoized by grid point.
// Points are extracted by a single forward statusq.CellSweep over the
// engine (§4.3), so a /fleet row's query and prediction trajectories share
// one sweep and extract each point once. A Row covers one engine for one
// request and is not safe for concurrent use.
type Row struct {
	ext *Extractor
	eng *statusq.Engine
	// sw is taken from eng on the first extraction; last is the grid
	// point it was last advanced to.
	sw   *statusq.CellSweep
	last float64
	// memo maps math.Float64bits of a grid point to its vector.
	memo map[uint64][]float64
}

// NewRow starts an empty row over eng.
func (e *Extractor) NewRow(eng *statusq.Engine) *Row {
	return &Row{ext: e, eng: eng, memo: make(map[uint64][]float64)}
}

// Engine returns the engine the row reads.
func (r *Row) Engine() *statusq.Engine { return r.eng }

// Vectors returns the full feature vector at each point of grid, which
// must ascend. Points not yet in the row are swept in one forward pass
// into one contiguous block; the sweep rewinds only when the first of
// them lies before the point it last reached. The returned vectors are
// shared with later calls; do not mutate them.
func (r *Row) Vectors(grid []float64) ([][]float64, error) {
	out := make([][]float64, len(grid))
	var miss []int
	for k, ts := range grid {
		if vec, ok := r.memo[math.Float64bits(ts)]; ok {
			out[k] = vec
		} else {
			miss = append(miss, k)
		}
	}
	if len(miss) == 0 {
		return out, nil
	}
	switch {
	case r.sw == nil:
		r.sw = r.eng.Sweep()
	case grid[miss[0]] < r.last:
		r.sw.Reset()
	}
	width := NumStatic + r.ext.NumDynamic()
	block := make([]float64, len(miss)*width)
	static := StaticVector(r.eng.Avail())
	for i, k := range miss {
		vec := block[i*width : (i+1)*width : (i+1)*width]
		copy(vec, static)
		if err := r.ext.DynamicVectorInto(vec[NumStatic:], r.sw, grid[k]); err != nil {
			return nil, fmt.Errorf("features: avail %d @%g: %w", r.eng.Avail().ID, grid[k], err)
		}
		r.last = grid[k]
		r.memo[math.Float64bits(grid[k])] = vec
		out[k] = vec
	}
	return out, nil
}

// Tensor is the (avail × feature × t*) feature tensor of §3.1: one
// ml.Dataset slice per logical timestamp, rows aligned with Avails.
type Tensor struct {
	// Timestamps are the logical times of the slices, ascending.
	Timestamps []float64
	// Slices[k] is the dataset at Timestamps[k]; Slices[k].Y is the delay
	// vector (nil entries impossible — only closed avails are included).
	Slices []*ml.Dataset
	// Avails are the closed avails the rows describe, in row order.
	Avails []domain.Avail
}

// NumAvails reports the tensor's row count.
func (t *Tensor) NumAvails() int { return len(t.Avails) }

// TensorOptions tune the tensor build.
type TensorOptions struct {
	// Workers is the worker-pool size avails are fanned out over;
	// <= 0 selects runtime.GOMAXPROCS(0). Row order and values are
	// identical for every worker count: workers write disjoint
	// pre-sized row indices, and each row's computation is
	// self-contained.
	Workers int
}

// TimestampGrid returns the t* grid with spacing x percent: 0, x, 2x, …,
// then 100. Points are generated by integer stepping (i·x) rather than
// float accumulation, so fractional gaps cannot drift into a near-duplicate
// terminal point next to the appended 100.
func TimestampGrid(x float64) []float64 {
	const eps = 1e-9
	var ts []float64
	for i := 0; ; i++ {
		v := float64(i) * x
		if v >= 100-eps {
			break
		}
		ts = append(ts, v)
	}
	return append(ts, 100)
}

// BuildTensor extracts the tensor for the given avails over a t* grid with
// spacing x percent (the "model gap interval" of Problem 1). Only closed
// avails are included, since training needs the delay label. It is the
// default-options form of BuildTensorOpt.
func BuildTensor(ext *Extractor, avails []domain.Avail, rccsByAvail map[int][]domain.RCC, x float64, kind index.Kind) (*Tensor, error) {
	return BuildTensorOpt(ext, avails, rccsByAvail, x, kind, TensorOptions{})
}

// BuildTensorOpt extracts the tensor with explicit options. Avails fan out
// over a bounded worker pool; each worker owns one incremental
// statusq.CellSweep per avail and visits the timestamp grid in ascending
// order, so every timestamp after the first costs only the events inside
// its window (§4.3). kind names the time-index design ad-hoc Status Queries
// would use and is validated here for interface compatibility; the grid
// build itself runs entirely on the event sweep and materializes no
// per-avail index.
func BuildTensorOpt(ext *Extractor, avails []domain.Avail, rccsByAvail map[int][]domain.RCC, x float64, kind index.Kind, opts TensorOptions) (*Tensor, error) {
	if x <= 0 || x > 100 {
		return nil, fmt.Errorf("features: gap interval %f outside (0,100]", x)
	}
	if _, err := index.New(kind); err != nil {
		return nil, err
	}
	ts := TimestampGrid(x)

	// Row selection and labels are resolved up front so workers only ever
	// touch their own pre-sized row index.
	var rows []*domain.Avail
	var delays []float64
	for i := range avails {
		a := &avails[i]
		if a.Status != domain.StatusClosed {
			continue
		}
		delay, err := a.Delay()
		if err != nil {
			return nil, err
		}
		rows = append(rows, a)
		delays = append(delays, float64(delay))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("features: no closed avails")
	}

	t := &Tensor{Timestamps: ts, Avails: make([]domain.Avail, len(rows))}
	names := ext.Names()
	numFeatures := NumStatic + ext.NumDynamic()
	for range ts {
		t.Slices = append(t.Slices, &ml.Dataset{
			Names: names,
			X:     make([][]float64, len(rows)),
			Y:     make([]float64, len(rows)),
		})
	}
	for r := range rows {
		t.Avails[r] = *rows[r]
		for k := range ts {
			t.Slices[k].Y[r] = delays[r]
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rows) {
		workers = len(rows)
	}
	sw := obs.StartTimer()
	mTensorWorkers.Set(int64(workers))

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	rowCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rowCh {
				if failed() {
					continue
				}
				a := rows[r]
				sw, err := statusq.NewCellSweep(a, rccsByAvail[a.ID])
				if err != nil {
					fail(fmt.Errorf("features: avail %d: %w", a.ID, err))
					continue
				}
				// One backing block per row: K feature vectors laid out
				// contiguously, sliced per timestamp.
				block := make([]float64, len(ts)*numFeatures)
				static := StaticVector(a)
				for k, tstar := range ts {
					vec := block[k*numFeatures : (k+1)*numFeatures : (k+1)*numFeatures]
					copy(vec, static)
					if err := ext.DynamicVectorInto(vec[NumStatic:], sw, tstar); err != nil {
						fail(fmt.Errorf("features: avail %d @%g: %w", a.ID, tstar, err))
						break
					}
					t.Slices[k].X[r] = vec
				}
			}
		}()
	}
	for r := range rows {
		rowCh <- r
	}
	close(rowCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	mTensorBuilds.Inc()
	mTensorBuildSeconds.ObserveSince(sw)
	mTensorRows.Add(int64(len(rows) * len(ts)))
	return t, nil
}

// BuildTensorScratch is the pre-sweep reference build: one engine per
// avail, every timestamp recomputed from scratch via the index, serially.
// It is retained for differential verification (its output is
// bitwise-identical to BuildTensorOpt at any worker count) and for the
// scalability study quantifying what the incremental sweep saves.
func BuildTensorScratch(ext *Extractor, avails []domain.Avail, rccsByAvail map[int][]domain.RCC, x float64, kind index.Kind) (*Tensor, error) {
	if x <= 0 || x > 100 {
		return nil, fmt.Errorf("features: gap interval %f outside (0,100]", x)
	}
	ts := TimestampGrid(x)
	t := &Tensor{Timestamps: ts}
	names := ext.Names()
	for range ts {
		t.Slices = append(t.Slices, &ml.Dataset{Names: names})
	}
	for i := range avails {
		a := &avails[i]
		if a.Status != domain.StatusClosed {
			continue
		}
		delay, err := a.Delay()
		if err != nil {
			return nil, err
		}
		eng, err := statusq.NewEngine(a, rccsByAvail[a.ID], kind)
		if err != nil {
			return nil, fmt.Errorf("features: avail %d: %w", a.ID, err)
		}
		t.Avails = append(t.Avails, *a)
		static := StaticVector(a)
		for k, tstar := range ts {
			vec := make([]float64, NumStatic+ext.NumDynamic())
			copy(vec, static)
			if err := ext.DynamicVectorScratch(vec[NumStatic:], eng, tstar); err != nil {
				return nil, fmt.Errorf("features: avail %d @%g: %w", a.ID, tstar, err)
			}
			t.Slices[k].X = append(t.Slices[k].X, vec)
			t.Slices[k].Y = append(t.Slices[k].Y, float64(delay))
		}
	}
	if len(t.Avails) == 0 {
		return nil, fmt.Errorf("features: no closed avails")
	}
	return t, nil
}
