package core

import (
	"fmt"

	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/index"
	"domd/internal/statusq"
)

// QueryService answers DoMD Queries (Problem 1) against a trained Pipeline:
// given an avail (ongoing or future), its RCC history, and a physical
// timestamp t, it produces delay estimates at every grid point of planned
// duration from 0% up to the avail's current logical time.
type QueryService struct {
	pipeline *Pipeline
	ext      *features.Extractor
	kind     index.Kind
}

// NewQueryService wires a trained pipeline to the feature extractor it was
// trained with. kind selects the Status Query index backend.
func NewQueryService(p *Pipeline, ext *features.Extractor, kind index.Kind) *QueryService {
	return &QueryService{pipeline: p, ext: ext, kind: kind}
}

// Estimate is one point of the DoMD trajectory.
type Estimate struct {
	// Timestamp is the logical time t* (percent of planned duration).
	Timestamp float64
	// Raw is the per-timestamp model's estimate; Fused folds in all
	// estimates up to this timestamp with the pipeline's fusion method.
	Raw, Fused float64
}

// Result is the answer to one DoMD query.
type Result struct {
	AvailID int
	// At is the physical query date; LogicalTime its t* (may exceed 100
	// when the avail is running past plan — estimates stop at 100).
	At          domain.Day
	LogicalTime float64
	// Estimates cover grid points 0 … min(t*, 100).
	Estimates []Estimate
	// TopDrivers are the §5.2.5 top-5 contributing features at the most
	// recent grid point.
	TopDrivers []Attribution
}

// Final returns the latest fused estimate.
func (r *Result) Final() float64 {
	if len(r.Estimates) == 0 {
		return 0
	}
	return r.Estimates[len(r.Estimates)-1].Fused
}

// Query answers a DoMD query at physical time at, building a throwaway
// engine over the given RCC history — the one-shot CLI/example path. The
// avail must have started (t* >= 0); only RCC history up to the query time
// influences the estimates (later RCCs are invisible to earlier grid
// points by construction of the Status Query predicates).
//
// Serving tiers answering repeated queries should not pay this per-call
// re-index: build (or cache) the engine once — e.g. via statusq.Catalog —
// and call QueryEngine.
func (s *QueryService) Query(a *domain.Avail, rccs []domain.RCC, at domain.Day) (*Result, error) {
	ts, err := a.LogicalTime(at)
	if err != nil {
		return nil, err
	}
	if ts < 0 {
		return nil, fmt.Errorf("core: avail %d has not started at %v (t* = %.1f%%)", a.ID, at, ts)
	}
	eng, err := statusq.NewEngine(a, rccs, s.kind)
	if err != nil {
		return nil, err
	}
	return s.QueryEngine(eng, at)
}

// QueryEngine answers a DoMD query against a prebuilt Status Query engine.
// This is the cached serving path: the engine is read-only here, so one
// engine may be shared by any number of concurrent QueryEngine calls (see
// the index.TimeIndex concurrency contract).
func (s *QueryService) QueryEngine(eng *statusq.Engine, at domain.Day) (*Result, error) {
	a := eng.Avail()
	ts, err := a.LogicalTime(at)
	if err != nil {
		return nil, err
	}
	if ts < 0 {
		return nil, fmt.Errorf("core: avail %d has not started at %v (t* = %.1f%%)", a.ID, at, ts)
	}
	tr, err := s.pipeline.TrajectoryAt(s.ext, eng, ts)
	if err != nil {
		return nil, err
	}
	res := &Result{AvailID: a.ID, At: at, LogicalTime: ts}
	for k := 0; k <= tr.Upto; k++ {
		res.Estimates = append(res.Estimates, Estimate{Timestamp: tr.Grid[k], Raw: tr.Raw[k], Fused: tr.Fused[k]})
	}
	res.TopDrivers, err = s.pipeline.TopFeatures(tr.Upto, tr.Fulls[tr.Upto], 5)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Trajectory is one avail's DoMD trajectory under a pipeline: the full
// feature vectors and the estimates at grid points 0..Upto.
type Trajectory struct {
	// Upto indexes the last grid point at or before t*.
	Upto int
	// Grid is the pipeline's t* grid; the trajectory covers Grid[:Upto+1].
	Grid []float64
	// Fulls holds the full feature vector at each covered grid point.
	Fulls [][]float64
	// Raw holds the per-timestamp estimates and Fused the progressively
	// fused ones, both indexed like Fulls.
	Raw, Fused []float64
}

// TrajectoryAt is the serving trajectory loop shared by
// QueryService.QueryEngine and the model registry's Predict: it walks the
// grid up to logical time ts (>= 0), extracts the full feature vector
// from eng at each grid point, and runs the per-timestamp models over them.
// The engine is only read.
func (p *Pipeline) TrajectoryAt(ext *features.Extractor, eng *statusq.Engine, ts float64) (*Trajectory, error) {
	grid := p.Timestamps()
	upto := 0
	for k, g := range grid {
		if g <= ts {
			upto = k
		}
	}
	fulls := make([][]float64, upto+1)
	for k := range fulls {
		var err error
		if fulls[k], err = ext.Vector(eng, grid[k]); err != nil {
			return nil, err
		}
	}
	raw, fused, err := p.Trajectory(fulls, upto)
	if err != nil {
		return nil, err
	}
	return &Trajectory{Upto: upto, Grid: grid, Fulls: fulls, Raw: raw, Fused: fused}, nil
}
