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
}

// NewQueryService wires a trained pipeline to the feature extractor it was
// trained with.
//
// kind is ignored: queries read the §4.3 sweep, not a time index. The
// parameter stays only because the domdbench tracer links this signature;
// the benchmark change that moves the tracer off it (ROADMAP item 12) drops
// it.
func NewQueryService(p *Pipeline, ext *features.Extractor, kind index.Kind) *QueryService {
	return &QueryService{pipeline: p, ext: ext}
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
	eng, err := statusq.NewEngine(a, rccs)
	if err != nil {
		return nil, err
	}
	return s.QueryEngine(eng, at)
}

// QueryEngine answers a DoMD query against a prebuilt Status Query engine:
// QueryRow over a fresh row of the engine's feature vectors, released
// before it returns. The engine is read-only here, so one engine may be
// shared by any number of concurrent QueryEngine calls.
func (s *QueryService) QueryEngine(eng *statusq.Engine, at domain.Day) (*Result, error) {
	row := s.ext.NewRow(eng)
	defer row.Release()
	return s.QueryRow(row, at)
}

// QueryRow answers a DoMD query from a row of feature vectors over a
// prebuilt engine — the cached serving path. The trajectory is read from
// the row's one forward sweep, so a caller that also predicts from the
// same row (a /fleet row) extracts each grid point once.
func (s *QueryService) QueryRow(row *features.Row, at domain.Day) (*Result, error) {
	a := row.Engine().Avail()
	ts, err := a.LogicalTime(at)
	if err != nil {
		return nil, err
	}
	if ts < 0 {
		return nil, fmt.Errorf("core: avail %d has not started at %v (t* = %.1f%%)", a.ID, at, ts)
	}
	tr, err := s.pipeline.TrajectoryAt(row, ts)
	if err != nil {
		return nil, err
	}
	res := &Result{AvailID: a.ID, At: at, LogicalTime: ts, Estimates: make([]Estimate, 0, tr.Upto+1)}
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
	// Fulls holds the full feature vector at each covered grid point. It
	// is the row's own slice (Row.Vectors), overwritten by the next
	// trajectory on the row; the vectors are valid until the row is
	// released.
	Fulls [][]float64
	// Raw holds the per-timestamp estimates and Fused the progressively
	// fused ones, both indexed like Fulls.
	Raw, Fused []float64
}

// TrajectoryAt is the serving trajectory loop shared by
// QueryService.QueryRow and the model registry's PredictRow: it reads the
// full feature vectors at the pipeline's grid points up to logical time ts
// (>= 0) from row — one forward sweep over the row's engine (§4.3),
// shared with every other trajectory on the row — and runs the
// per-timestamp models over them. It fails when no grid point lies at or
// before ts (a window model whose window starts after ts): every point
// it could evaluate would read history later than t*. The trajectory is
// returned by value, so it costs no allocation of its own; its Fulls slice
// is valid only until the next trajectory on the row.
func (p *Pipeline) TrajectoryAt(row *features.Row, ts float64) (Trajectory, error) {
	grid := p.Timestamps()
	upto := -1
	for k, g := range grid {
		if g <= ts {
			upto = k
		}
	}
	if upto < 0 {
		return Trajectory{}, fmt.Errorf("core: no grid point at or before t* = %.1f%%", ts)
	}
	fulls, err := row.Vectors(grid[:upto+1])
	if err != nil {
		return Trajectory{}, err
	}
	raw, fused, err := p.Trajectory(fulls, upto)
	if err != nil {
		return Trajectory{}, err
	}
	return Trajectory{Upto: upto, Grid: grid, Fulls: fulls, Raw: raw, Fused: fused}, nil
}
