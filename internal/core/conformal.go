package core

import (
	"fmt"
	"math"
	"sort"

	"domd/internal/features"
)

// Conformal wraps a trained pipeline with split-conformal prediction
// intervals: the calibration set's absolute fused-prediction residuals at
// each logical timestamp give a distribution-free error quantile, so
// "estimated delay 42 ± 31 days (90%)" carries a finite-sample coverage
// guarantee — a complementary route to schedule-risk bands alongside the
// quantile-loss models of examples/riskbands.
type Conformal struct {
	pipeline *Pipeline
	// residuals[k] holds the calibration |fused - truth| values at grid
	// index k, ascending.
	residuals [][]float64
}

// NewConformal calibrates intervals on calibRows — rows the pipeline was
// not fitted on. Note that if the same rows also drove hyperparameter
// tuning, the margins are mildly optimistic; for strict guarantees hold out
// a fresh calibration split.
func NewConformal(p *Pipeline, tensor *features.Tensor, calibRows []int) (*Conformal, error) {
	if len(calibRows) < 2 {
		return nil, fmt.Errorf("core: conformal calibration needs >= 2 rows, got %d", len(calibRows))
	}
	if len(tensor.Timestamps) != len(p.timestamps) {
		return nil, fmt.Errorf("core: tensor has %d timestamps, pipeline %d", len(tensor.Timestamps), len(p.timestamps))
	}
	c := &Conformal{pipeline: p, residuals: make([][]float64, len(p.timestamps))}
	trajs := make([][]float64, len(calibRows))
	for i := range trajs {
		trajs[i] = make([]float64, 0, len(p.timestamps))
	}
	for k := range p.timestamps {
		c.residuals[k] = make([]float64, len(calibRows))
		for i, r := range calibRows {
			raw, err := p.PredictAt(k, tensor.Slices[k].X[r])
			if err != nil {
				return nil, err
			}
			trajs[i] = append(trajs[i], raw)
			fused, err := p.fuser.Fuse(trajs[i])
			if err != nil {
				return nil, err
			}
			c.residuals[k][i] = math.Abs(fused - tensor.Slices[k].Y[r])
		}
		sort.Float64s(c.residuals[k])
	}
	return c, nil
}

// Residuals exposes the calibration state for model-artifact persistence:
// Residuals()[k] holds the ascending |fused − truth| values at grid index
// k. The returned slices alias the Conformal's state — callers serialize
// them, they must not mutate them.
func (c *Conformal) Residuals() [][]float64 { return c.residuals }

// NewConformalFromResiduals reconstructs a calibrated Conformal from a
// residual matrix produced by Residuals — the deserialization half of
// model-artifact persistence (internal/modelserve). The matrix must carry
// one ascending row of at least two residuals per pipeline grid slot,
// mirroring the NewConformal calibration minimum.
func NewConformalFromResiduals(p *Pipeline, residuals [][]float64) (*Conformal, error) {
	if len(residuals) != len(p.timestamps) {
		return nil, fmt.Errorf("core: %d residual rows for %d pipeline slots", len(residuals), len(p.timestamps))
	}
	for k, rs := range residuals {
		if len(rs) < 2 {
			return nil, fmt.Errorf("core: residual row %d has %d values, need >= 2", k, len(rs))
		}
		if !sort.Float64sAreSorted(rs) {
			return nil, fmt.Errorf("core: residual row %d is not ascending", k)
		}
	}
	return &Conformal{pipeline: p, residuals: residuals}, nil
}

// Margin returns the conformal half-width at grid index k for miscoverage
// alpha (e.g. 0.1 → 90% interval): the ⌈(n+1)(1−α)⌉-th smallest calibration
// residual. alpha must lie in (0, 1).
func (c *Conformal) Margin(k int, alpha float64) (float64, error) {
	if k < 0 || k >= len(c.residuals) {
		return 0, fmt.Errorf("core: slot %d out of range [0,%d)", k, len(c.residuals))
	}
	if !(alpha > 0 && alpha < 1) { // written so that NaN fails it too
		return 0, fmt.Errorf("core: alpha %f outside (0,1)", alpha)
	}
	rs := c.residuals[k]
	n := len(rs)
	rank := int(math.Ceil(float64(n+1) * (1 - alpha)))
	if rank > n {
		// Not enough calibration data for this coverage level: be
		// conservative and return the max residual.
		rank = n
	}
	return rs[rank-1], nil
}

// Interval returns the fused estimate with its conformal band at grid index
// k, given the per-timestamp raw predictions so far (chronological, length
// >= k+1).
func (c *Conformal) Interval(rawTrajectory []float64, k int, alpha float64) (lo, mid, hi float64, err error) {
	if len(rawTrajectory) <= k {
		return 0, 0, 0, fmt.Errorf("core: %d raw predictions for slot %d", len(rawTrajectory), k)
	}
	mid, err = c.pipeline.fuser.Fuse(rawTrajectory[:k+1])
	if err != nil {
		return 0, 0, 0, err
	}
	m, err := c.Margin(k, alpha)
	if err != nil {
		return 0, 0, 0, err
	}
	return mid - m, mid, mid + m, nil
}
