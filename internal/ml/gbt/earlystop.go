package gbt

import (
	"fmt"
	"math"

	"domd/internal/ml"
	"domd/internal/ml/loss"
)

// FitEarlyStopping trains like Fit but monitors the mean loss on a held-out
// validation set after every round and stops once it has not improved for
// patience rounds, returning the model truncated at the best round. This is
// the standard defence against the over-tuning effect the paper observes in
// Fig. 6e (more optimization eventually hurting generalization).
func FitEarlyStopping(p Params, l loss.Loss, train, val *ml.Dataset, patience int) (*Model, int, error) {
	if patience < 1 {
		return nil, 0, fmt.Errorf("gbt: patience %d < 1", patience)
	}
	if err := val.Validate(); err != nil {
		return nil, 0, err
	}
	if val.Y == nil || len(val.Y) == 0 {
		return nil, 0, fmt.Errorf("gbt: early stopping requires validation targets")
	}
	if l == nil {
		l = loss.Squared{}
	}
	m, err := Fit(p, l, train)
	if err != nil {
		return nil, 0, err
	}
	// Replay the ensemble on the validation set round by round; this costs
	// one prediction pass total because contributions accumulate.
	preds := make([]float64, len(val.X))
	for i := range preds {
		preds[i] = m.base
	}
	bestRound, bestLoss := 0, valLoss(l, val, preds)
	for round, tr := range m.trees {
		for i, row := range val.X {
			preds[i] += m.eta * tr.Predict(row)
		}
		cur := valLoss(l, val, preds)
		if cur < bestLoss-1e-12 {
			bestLoss = cur
			bestRound = round + 1
		} else if round+1-bestRound >= patience {
			break
		}
	}
	m.trees = m.trees[:bestRound]
	m.compile()
	return m, bestRound, nil
}

func valLoss(l loss.Loss, val *ml.Dataset, preds []float64) float64 {
	s := 0.0
	for i := range preds {
		s += l.Value(preds[i] - val.Y[i])
	}
	if len(preds) == 0 {
		return math.Inf(1)
	}
	return s / float64(len(preds))
}
