package gbt

import (
	"encoding/json"
	"fmt"
	"math"

	"domd/internal/ml/tree"
)

// modelJSON is the serialized form of a trained booster. Trees marshal
// directly: tree.Node is an exported recursive struct.
type modelJSON struct {
	Base        float64      `json:"base"`
	Eta         float64      `json:"eta"`
	NumFeatures int          `json:"num_features"`
	Trees       []*tree.Node `json:"trees"`
}

// MarshalJSON implements json.Marshaler so trained boosters can be persisted
// and reloaded (the deployed pipeline retrains in its enclave and ships the
// fitted model bank to the serving tier).
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{
		Base:        m.base,
		Eta:         m.eta,
		NumFeatures: m.nFeature,
		Trees:       m.trees,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	var mj modelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return fmt.Errorf("gbt: unmarshal model: %w", err)
	}
	if mj.NumFeatures < 1 || mj.NumFeatures > math.MaxInt32 {
		return fmt.Errorf("gbt: unmarshal model: invalid feature count %d", mj.NumFeatures)
	}
	for i, t := range mj.Trees {
		if t == nil {
			return fmt.Errorf("gbt: unmarshal model: tree %d is null", i)
		}
		if err := validateTree(t, mj.NumFeatures, 0); err != nil {
			return fmt.Errorf("gbt: unmarshal model: tree %d: %w", i, err)
		}
	}
	m.base = mj.Base
	m.eta = mj.Eta
	m.nFeature = mj.NumFeatures
	m.trees = mj.Trees
	m.compile()
	return nil
}

// validateTree rejects structurally broken trees (missing children, split
// feature out of range, deeper than MaxTreeDepth) so a corrupt file can
// neither panic Predict nor blow up the compiled layout. depth is n's.
func validateTree(n *tree.Node, numFeatures, depth int) error {
	if n.IsLeaf() {
		return nil
	}
	if depth >= MaxTreeDepth {
		return fmt.Errorf("tree deeper than %d", MaxTreeDepth)
	}
	if n.Feature >= numFeatures {
		return fmt.Errorf("split feature %d out of range [0,%d)", n.Feature, numFeatures)
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("internal node missing children")
	}
	if err := validateTree(n.Left, numFeatures, depth+1); err != nil {
		return err
	}
	return validateTree(n.Right, numFeatures, depth+1)
}
