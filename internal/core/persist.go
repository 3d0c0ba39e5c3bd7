package core

import (
	"encoding/json"
	"fmt"
	"io"

	"domd/internal/features"
	"domd/internal/fusion"
	"domd/internal/ml"
	"domd/internal/ml/gbt"
	"domd/internal/ml/linear"
)

// Trained pipelines serialize to JSON so the model bank fitted inside the
// training enclave can be shipped to a serving tier without retraining (the
// paper's deployment splits training and the SMDII front end).

type slotJSON struct {
	Cols   []int           `json:"cols"`
	Params *gbt.Params     `json:"params,omitempty"`
	Model  json.RawMessage `json:"model"`
}

type colStatsJSON struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

type pipelineJSON struct {
	Config      Config          `json:"config"`
	Timestamps  []float64       `json:"timestamps"`
	Names       []string        `json:"names"`
	Slots       []slotJSON      `json:"slots"`
	StaticModel json.RawMessage `json:"static_model,omitempty"`
	TrainStats  []colStatsJSON  `json:"train_stats"`
}

func marshalModel(cfg Config, m ml.Model) (json.RawMessage, error) {
	switch cfg.Family {
	case FamilyXGBoost:
		gm, ok := m.(*gbt.Model)
		if !ok {
			return nil, fmt.Errorf("core: model is %T, want *gbt.Model", m)
		}
		return json.Marshal(gm)
	case FamilyElasticNet:
		lm, ok := m.(*linear.Model)
		if !ok {
			return nil, fmt.Errorf("core: model is %T, want *linear.Model", m)
		}
		return json.Marshal(lm)
	default:
		return nil, fmt.Errorf("core: cannot serialize family %q", cfg.Family)
	}
}

func unmarshalModel(cfg Config, raw json.RawMessage) (ml.Model, error) {
	switch cfg.Family {
	case FamilyXGBoost:
		m := &gbt.Model{}
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, err
		}
		return m, nil
	case FamilyElasticNet:
		m := &linear.Model{}
		if err := json.Unmarshal(raw, m); err != nil {
			return nil, err
		}
		if len(m.Coef) == 0 {
			return nil, fmt.Errorf("core: linear model has no coefficients")
		}
		return m, nil
	default:
		return nil, fmt.Errorf("core: cannot deserialize family %q", cfg.Family)
	}
}

// Save writes the trained pipeline as JSON.
func (p *Pipeline) Save(w io.Writer) error {
	pj := pipelineJSON{
		Config:     p.cfg,
		Timestamps: p.timestamps,
		Names:      p.names,
	}
	for _, s := range p.slots {
		raw, err := marshalModel(p.cfg, s.model)
		if err != nil {
			return err
		}
		pj.Slots = append(pj.Slots, slotJSON{Cols: s.cols, Params: s.params, Model: raw})
	}
	if p.staticModel != nil {
		raw, err := marshalModel(p.cfg, p.staticModel)
		if err != nil {
			return err
		}
		pj.StaticModel = raw
	}
	for _, cs := range p.trainStats {
		pj.TrainStats = append(pj.TrainStats, colStatsJSON{Mean: cs.mean, Std: cs.std})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(pj)
}

// Load reconstructs a pipeline saved with Save.
func Load(r io.Reader) (*Pipeline, error) {
	var pj pipelineJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	if err := pj.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	if len(pj.Slots) == 0 || len(pj.Slots) != len(pj.Timestamps) {
		return nil, fmt.Errorf("core: load pipeline: %d slots for %d timestamps", len(pj.Slots), len(pj.Timestamps))
	}
	if len(pj.TrainStats) != len(pj.Slots) {
		return nil, fmt.Errorf("core: load pipeline: %d train stats for %d slots", len(pj.TrainStats), len(pj.Slots))
	}
	fuser, err := fusion.New(pj.Config.Fusion)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:        pj.Config,
		timestamps: pj.Timestamps,
		names:      pj.Names,
		fuser:      fuser,
	}
	for i, sj := range pj.Slots {
		m, err := unmarshalModel(pj.Config, sj.Model)
		if err != nil {
			return nil, fmt.Errorf("core: load slot %d: %w", i, err)
		}
		p.slots = append(p.slots, newSlot(sj.Cols, m, sj.Params))
	}
	if pj.Config.Stacked {
		if pj.StaticModel == nil {
			return nil, fmt.Errorf("core: load pipeline: stacked config without static model")
		}
		p.staticModel, err = unmarshalModel(pj.Config, pj.StaticModel)
		if err != nil {
			return nil, fmt.Errorf("core: load static model: %w", err)
		}
	}
	for _, cs := range pj.TrainStats {
		p.trainStats = append(p.trainStats, colStats{mean: cs.Mean, std: cs.Std})
	}
	if err := p.checkShapes(); err != nil {
		return nil, fmt.Errorf("core: load pipeline: %w", err)
	}
	return p, nil
}

// CheckFeatureNames reports an error unless the pipeline was trained on
// exactly names, in order: the full vector a feature extractor gives it
// (features.Extractor.Names). Load checks a pipeline against its own
// names list only, so whoever pairs a loaded pipeline with an extractor
// checks here; a wider list passes Load and then indexes past the served
// vector on the first prediction.
func (p *Pipeline) CheckFeatureNames(names []string) error {
	if len(p.names) != len(names) {
		return fmt.Errorf("core: pipeline reads %d features, the extractor gives %d", len(p.names), len(names))
	}
	for i := range names {
		if p.names[i] != names[i] {
			return fmt.Errorf("core: pipeline feature %d is %q, the extractor's is %q", i, p.names[i], names[i])
		}
	}
	return nil
}

// checkShapes rejects a pipeline whose slots would index out of range on
// the first prediction or explanation: every column must name a feature,
// and each slot's model and training statistics must be as wide as its
// input (its columns, plus the static prediction when stacked). The
// stacked static model reads only the static features.
func (p *Pipeline) checkShapes() error {
	for k := range p.slots {
		s := &p.slots[k]
		for _, c := range s.cols {
			if c < 0 || c >= len(p.names) {
				return fmt.Errorf("slot %d: column %d outside the %d features", k, c, len(p.names))
			}
		}
		width := len(s.cols)
		if p.cfg.Stacked {
			width++
		}
		if len(s.imp) != width {
			return fmt.Errorf("slot %d: model reads %d inputs, slot has %d", k, len(s.imp), width)
		}
		if cs := p.trainStats[k]; len(cs.mean) != width || len(cs.std) != width {
			return fmt.Errorf("slot %d: train stats have %d means and %d stds for %d inputs",
				k, len(cs.mean), len(cs.std), width)
		}
	}
	if p.staticModel != nil {
		if n := len(p.staticModel.Importances()); n > features.NumStatic {
			return fmt.Errorf("static model reads %d inputs, there are %d static features", n, features.NumStatic)
		}
	}
	return nil
}
