// Package core implements the paper's primary contribution: the DoMD
// estimation pipeline ℳ(x̂) of Problem 2 and the DoMD query answering of
// Problem 1.
//
// A trained Pipeline holds one supervised model per logical timestamp of the
// t* grid (0, x, 2x, …, 100). Each model sees the 8 static features plus the
// top-k generated features chosen by the configured selection method;
// predictions along the timeline are combined by the configured fusion
// technique. The stacked architecture of Fig. 4 (a static "base" model whose
// prediction feeds the timeline models) is available as an option, though
// the paper's experiments favour the non-stacked form.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"domd/internal/featsel"
	"domd/internal/features"
	"domd/internal/fusion"
	"domd/internal/hpt"
	"domd/internal/metrics"
	"domd/internal/ml"
	"domd/internal/ml/gbt"
	"domd/internal/ml/linear"
	"domd/internal/ml/loss"
)

// ModelFamily names a base model family m ∈ M (Task 3).
type ModelFamily string

// The two families evaluated in §5.2.2.
const (
	FamilyXGBoost    ModelFamily = "xgboost"
	FamilyElasticNet ModelFamily = "elasticnet"
)

// Config is the pipeline parameter vector x = (s, m, l, p, f) of Problem 2
// plus the operational knobs (k, gap interval, seeds).
type Config struct {
	// Selector is the feature-selection method ŝ (featsel.Method*).
	Selector string
	// K is the generated-feature budget (paper: 60).
	K int
	// Family is the base model family m̂.
	Family ModelFamily
	// Stacked selects the Fig. 4 architecture (static base model feeding
	// timeline models) instead of the flat one.
	Stacked bool
	// Loss is the training loss l̂ ("l2", "l1", "huber", "pseudohuber").
	Loss string
	// LossDelta is the (pseudo-)Huber δ (paper: 18); 0 uses the default.
	LossDelta float64
	// HPTTrials is the AutoHPT budget per timeline model; 0 disables
	// tuning and uses defaults (the f⁰/H⁰ of the greedy design stages).
	HPTTrials int
	// HPTMethod selects the tuner ("tpe" or "random").
	HPTMethod string
	// Fusion is the ensembling technique f̂ ("none", "min", "average").
	Fusion string
	// Workers bounds concurrent per-timestamp model training; values <= 1
	// train serially. Training is deterministic either way.
	Workers int
	// Seed drives all stochastic components.
	Seed int64
	// GBTParams are the booster defaults used when HPTTrials == 0 (and as
	// the starting point otherwise). Zero value means gbt.DefaultParams.
	GBTParams *gbt.Params
	// ElasticNet parameters for the linear family.
	ENParams *linear.Params
}

// DefaultConfig is the paper's selected configuration (§5.2.2): Pearson
// k=60, XGBoost, non-stacked, pseudo-Huber(18), 30 TPE trials, average
// fusion.
func DefaultConfig() Config {
	return Config{
		Selector:  featsel.MethodPearson,
		K:         60,
		Family:    FamilyXGBoost,
		Stacked:   false,
		Loss:      "pseudohuber",
		LossDelta: loss.PaperDelta,
		HPTTrials: 30,
		HPTMethod: "tpe",
		Fusion:    fusion.MethodAverage,
		Seed:      1,
	}
}

// BaselineConfig is the default configuration the greedy design process
// starts from: default model (XGBoost defaults), ℓ2 loss, no tuning, no
// fusion — the m⁰, l⁰, H⁰, f⁰ of Tasks 2-6.
func BaselineConfig() Config {
	return Config{
		Selector: featsel.MethodPearson,
		K:        60,
		Family:   FamilyXGBoost,
		Loss:     "l2",
		Fusion:   fusion.MethodNone,
		Seed:     1,
	}
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("core: k = %d < 1", c.K)
	}
	switch c.Family {
	case FamilyXGBoost, FamilyElasticNet:
	default:
		return fmt.Errorf("core: unknown model family %q", c.Family)
	}
	if _, err := loss.Parse(c.Loss, c.LossDelta); err != nil {
		return err
	}
	if _, err := fusion.New(c.Fusion); err != nil {
		return err
	}
	if c.HPTTrials < 0 {
		return fmt.Errorf("core: negative HPT trials %d", c.HPTTrials)
	}
	return nil
}

// slot is the trained model at one logical timestamp.
type slot struct {
	// cols are the columns of the full feature vector this model reads
	// (statics + selected dynamics), ascending.
	cols  []int
	model ml.Model
	// params records tuned booster hyperparameters (nil when untuned or
	// linear).
	params *gbt.Params
	// imp is model.Importances(), computed once when the slot is built:
	// models are immutable, and TopFeatures reads it on every query.
	imp []float64
}

// newSlot builds a slot and caches its model's importances.
func newSlot(cols []int, model ml.Model, params *gbt.Params) slot {
	return slot{cols: cols, model: model, params: params, imp: model.Importances()}
}

// Pipeline is a trained DoMD estimator.
type Pipeline struct {
	cfg        Config
	timestamps []float64
	slots      []slot
	// static base model of the stacked architecture (nil when flat).
	staticModel ml.Model
	fuser       fusion.Fuser
	names       []string
	// colMean/colStd of the training slice per t*, for attribution.
	trainStats []colStats
}

type colStats struct {
	mean, std []float64
}

// Timestamps returns the trained t* grid.
func (p *Pipeline) Timestamps() []float64 { return p.timestamps }

// WithFusion returns a copy of the pipeline that fuses with the named
// technique instead. The model bank is shared (fusion affects only how the
// per-timestamp predictions are combined), which is how Task 6 evaluates
// ensembling methods without retraining.
func (p *Pipeline) WithFusion(name string) (*Pipeline, error) {
	fuser, err := fusion.New(name)
	if err != nil {
		return nil, err
	}
	cp := *p
	cp.fuser = fuser
	cp.cfg.Fusion = name
	return &cp, nil
}

// Config returns the configuration the pipeline was trained with.
func (p *Pipeline) Config() Config { return p.cfg }

// trainerFor builds the ml.Trainer for the configured family/loss/params.
func trainerFor(cfg Config, params *gbt.Params) (ml.Trainer, error) {
	switch cfg.Family {
	case FamilyXGBoost:
		l, err := loss.Parse(cfg.Loss, cfg.LossDelta)
		if err != nil {
			return nil, err
		}
		gp := gbt.DefaultParams()
		if cfg.GBTParams != nil {
			gp = *cfg.GBTParams
		}
		if params != nil {
			gp = *params
		}
		gp.Seed = cfg.Seed
		return gbt.NewTrainer(gp, l), nil
	case FamilyElasticNet:
		ep := linear.DefaultParams()
		if cfg.ENParams != nil {
			ep = *cfg.ENParams
		}
		return linear.NewTrainer(ep), nil
	default:
		return nil, fmt.Errorf("core: unknown family %q", cfg.Family)
	}
}

// selectorFor builds the configured feature selector. RFE refits the base
// model once per elimination round over up to ~1500 features, so it gets a
// reduced-round booster for its internal refits (the ranking, not the final
// model, is what RFE needs).
func selectorFor(cfg Config) (featsel.Selector, error) {
	rfeCfg := cfg
	if cfg.Family == FamilyXGBoost {
		p := gbt.DefaultParams()
		if cfg.GBTParams != nil {
			p = *cfg.GBTParams
		}
		if p.NumRounds > 15 {
			p.NumRounds = 15
		}
		if p.MaxDepth > 3 {
			p.MaxDepth = 3
		}
		rfeCfg.GBTParams = &p
	}
	tr, err := trainerFor(rfeCfg, nil)
	if err != nil {
		return nil, err
	}
	return featsel.New(cfg.Selector, featsel.Options{Trainer: tr, Seed: cfg.Seed, RFEStep: 0.5})
}

// Train fits the pipeline on the tensor rows listed in trainRows. valRows,
// when non-empty, drive hyperparameter tuning (ignored when HPTTrials == 0).
func Train(cfg Config, tensor *features.Tensor, trainRows, valRows []int) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(trainRows) == 0 {
		return nil, fmt.Errorf("core: no training rows")
	}
	if cfg.HPTTrials > 0 && len(valRows) == 0 {
		return nil, fmt.Errorf("core: HPT requires validation rows")
	}
	fuser, err := fusion.New(cfg.Fusion)
	if err != nil {
		return nil, err
	}
	sel, err := selectorFor(cfg)
	if err != nil {
		return nil, err
	}

	p := &Pipeline{
		cfg:        cfg,
		timestamps: tensor.Timestamps,
		fuser:      fuser,
		names:      tensor.Slices[0].Names,
	}

	// Static columns are always included (selection applies to generated
	// features only, §3.2.1).
	staticCols := make([]int, features.NumStatic)
	for j := range staticCols {
		staticCols[j] = j
	}

	// Stacked architecture: fit the base model on statics only, once
	// (statics are time-invariant, so any slice works).
	var staticPredTrain, staticPredVal []float64
	if cfg.Stacked {
		base := tensor.Slices[0].Subset(trainRows).Select(staticCols)
		tr, err := trainerFor(cfg, nil)
		if err != nil {
			return nil, err
		}
		p.staticModel, err = tr.Fit(base)
		if err != nil {
			return nil, fmt.Errorf("core: static base model: %w", err)
		}
		staticPredTrain = predictStatic(p.staticModel, tensor.Slices[0], trainRows, staticCols)
		staticPredVal = predictStatic(p.staticModel, tensor.Slices[0], valRows, staticCols)
	}

	// Per-timestamp models are independent given the (precomputed) static
	// predictions, so they train concurrently when Workers > 1. Results
	// land in position k regardless of completion order, keeping training
	// fully deterministic.
	nSlots := len(tensor.Timestamps)
	p.slots = make([]slot, nSlots)
	p.trainStats = make([]colStats, nSlots)
	errs := make([]error, nSlots)

	trainSlot := func(k int) {
		ts := tensor.Timestamps[k]
		slice := tensor.Slices[k]
		train := slice.Subset(trainRows)

		// Task 2: score generated features on the training slice.
		dynCols := make([]int, slice.NumCols()-features.NumStatic)
		for j := range dynCols {
			dynCols[j] = features.NumStatic + j
		}
		dynTrain := train.Select(dynCols)
		selected, err := sel.Select(dynTrain, cfg.K)
		if err != nil {
			errs[k] = fmt.Errorf("core: feature selection @%g: %w", ts, err)
			return
		}
		cols := make([]int, 0, features.NumStatic+len(selected))
		if !cfg.Stacked {
			cols = append(cols, staticCols...)
		}
		for _, j := range selected {
			cols = append(cols, features.NumStatic+j)
		}
		sort.Ints(cols)

		fitSet := train.Select(cols)
		if cfg.Stacked {
			fitSet, err = fitSet.AppendColumn("STATIC_PRED", staticPredTrain)
			if err != nil {
				errs[k] = err
				return
			}
		}

		var tuned *gbt.Params
		if cfg.HPTTrials > 0 && cfg.Family == FamilyXGBoost {
			valSet := slice.Subset(valRows).Select(cols)
			if cfg.Stacked {
				valSet, err = valSet.AppendColumn("STATIC_PRED", staticPredVal)
				if err != nil {
					errs[k] = err
					return
				}
			}
			tuned, err = tuneGBT(cfg, fitSet, valSet, int64(k))
			if err != nil {
				errs[k] = fmt.Errorf("core: tuning @%g: %w", ts, err)
				return
			}
		}

		tr, err := trainerFor(cfg, tuned)
		if err != nil {
			errs[k] = err
			return
		}
		model, err := tr.Fit(fitSet)
		if err != nil {
			errs[k] = fmt.Errorf("core: fit @%g: %w", ts, err)
			return
		}
		p.slots[k] = newSlot(cols, model, tuned)
		p.trainStats[k] = newColStats(fitSet)
	}

	workers := cfg.Workers
	if workers <= 1 {
		for k := 0; k < nSlots; k++ {
			trainSlot(k)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for k := 0; k < nSlots; k++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(k int) {
				defer wg.Done()
				defer func() { <-sem }()
				trainSlot(k)
			}(k)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

func predictStatic(m ml.Model, slice *ml.Dataset, rows []int, staticCols []int) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		x := make([]float64, len(staticCols))
		for j, c := range staticCols {
			x[j] = slice.X[r][c]
		}
		out[i] = m.Predict(x)
	}
	return out
}

// tuneGBT runs AutoHPT for one timeline model: minimize val MAE over the
// XGBoost space.
func tuneGBT(cfg Config, train, val *ml.Dataset, saltSeed int64) (*gbt.Params, error) {
	l, err := loss.Parse(cfg.Loss, cfg.LossDelta)
	if err != nil {
		return nil, err
	}
	obj := func(c hpt.Config) (float64, error) {
		params := paramsFromConfig(c, cfg.Seed)
		m, err := gbt.Fit(params, l, train)
		if err != nil {
			return 0, err
		}
		mae, err := metrics.MAE(val.Y, ml.PredictBatch(m, val.X))
		if err != nil {
			return 0, err
		}
		return mae, nil
	}
	var tuner hpt.Tuner
	switch cfg.HPTMethod {
	case "", "tpe":
		tuner = &hpt.TPE{Seed: cfg.Seed + saltSeed}
	case "random":
		tuner = &hpt.RandomSearch{Seed: cfg.Seed + saltSeed}
	default:
		return nil, fmt.Errorf("core: unknown HPT method %q", cfg.HPTMethod)
	}
	res, err := tuner.Optimize(hpt.XGBoostSpace(), obj, cfg.HPTTrials)
	if err != nil {
		return nil, err
	}
	best := paramsFromConfig(res.Best.Config, cfg.Seed)
	return &best, nil
}

func paramsFromConfig(c hpt.Config, seed int64) gbt.Params {
	return gbt.Params{
		NumRounds:       int(c["num_rounds"]),
		LearningRate:    c["learning_rate"],
		MaxDepth:        int(c["max_depth"]),
		MinChildWeight:  c["min_child_weight"],
		Lambda:          c["lambda"],
		Gamma:           c["gamma"],
		Subsample:       c["subsample"],
		ColsampleByTree: c["colsample"],
		Seed:            seed,
	}
}

func newColStats(d *ml.Dataset) colStats {
	p := d.NumCols()
	cs := colStats{mean: make([]float64, p), std: make([]float64, p)}
	n := float64(d.NumRows())
	for j := 0; j < p; j++ {
		for i := range d.X {
			cs.mean[j] += d.X[i][j]
		}
		cs.mean[j] /= n
		for i := range d.X {
			dv := d.X[i][j] - cs.mean[j]
			cs.std[j] += dv * dv
		}
		cs.std[j] = math.Sqrt(cs.std[j] / n)
	}
	return cs
}

// slotInput assembles the model input for the slot at position k from a
// full feature vector into dst, reusing its storage, and returns it.
func (p *Pipeline) slotInput(dst []float64, k int, full []float64) []float64 {
	s := &p.slots[k]
	dst = dst[:0]
	for _, c := range s.cols {
		dst = append(dst, full[c])
	}
	if p.cfg.Stacked {
		dst = append(dst, p.staticPred(full))
	}
	return dst
}

func (p *Pipeline) staticPred(full []float64) float64 {
	return p.staticModel.Predict(full[:features.NumStatic])
}

// PredictAt estimates delay at the grid timestamp index k from the full
// feature vector at that timestamp (no fusion).
func (p *Pipeline) PredictAt(k int, full []float64) (float64, error) {
	if k < 0 || k >= len(p.slots) {
		return 0, fmt.Errorf("core: slot %d out of range [0,%d)", k, len(p.slots))
	}
	return p.slots[k].model.Predict(p.slotInput(nil, k, full)), nil
}

// Trajectory answers a DoMD query (Problem 1): given the full feature
// vectors observed at grid timestamps 0..upto (inclusive, indices into
// Timestamps), it returns the raw per-timestamp estimates and the
// progressively fused estimates (fusing predictions 0..j at each j).
func (p *Pipeline) Trajectory(fulls [][]float64, upto int) (raw, fused []float64, err error) {
	if upto < 0 || upto >= len(p.slots) {
		return nil, nil, fmt.Errorf("core: upto %d out of range [0,%d)", upto, len(p.slots))
	}
	if len(fulls) <= upto {
		return nil, nil, fmt.Errorf("core: %d feature vectors for %d timestamps", len(fulls), upto+1)
	}
	// raw, fused and one slot-input buffer reused by every slot share an
	// allocation: models do not retain their input.
	n := upto + 1
	buf := make([]float64, 2*n+len(p.slots[upto].cols)+1)
	raw, fused = buf[:n:n], buf[n:2*n:2*n]
	x := buf[2*n : 2*n]
	for k := 0; k <= upto; k++ {
		x = p.slotInput(x, k, fulls[k])
		raw[k] = p.slots[k].model.Predict(x)
		fused[k], err = p.fuser.Fuse(raw[:k+1])
		if err != nil {
			return nil, nil, err
		}
	}
	return raw, fused, nil
}

// EvaluateRows computes the Table 7 quality metrics per logical timestamp
// over the given tensor rows, using progressively fused predictions.
// The returned slice aligns with Timestamps.
func (p *Pipeline) EvaluateRows(tensor *features.Tensor, rows []int) ([]metrics.Report, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: no rows to evaluate")
	}
	if len(tensor.Timestamps) != len(p.timestamps) {
		return nil, fmt.Errorf("core: tensor has %d timestamps, pipeline %d", len(tensor.Timestamps), len(p.timestamps))
	}
	n := len(rows)
	// fusedAt[k][i]: fused prediction at timestamp k for row i.
	preds := make([][]float64, len(p.timestamps))
	trajs := make([][]float64, n) // raw predictions per row
	for i := range trajs {
		trajs[i] = make([]float64, 0, len(p.timestamps))
	}
	for k := range p.timestamps {
		preds[k] = make([]float64, n)
		for i, r := range rows {
			raw, err := p.PredictAt(k, tensor.Slices[k].X[r])
			if err != nil {
				return nil, err
			}
			trajs[i] = append(trajs[i], raw)
			fused, err := p.fuser.Fuse(trajs[i])
			if err != nil {
				return nil, err
			}
			preds[k][i] = fused
		}
	}
	y := make([]float64, n)
	for i, r := range rows {
		y[i] = tensor.Slices[0].Y[r]
	}
	reports := make([]metrics.Report, len(p.timestamps))
	for k := range p.timestamps {
		rep, err := metrics.Evaluate(y, preds[k])
		if err != nil {
			return nil, err
		}
		reports[k] = rep
	}
	return reports, nil
}

// SumValMAE is the greedy design objective of Problem 2: the sum over the
// timeline of validation MAE (with this pipeline's fusion applied).
func (p *Pipeline) SumValMAE(tensor *features.Tensor, rows []int) (float64, error) {
	reports, err := p.EvaluateRows(tensor, rows)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, r := range reports {
		sum += r.MAE
	}
	return sum, nil
}

// GlobalImportances aggregates gain importances across every timeline
// model, mapping them back to feature names — the fleet-level "what drives
// delay" view SMEs review, complementing the per-avail TopFeatures.
// The result maps feature name to summed gain, normalized to 1.
func (p *Pipeline) GlobalImportances() map[string]float64 {
	out := make(map[string]float64)
	total := 0.0
	add := func(name string, v float64) {
		out[name] += v
		total += v
	}
	for k := range p.slots {
		s := &p.slots[k]
		for j, v := range s.imp {
			if v == 0 { //lint:ignore floateq zero is the exact "feature unused" sentinel from Importances
				continue
			}
			if j < len(s.cols) {
				add(p.names[s.cols[j]], v)
			} else {
				add("STATIC_PRED", v)
			}
		}
	}
	if p.staticModel != nil {
		for j, v := range p.staticModel.Importances() {
			if v != 0 && j < features.NumStatic { //lint:ignore floateq zero is the exact "feature unused" sentinel from Importances
				add(p.names[j], v)
			}
		}
	}
	if total > 0 {
		for name := range out {
			out[name] /= total
		}
	}
	return out
}

// Attribution is one entry of the top-k contributing features of §5.2.5.
type Attribution struct {
	Name string
	// Score is the model's gain importance weighted by how unusual this
	// avail's value is (|z-score| against the training distribution).
	Score float64
	// Value is the avail's raw feature value.
	Value float64
}

// TopFeatures explains the prediction at grid index k for the given full
// feature vector: the n features with the highest importance × |z| scores,
// best first. Equal scores keep column order, and NaN scores rank after
// every number. The n winners are selected in one pass over the columns.
func (p *Pipeline) TopFeatures(k int, full []float64, n int) ([]Attribution, error) {
	if k < 0 || k >= len(p.slots) {
		return nil, fmt.Errorf("core: slot %d out of range", k)
	}
	s := &p.slots[k]
	stats := p.trainStats[k]
	top := make([]Attribution, 0, min(max(n, 0), len(s.imp)))
	for j, im := range s.imp {
		var x float64
		if j < len(s.cols) {
			x = full[s.cols[j]]
		} else {
			x = p.staticPred(full)
		}
		z := 0.0
		if j < len(stats.std) && stats.std[j] > 0 {
			z = math.Abs(x-stats.mean[j]) / stats.std[j]
		}
		score := im * (0.5 + z)
		// top stays sorted: column j lands after every kept entry it does
		// not outrank, which is where a stable sort would put it.
		pos := len(top)
		for pos > 0 && outranks(score, top[pos-1].Score) {
			pos--
		}
		if pos == cap(top) {
			continue
		}
		if len(top) < cap(top) {
			top = append(top, Attribution{})
		}
		copy(top[pos+1:], top[pos:])
		name := "STATIC_PRED"
		if j < len(s.cols) {
			name = p.names[s.cols[j]]
		}
		top[pos] = Attribution{Name: name, Score: score, Value: x}
	}
	return top, nil
}

// outranks orders attribution scores: descending, NaN last.
func outranks(a, b float64) bool {
	return a > b || (math.IsNaN(b) && !math.IsNaN(a))
}
