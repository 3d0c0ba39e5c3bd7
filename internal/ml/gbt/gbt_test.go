package gbt

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"domd/internal/ml"
	"domd/internal/ml/loss"
)

func synthLinear(rng *rand.Rand, n int) *ml.Dataset {
	d := &ml.Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		d.X[i] = []float64{a, b}
		d.Y[i] = 3*a - 2*b + rng.NormFloat64()*0.1
	}
	return d
}

func synthNonlinear(rng *rand.Rand, n int) *ml.Dataset {
	d := &ml.Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		d.X[i] = []float64{a, b, c}
		d.Y[i] = 40*math.Sin(a*5) + 30*a*b + 10*c + rng.NormFloat64()
	}
	return d
}

func mse(m ml.Model, d *ml.Dataset) float64 {
	s := 0.0
	for i, row := range d.X {
		r := d.Y[i] - m.Predict(row)
		s += r * r
	}
	return s / float64(len(d.X))
}

func TestFitsLinearSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := synthLinear(rng, 300)
	test := synthLinear(rng, 100)
	p := DefaultParams()
	p.NumRounds = 200
	m, err := Fit(p, loss.Squared{}, train)
	if err != nil {
		t.Fatal(err)
	}
	// Target variance is ~ (3*10)^2/12 + (2*10)^2/12 ≈ 108; demand R2-like fit.
	if e := mse(m, test); e > 10 {
		t.Errorf("test MSE = %f, want < 10", e)
	}
	if m.NumTrees() != 200 {
		t.Errorf("NumTrees = %d, want 200", m.NumTrees())
	}
}

func TestFitsNonlinearSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := synthNonlinear(rng, 500)
	test := synthNonlinear(rng, 200)
	p := DefaultParams()
	p.NumRounds = 300
	p.MaxDepth = 5
	m, err := Fit(p, loss.Squared{}, train)
	if err != nil {
		t.Fatal(err)
	}
	// Mean-only baseline MSE is Var(y) ≈ 500; boosted model must crush it.
	meanY := 0.0
	for _, y := range test.Y {
		meanY += y
	}
	meanY /= float64(len(test.Y))
	varY := 0.0
	for _, y := range test.Y {
		varY += (y - meanY) * (y - meanY)
	}
	varY /= float64(len(test.Y))
	if e := mse(m, test); e > varY/5 {
		t.Errorf("test MSE = %f, want < var/5 = %f", e, varY/5)
	}
}

func TestMoreRoundsReduceTrainingError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := synthNonlinear(rng, 200)
	var prev = math.Inf(1)
	for _, rounds := range []int{5, 25, 100} {
		p := DefaultParams()
		p.NumRounds = rounds
		m, err := Fit(p, loss.Squared{}, d)
		if err != nil {
			t.Fatal(err)
		}
		e := mse(m, d)
		if e > prev+1e-9 {
			t.Errorf("rounds %d: training MSE %f worse than fewer rounds %f", rounds, e, prev)
		}
		prev = e
	}
}

func TestRobustLossResistsOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Clean linear signal plus gross target outliers in training only.
	train := synthLinear(rng, 300)
	for i := 0; i < 20; i++ {
		train.Y[rng.Intn(len(train.Y))] += 2000
	}
	test := synthLinear(rng, 150)

	p := DefaultParams()
	p.NumRounds = 150
	ph, err := loss.NewPseudoHuber(18)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := Fit(p, ph, train)
	if err != nil {
		t.Fatal(err)
	}
	squared, err := Fit(p, loss.Squared{}, train)
	if err != nil {
		t.Fatal(err)
	}
	er, es := mse(robust, test), mse(squared, test)
	if er >= es {
		t.Errorf("pseudo-huber test MSE %f should beat ℓ2 %f under outliers", er, es)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := synthNonlinear(rng, 150)
	p := DefaultParams()
	p.Subsample = 0.7
	p.ColsampleByTree = 0.7
	p.NumRounds = 30
	m1, err := Fit(p, loss.Squared{}, d)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(p, loss.Squared{}, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x := d.X[i]
		if m1.Predict(x) != m2.Predict(x) {
			t.Fatal("same seed must reproduce identical models")
		}
	}
	p.Seed = 999
	m3, err := Fit(p, loss.Squared{}, d)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := 0; i < len(d.X); i++ {
		if m1.Predict(d.X[i]) != m3.Predict(d.X[i]) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds with subsampling should differ")
	}
}

func TestImportancesIdentifyInformativeFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 400
	d := &ml.Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		signal := rng.Float64()
		noise1, noise2 := rng.Float64(), rng.Float64()
		d.X[i] = []float64{noise1, signal, noise2}
		d.Y[i] = 100*signal*signal + rng.NormFloat64()*0.5
	}
	p := DefaultParams()
	p.NumRounds = 50
	m, err := Fit(p, loss.Squared{}, d)
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importances()
	if len(imp) != 3 {
		t.Fatalf("importances len = %d, want 3", len(imp))
	}
	if imp[1] <= imp[0]*5 || imp[1] <= imp[2]*5 {
		t.Errorf("informative feature should dominate importances: %v", imp)
	}
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{NumRounds: 0, LearningRate: 0.1, Subsample: 1, ColsampleByTree: 1},
		{NumRounds: 1, LearningRate: 0, Subsample: 1, ColsampleByTree: 1},
		{NumRounds: 1, LearningRate: 1.5, Subsample: 1, ColsampleByTree: 1},
		{NumRounds: 1, LearningRate: 0.1, Subsample: 0, ColsampleByTree: 1},
		{NumRounds: 1, LearningRate: 0.1, Subsample: 1, ColsampleByTree: 2},
		{NumRounds: 1, LearningRate: 0.1, Subsample: 1, ColsampleByTree: 1, Lambda: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v): want error", i, p)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("DefaultParams invalid: %v", err)
	}
}

func TestFitErrors(t *testing.T) {
	d := &ml.Dataset{X: [][]float64{{1}, {2}}, Y: []float64{1, 2}}
	if _, err := Fit(Params{}, nil, d); err == nil {
		t.Error("invalid params: want error")
	}
	noY := &ml.Dataset{X: [][]float64{{1}}}
	if _, err := Fit(DefaultParams(), nil, noY); err == nil {
		t.Error("missing targets: want error")
	}
	ragged := &ml.Dataset{X: [][]float64{{1, 2}, {3}}, Y: []float64{1, 2}}
	if _, err := Fit(DefaultParams(), nil, ragged); err == nil {
		t.Error("ragged matrix: want error")
	}
	empty := &ml.Dataset{X: [][]float64{}, Y: []float64{}}
	if _, err := Fit(DefaultParams(), nil, empty); err == nil {
		t.Error("empty dataset: want error")
	}
}

// TestFitRefusesNonFinite: NaN or ±Inf in a feature or a target fails Fit
// with an error naming the row and column.
func TestFitRefusesNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		X    [][]float64
		Y    []float64
		want string
	}{
		{"NaN feature", [][]float64{{1, 2}, {3, nan}}, []float64{1, 2}, "row 1 column 1 (b): non-finite feature value NaN"},
		{"+Inf feature", [][]float64{{inf, 2}, {3, 4}}, []float64{1, 2}, "row 0 column 0 (a): non-finite feature value +Inf"},
		{"-Inf feature", [][]float64{{1, 2}, {-inf, 4}}, []float64{1, 2}, "row 1 column 0 (a): non-finite feature value -Inf"},
		{"NaN target", [][]float64{{1, 2}, {3, 4}}, []float64{nan, 2}, "row 0: non-finite target NaN"},
		{"+Inf target", [][]float64{{1, 2}, {3, 4}}, []float64{1, inf}, "row 1: non-finite target +Inf"},
		{"-Inf target", [][]float64{{1, 2}, {3, 4}}, []float64{-inf, 2}, "row 0: non-finite target -Inf"},
	}
	for _, c := range cases {
		d := &ml.Dataset{X: c.X, Y: c.Y, Names: []string{"a", "b"}}
		_, err := Fit(DefaultParams(), nil, d)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.want)
		}
	}
}

func TestTrainerInterface(t *testing.T) {
	var tr ml.Trainer = NewTrainer(DefaultParams(), nil)
	if tr.Name() != "xgboost" {
		t.Errorf("Name = %q", tr.Name())
	}
	rng := rand.New(rand.NewSource(7))
	d := synthLinear(rng, 100)
	m, err := tr.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Importances()); got != 2 {
		t.Errorf("importances len = %d, want 2", got)
	}
}

func TestConstantTargetPredictsConstant(t *testing.T) {
	d := &ml.Dataset{X: [][]float64{{1}, {2}, {3}, {4}}, Y: []float64{7, 7, 7, 7}}
	m, err := Fit(DefaultParams(), loss.Squared{}, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 2.5, 100} {
		if got := m.Predict([]float64{x}); math.Abs(got-7) > 1e-9 {
			t.Errorf("Predict(%f) = %f, want 7", x, got)
		}
	}
}

func TestQuantileModelsBracketTheCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Heteroscedastic data: spread grows with x.
	n := 600
	d := &ml.Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		x := rng.Float64()
		d.X[i] = []float64{x}
		d.Y[i] = 100*x + rng.NormFloat64()*40*x
	}
	p := DefaultParams()
	p.NumRounds = 80
	fit := func(tau float64) *Model {
		l, err := loss.NewPinball(tau)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Fit(p, l, d)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	lo, mid, hi := fit(0.1), fit(0.5), fit(0.9)
	// Quantile ordering must hold across the feature range, and the band
	// must widen with x (heteroscedasticity).
	var width25, width75 float64
	for _, x := range []float64{0.25, 0.5, 0.75} {
		ql := lo.Predict([]float64{x})
		qm := mid.Predict([]float64{x})
		qh := hi.Predict([]float64{x})
		if !(ql <= qm+5 && qm <= qh+5) {
			t.Errorf("x=%.2f: quantiles not ordered: %f %f %f", x, ql, qm, qh)
		}
		if x == 0.25 {
			width25 = qh - ql
		}
		if x == 0.75 {
			width75 = qh - ql
		}
	}
	if width75 <= width25 {
		t.Errorf("band should widen with x: %f vs %f", width25, width75)
	}
	// Coverage: ~80% of points inside [q10, q90].
	inside := 0
	for i := range d.X {
		ql, qh := lo.Predict(d.X[i]), hi.Predict(d.X[i])
		if d.Y[i] >= ql-1e-9 && d.Y[i] <= qh+1e-9 {
			inside++
		}
	}
	cov := float64(inside) / float64(n)
	if cov < 0.65 || cov > 0.95 {
		t.Errorf("q10-q90 coverage = %.2f, want ≈0.8", cov)
	}
}
