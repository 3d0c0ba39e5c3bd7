package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"domd/internal/features"
)

// topFeaturesSorted is the oracle TopFeatures is held to: the body it had
// before selection replaced sorting — every column's attribution built,
// stable-sorted by descending score, cut to n. One rule is added: NaN
// scores sort after every number. Without it NaN compared equal to every
// score, so where it landed depended on the sort's internals.
func topFeaturesSorted(p *Pipeline, k int, full []float64, n int) []Attribution {
	s := &p.slots[k]
	x := p.slotInput(nil, k, full)
	stats := p.trainStats[k]
	atts := make([]Attribution, 0, len(s.imp))
	for j, im := range s.imp {
		z := 0.0
		if j < len(stats.std) && stats.std[j] > 0 {
			z = math.Abs(x[j]-stats.mean[j]) / stats.std[j]
		}
		name := "STATIC_PRED"
		if j < len(s.cols) {
			name = p.names[s.cols[j]]
		}
		atts = append(atts, Attribution{Name: name, Score: im * (0.5 + z), Value: x[j]})
	}
	slices.SortStableFunc(atts, func(a, b Attribution) int {
		switch {
		case a.Score > b.Score:
			return -1
		case b.Score > a.Score:
			return 1
		case math.IsNaN(a.Score) && !math.IsNaN(b.Score):
			return 1
		case math.IsNaN(b.Score) && !math.IsNaN(a.Score):
			return -1
		}
		return 0
	})
	if n > len(atts) {
		n = len(atts)
	}
	return atts[:n]
}

// fixedModel is an ml.Model with chosen importances; it predicts the sum
// of its first input and half its last, so a stacked column carries a
// real value.
type fixedModel struct{ imp []float64 }

func (m fixedModel) Predict(x []float64) float64 { return x[0] + 0.5*x[len(x)-1] }
func (m fixedModel) Importances() []float64      { return m.imp }

func sameAttributions(a, b []Attribution) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

func TestTopFeaturesMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const width = 40
	names := make([]string, width)
	for i := range names {
		names[i] = fmt.Sprintf("F%02d", i)
	}
	// pick draws from a few values so exact ties are common.
	pick := func(vals ...float64) float64 { return vals[rng.Intn(len(vals))] }
	for trial := 0; trial < 400; trial++ {
		stacked := trial%3 == 0
		nCols := 1 + rng.Intn(width-1)
		cols := rng.Perm(width)[:nCols]
		slices.Sort(cols)
		in := nCols
		if stacked {
			in++
		}
		imp := make([]float64, in)
		mean := make([]float64, in)
		std := make([]float64, in)
		for j := range imp {
			switch trial % 4 {
			case 0: // continuous scores
				imp[j] = rng.Float64() * 10
			case 1: // all zero importances
			default: // many exact ties
				imp[j] = pick(0, 1, 2.5, 2.5)
			}
			mean[j] = pick(0, 1, rng.NormFloat64())
			std[j] = pick(0, 1, 2, rng.Float64())
		}
		p := &Pipeline{
			cfg:        Config{Stacked: stacked},
			names:      names,
			slots:      []slot{newSlot(cols, fixedModel{imp: imp}, nil)},
			trainStats: []colStats{{mean: mean, std: std}},
		}
		if stacked {
			p.staticModel = fixedModel{imp: make([]float64, features.NumStatic)}
		}
		full := make([]float64, width)
		for i := range full {
			full[i] = pick(0, 1, rng.NormFloat64()*3, math.NaN(), math.Inf(1), math.Inf(-1))
		}
		for _, n := range []int{0, 1, 5, in - 1, in, in + 3} {
			got, err := p.TopFeatures(0, full, n)
			if err != nil {
				t.Fatal(err)
			}
			want := topFeaturesSorted(p, 0, full, n)
			if !sameAttributions(got, want) {
				t.Fatalf("trial %d (stacked=%v, n=%d):\nselected %v\nsorted   %v", trial, stacked, n, got, want)
			}
			for i := 1; i < len(got); i++ {
				if math.IsNaN(got[i-1].Score) && !math.IsNaN(got[i].Score) {
					t.Fatalf("trial %d: NaN score ranked above %v", trial, got[i].Score)
				}
			}
		}
	}

	// A trained pipeline, flat and stacked, at every slot.
	tensor, sp := testTensor(t, 40, 13)
	for _, stacked := range []bool{false, true} {
		cfg := fastConfig()
		cfg.Stacked = stacked
		p, err := Train(cfg, tensor, sp.Train, sp.Val)
		if err != nil {
			t.Fatal(err)
		}
		for k := range tensor.Timestamps {
			for _, r := range sp.Test {
				full := tensor.Slices[k].X[r]
				got, err := p.TopFeatures(k, full, 5)
				if err != nil {
					t.Fatal(err)
				}
				if want := topFeaturesSorted(p, k, full, 5); !sameAttributions(got, want) {
					t.Fatalf("stacked=%v slot %d row %d:\nselected %v\nsorted   %v", stacked, k, r, got, want)
				}
			}
		}
	}
}

func TestLoadRejectsMisshapenSlots(t *testing.T) {
	tensor, sp := testTensor(t, 40, 17)
	save := func(stacked bool) pipelineJSON {
		cfg := fastConfig()
		cfg.Stacked = stacked
		p, err := Train(cfg, tensor, sp.Train, sp.Val)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var pj pipelineJSON
		if err := json.Unmarshal(buf.Bytes(), &pj); err != nil {
			t.Fatal(err)
		}
		return pj
	}
	flat, stacked := save(false), save(true)
	load := func(pj pipelineJSON) error {
		raw, err := json.Marshal(pj)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Load(bytes.NewReader(raw))
		if err == nil {
			// Whatever loads must predict and explain without panicking.
			full := tensor.Slices[0].X[sp.Test[0]]
			if _, err := p.PredictAt(0, full); err != nil {
				t.Fatal(err)
			}
			if _, err := p.TopFeatures(0, full, 5); err != nil {
				t.Fatal(err)
			}
		}
		return err
	}
	if err := load(flat); err != nil {
		t.Fatalf("well-formed flat pipeline: %v", err)
	}
	if err := load(stacked); err != nil {
		t.Fatalf("well-formed stacked pipeline: %v", err)
	}

	// clone deep-copies the parts the cases edit.
	clone := func(pj pipelineJSON) pipelineJSON {
		pj.Slots = slices.Clone(pj.Slots)
		for i := range pj.Slots {
			pj.Slots[i].Cols = slices.Clone(pj.Slots[i].Cols)
		}
		pj.TrainStats = slices.Clone(pj.TrainStats)
		return pj
	}
	cases := []struct {
		name, want string
		edit       func(pj *pipelineJSON)
		base       pipelineJSON
	}{
		{"column past the features", "outside", func(pj *pipelineJSON) { pj.Slots[0].Cols[0] = 1e6 }, flat},
		{"negative column", "outside", func(pj *pipelineJSON) { pj.Slots[1].Cols[2] = -1 }, flat},
		{"cols cut to one", "model reads", func(pj *pipelineJSON) { pj.Slots[0].Cols = pj.Slots[0].Cols[:1] }, flat},
		{"stacked slot misses its column", "model reads", func(pj *pipelineJSON) {
			pj.Slots[2].Cols = pj.Slots[2].Cols[:len(pj.Slots[2].Cols)-1]
		}, stacked},
		{"short means", "train stats", func(pj *pipelineJSON) {
			pj.TrainStats[0].Mean = pj.TrainStats[0].Mean[:len(pj.TrainStats[0].Mean)-1]
		}, flat},
		{"long stds", "train stats", func(pj *pipelineJSON) {
			pj.TrainStats[3].Std = append(slices.Clone(pj.TrainStats[3].Std), 1)
		}, stacked},
		{"static model reads dynamics", "static model", func(pj *pipelineJSON) { pj.StaticModel = pj.Slots[0].Model }, stacked},
	}
	for _, c := range cases {
		pj := clone(c.base)
		c.edit(&pj)
		if err := load(pj); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}
