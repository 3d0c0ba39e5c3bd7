package core

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	tensor, sp := testTensor(t, 50, 41)
	p, err := Train(fastConfig(), tensor, sp.Train, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions everywhere.
	for k := range tensor.Timestamps {
		for _, r := range sp.Test {
			a, err := p.PredictAt(k, tensor.Slices[k].X[r])
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.PredictAt(k, tensor.Slices[k].X[r])
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("slot %d row %d: %f vs %f after reload", k, r, a, b)
			}
		}
	}
	// Fused evaluation identical too.
	ra, err := p.EvaluateRows(tensor, sp.Test)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := back.EvaluateRows(tensor, sp.Test)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ra {
		if ra[k] != rb[k] {
			t.Fatalf("report %d differs after reload", k)
		}
	}
	// Attribution survives (train stats persisted).
	aa, err := p.TopFeatures(2, tensor.Slices[2].X[sp.Test[0]], 3)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := back.TopFeatures(2, tensor.Slices[2].X[sp.Test[0]], 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aa {
		if aa[i] != ab[i] {
			t.Fatalf("attribution %d differs after reload", i)
		}
	}
}

func TestSaveLoadStacked(t *testing.T) {
	tensor, sp := testTensor(t, 40, 42)
	cfg := fastConfig()
	cfg.Stacked = true
	p, err := Train(cfg, tensor, sp.Train, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.staticModel == nil {
		t.Fatal("stacked pipeline lost its static model")
	}
	x := tensor.Slices[1].X[sp.Test[0]]
	a, _ := p.PredictAt(1, x)
	b, _ := back.PredictAt(1, x)
	if a != b {
		t.Fatalf("stacked prediction differs: %f vs %f", a, b)
	}
}

func TestSaveLoadElasticNet(t *testing.T) {
	tensor, sp := testTensor(t, 40, 43)
	cfg := fastConfig()
	cfg.Family = FamilyElasticNet
	p, err := Train(cfg, tensor, sp.Train, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Slices[0].X[sp.Test[0]]
	a, _ := p.PredictAt(0, x)
	b, _ := back.PredictAt(0, x)
	if a != b {
		t.Fatal("elastic-net prediction differs after reload")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"not json":        "not json at all",
		"empty object":    "{}",
		"slot mismatch":   `{"config":{"Selector":"pearson","K":10,"Family":"xgboost","Loss":"l2","Fusion":"none"},"timestamps":[0,50],"slots":[],"train_stats":[]}`,
		"stacked missing": `{"config":{"Selector":"pearson","K":10,"Family":"xgboost","Stacked":true,"Loss":"l2","Fusion":"none"},"timestamps":[0],"slots":[{"cols":[0],"model":{"base":0,"eta":0.1,"num_features":1,"trees":[]}}],"train_stats":[{"mean":[0],"std":[1]}]}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestLoadRejectsCorruptTree(t *testing.T) {
	// An internal node (feature >= 0) without children must be rejected
	// rather than panicking at predict time.
	in := `{"config":{"Selector":"pearson","K":10,"Family":"xgboost","Loss":"l2","Fusion":"none"},
		"timestamps":[0],
		"slots":[{"cols":[0],"model":{"base":0,"eta":0.1,"num_features":1,
			"trees":[{"Feature":0,"Threshold":1,"Weight":0,"Gain":1}]}}],
		"train_stats":[{"mean":[0],"std":[1]}]}`
	if _, err := Load(strings.NewReader(in)); err == nil {
		t.Error("corrupt tree: want error")
	}
	// Split feature out of range.
	in2 := strings.Replace(in, `"Feature":0`, `"Feature":7`, 1)
	if _, err := Load(strings.NewReader(in2)); err == nil {
		t.Error("out-of-range feature: want error")
	}
}

// TestLoadIgnoresRetiredParamsKeys: pipelines saved before the booster lost
// its split-method knobs carry "TreeMethod":"" and "Bins":0 in every
// embedded gbt.Params (the config's and each tuned slot's). Load ignores
// the keys, and the pipeline predicts bit for bit as before.
func TestLoadIgnoresRetiredParamsKeys(t *testing.T) {
	tensor, sp := testTensor(t, 40, 6)
	cfg := fastConfig()
	cfg.HPTTrials = 3
	cfg.HPTMethod = "random"
	p, err := Train(cfg, tensor, sp.Train, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The keys sat between ColsampleByTree and Seed, as the old encoder
	// wrote them.
	old := regexp.MustCompile(`("ColsampleByTree":[^,]+,)("Seed":)`)
	n := len(old.FindAllIndex(buf.Bytes(), -1))
	if want := 1 + len(p.slots); n != want {
		t.Fatalf("%d embedded params, want %d (config + one per slot)", n, want)
	}
	legacy := old.ReplaceAll(buf.Bytes(), []byte(`$1"TreeMethod":"","Bins":0,$2`))
	back, err := Load(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	for k := range tensor.Timestamps {
		for _, r := range sp.Test {
			a, err := p.PredictAt(k, tensor.Slices[k].X[r])
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.PredictAt(k, tensor.Slices[k].X[r])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("slot %d row %d: %v vs %v after loading the old format", k, r, a, b)
			}
		}
	}
	var again bytes.Buffer
	if err := back.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("re-saving the old format does not give the current format")
	}
}
