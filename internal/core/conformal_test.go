package core

import (
	"math"
	"testing"
)

func TestConformalCoverage(t *testing.T) {
	tensor, sp := testTensor(t, 120, 71)
	p, err := Train(fastConfig(), tensor, sp.Train, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConformal(p, tensor, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	// Empirical coverage on the untouched test rows at every timestamp.
	const alpha = 0.2
	covered, total := 0, 0
	for _, r := range sp.Test {
		var traj []float64
		for k := range tensor.Timestamps {
			raw, err := p.PredictAt(k, tensor.Slices[k].X[r])
			if err != nil {
				t.Fatal(err)
			}
			traj = append(traj, raw)
			lo, mid, hi, err := c.Interval(traj, k, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if !(lo <= mid && mid <= hi) {
				t.Fatalf("interval not ordered: %f %f %f", lo, mid, hi)
			}
			y := tensor.Slices[k].Y[r]
			if y >= lo && y <= hi {
				covered++
			}
			total++
		}
	}
	cov := float64(covered) / float64(total)
	// Finite-sample guarantee is >= 1-alpha in expectation over splits;
	// allow sampling slack on a ~30-row test set.
	if cov < 1-alpha-0.15 {
		t.Errorf("coverage %.2f below target %.2f", cov, 1-alpha)
	}
}

func TestConformalMarginsShrinkWithAlpha(t *testing.T) {
	tensor, sp := testTensor(t, 60, 72)
	p, err := Train(fastConfig(), tensor, sp.Train, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConformal(p, tensor, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	for k := range tensor.Timestamps {
		m10, err := c.Margin(k, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		m50, err := c.Margin(k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if m50 > m10 {
			t.Errorf("slot %d: 50%% margin %f exceeds 90%% margin %f", k, m50, m10)
		}
		if m10 < 0 {
			t.Errorf("negative margin %f", m10)
		}
	}
}

func TestConformalErrors(t *testing.T) {
	tensor, sp := testTensor(t, 40, 73)
	p, err := Train(fastConfig(), tensor, sp.Train, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConformal(p, tensor, nil); err == nil {
		t.Error("no calibration rows: want error")
	}
	c, err := NewConformal(p, tensor, sp.Val)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Margin(99, 0.1); err == nil {
		t.Error("slot out of range: want error")
	}
	if _, err := c.Margin(0, 0); err == nil {
		t.Error("alpha 0: want error")
	}
	if _, err := c.Margin(0, 1); err == nil {
		t.Error("alpha 1: want error")
	}
	if _, err := c.Margin(0, math.NaN()); err == nil {
		t.Error("alpha NaN: want error")
	}
	if _, _, _, err := c.Interval([]float64{1}, 3, 0.1); err == nil {
		t.Error("short trajectory: want error")
	}
}
