package modelserve

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/fusion"
	"domd/internal/index"
	"domd/internal/ml"
	"domd/internal/ml/gbt"
	"domd/internal/navsim"
	"domd/internal/split"
	"domd/internal/statusq"
)

// fixture is the shared navsim world every registry test trains against:
// one dataset, one tensor, one split — built once per test binary.
type fixture struct {
	ds     *navsim.Dataset
	tensor *features.Tensor
	sp     split.Splits
}

var testFixture = sync.OnceValues(func() (*fixture, error) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		return nil, err
	}
	ext := features.NewExtractor()
	tensor, err := features.BuildTensor(ext, ds.Avails, ds.RCCsByAvail(), 25, index.KindAVL)
	if err != nil {
		return nil, err
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		return nil, err
	}
	return &fixture{ds: ds, tensor: tensor, sp: sp}, nil
})

func mustFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := testFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// testConfig is the small, fast pipeline config the registry tests train
// with (the same shape the server tests use).
func testConfig(seed int64) core.Config {
	cfg := core.BaselineConfig()
	cfg.Fusion = fusion.MethodAverage
	cfg.Seed = seed
	p := gbt.DefaultParams()
	p.NumRounds = 15
	p.LearningRate = 0.3
	cfg.GBTParams = &p
	return cfg
}

// trainTestVersion trains one two-window version per (seed, name); the
// expensive trainings are memoized per test binary.
var versionCache sync.Map // key string -> *TrainedVersion

func trainTestVersion(t *testing.T, seed int64, name string) *TrainedVersion {
	t.Helper()
	key := name
	if v, ok := versionCache.Load(key); ok {
		return v.(*TrainedVersion)
	}
	fx := mustFixture(t)
	tv, err := TrainVersion(fx.tensor, fx.sp.Train, fx.sp.Val, TrainOptions{
		Windows: []Window{{Lo: 0, Hi: 50}, {Lo: 50, Hi: 100}},
		Alpha:   0.2,
		Version: name,
		Config:  testConfig(seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	versionCache.Store(key, tv)
	return tv
}

// engineFor builds a throwaway Status Query engine for one avail.
func engineFor(t *testing.T, fx *fixture, a *domain.Avail) *statusq.Engine {
	t.Helper()
	eng, err := statusq.NewEngine(a, fx.ds.RCCsByAvail()[a.ID], index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func ongoingAvail(t *testing.T, fx *fixture) *domain.Avail {
	t.Helper()
	for i := range fx.ds.Avails {
		if fx.ds.Avails[i].Status == domain.StatusOngoing {
			return &fx.ds.Avails[i]
		}
	}
	t.Fatal("fixture has no ongoing avail")
	return nil
}

func TestParseWindows(t *testing.T) {
	ws, err := ParseWindows("0-50, 50-100")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[0] != (Window{Lo: 0, Hi: 50}) || ws[1] != (Window{Lo: 50, Hi: 100}) {
		t.Fatalf("windows = %v", ws)
	}
	for _, bad := range []string{"", "50-0", "banana", "0-50,25-75,10-20", "-5-10"} {
		if _, err := ParseWindows(bad); err == nil {
			t.Errorf("ParseWindows(%q) accepted", bad)
		}
	}
}

func TestTrainWriteOpenRoundTrip(t *testing.T) {
	fx := mustFixture(t)
	tv := trainTestVersion(t, 1, "v001")
	dir := t.TempDir()
	name, err := tv.WriteTo(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if name != "v001" {
		t.Fatalf("version = %q", name)
	}

	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.ActiveVersion(); got != "v001" {
		t.Fatalf("active = %q", got)
	}
	if got := reg.Alpha(); got != 0.2 {
		t.Fatalf("alpha = %g", got)
	}

	a := ongoingAvail(t, fx)
	eng := engineFor(t, fx, a)
	at := a.PhysicalTime(60)
	p1, err := reg.Predict(eng, at, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Lo > p1.Delay || p1.Delay > p1.Hi {
		t.Fatalf("band [%g, %g] does not contain delay %g", p1.Lo, p1.Hi, p1.Delay)
	}
	if p1.Version != "v001" || p1.WindowFallback {
		t.Fatalf("provenance = %+v", p1)
	}
	if p1.Alpha != 0.2 {
		t.Fatalf("alpha = %g, want the version default", p1.Alpha)
	}

	// A second independent load must answer bitwise identically: the
	// artifacts round-trip the full model state.
	reg2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := reg2.Predict(eng, at, 0)
	if err != nil {
		t.Fatal(err)
	}
	if *p1 != *p2 {
		t.Fatalf("reload changed the answer: %+v vs %+v", p1, p2)
	}

	// A tighter alpha must widen the band around the same point estimate.
	p3, err := reg.Predict(eng, at, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Delay != p1.Delay {
		t.Fatalf("alpha changed the point estimate: %g vs %g", p3.Delay, p1.Delay)
	}
	if p3.Hi-p3.Lo < p1.Hi-p1.Lo {
		t.Fatalf("95%% band [%g, %g] narrower than 80%% band [%g, %g]", p3.Lo, p3.Hi, p1.Lo, p1.Hi)
	}
}

func TestWindowRoutingAndFallback(t *testing.T) {
	fx := mustFixture(t)
	tv := trainTestVersion(t, 1, "v001")
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ongoingAvail(t, fx)
	eng := engineFor(t, fx, a)

	cases := []struct {
		ts       float64
		wantLo   float64
		fallback bool
	}{
		{10, 0, false},
		{49, 0, false},
		{50, 0, false}, // boundary slot belongs to the earlier window
		{75, 50, false},
		{100, 50, false},
		{130, 50, true}, // running past plan: nearest window answers, annotated
	}
	for _, c := range cases {
		p, err := reg.Predict(eng, a.PhysicalTime(c.ts), 0)
		if err != nil {
			t.Fatalf("t*=%g: %v", c.ts, err)
		}
		if p.Window.Lo != c.wantLo || p.WindowFallback != c.fallback {
			t.Errorf("t*=%g routed to window %v fallback=%v, want lo=%g fallback=%v",
				c.ts, p.Window, p.WindowFallback, c.wantLo, c.fallback)
		}
	}

	// Before the avail starts there is no t* to route.
	if _, err := reg.Predict(eng, a.ActStart-10, 0); err == nil {
		t.Error("predict before actual start accepted")
	}
}

// TestPredictBeforeFirstWindowReadsNoLaterHistory pins causality when the
// trained windows start above 0 (-windows 20-50,50-100). At t* = 10
// routing falls back to 20-50, whose grid has no point at or before t*;
// answering from its first point would read RCCs created after the query
// date, so the prediction must fail (served as prediction_unavailable).
// Inside the windows, an engine holding only the RCCs created by the
// query date must answer bitwise-equal to one holding the full history.
func TestPredictBeforeFirstWindowReadsNoLaterHistory(t *testing.T) {
	fx := mustFixture(t)
	tv, err := TrainVersion(fx.tensor, fx.sp.Train, fx.sp.Val, TrainOptions{
		Windows: []Window{{Lo: 20, Hi: 50}, {Lo: 50, Hi: 100}},
		Alpha:   0.2,
		Version: "late-start",
		Config:  testConfig(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var a *domain.Avail
	for i := range fx.ds.Avails {
		if fx.ds.Avails[i].Status == domain.StatusClosed {
			a = &fx.ds.Avails[i]
			break
		}
	}
	if a == nil {
		t.Fatal("fixture has no closed avail")
	}
	full := engineFor(t, fx, a)
	knownAt := func(at domain.Day) *statusq.Engine {
		var known []domain.RCC
		for _, r := range fx.ds.RCCsByAvail()[a.ID] {
			if r.Created <= at {
				known = append(known, r)
			}
		}
		eng, err := statusq.NewEngine(a, known, index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	at := a.PhysicalTime(10)
	for name, eng := range map[string]*statusq.Engine{"known-at": knownAt(at), "full": full} {
		if p, err := reg.Predict(eng, at, 0); err == nil {
			t.Errorf("t*=10 on the %s engine answered %+v; want an error (no grid point at or before t*)", name, p)
		}
	}
	for _, ts := range []float64{30, 75} {
		at := a.PhysicalTime(ts)
		early, err := reg.Predict(knownAt(at), at, 0)
		if err != nil {
			t.Fatalf("t*=%g known-at: %v", ts, err)
		}
		late, err := reg.Predict(full, at, 0)
		if err != nil {
			t.Fatalf("t*=%g full: %v", ts, err)
		}
		if math.Float64bits(early.Delay) != math.Float64bits(late.Delay) ||
			math.Float64bits(early.Lo) != math.Float64bits(late.Lo) ||
			math.Float64bits(early.Hi) != math.Float64bits(late.Hi) || early.Window != late.Window {
			t.Errorf("t*=%g: history known at the query date answers %+v, full history %+v", ts, early, late)
		}
	}
}

func TestDigestMismatchKeepsOldVersionServing(t *testing.T) {
	fx := mustFixture(t)
	tv := trainTestVersion(t, 1, "v001")
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one artifact byte. The manifest digest now disagrees, so a
	// reload must fail — and the previously loaded snapshot keeps serving.
	path := filepath.Join(dir, "v001", "window-000.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Reload(); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("reload on corrupt artifact: err = %v", err)
	}
	if got := reg.ActiveVersion(); got != "v001" {
		t.Fatalf("active after failed reload = %q, want v001 still serving", got)
	}
	a := ongoingAvail(t, fx)
	if _, err := reg.Predict(engineFor(t, fx, a), a.PhysicalTime(60), 0); err != nil {
		t.Fatalf("predict after failed reload: %v", err)
	}

	// A fresh Open of the corrupt directory is degraded, not fatal.
	reg2, err := Open(dir)
	if err == nil {
		t.Fatal("Open of corrupt registry reported no error")
	}
	if reg2 == nil {
		t.Fatal("Open returned no registry")
	}
	if _, err := reg2.Predict(engineFor(t, fx, a), a.PhysicalTime(60), 0); err == nil {
		t.Error("degraded registry served a prediction")
	}
	if st := reg2.RegistryStatus(); st.LoadError == "" {
		t.Error("degraded registry reports no load error")
	}
}

func TestHotSwapAdvancesVersion(t *testing.T) {
	tv1 := trainTestVersion(t, 1, "v001")
	tv2 := trainTestVersion(t, 2, "v002")
	dir := t.TempDir()
	if _, err := tv1.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tv2.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	rep, err := reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || rep.Active != "v002" || rep.Versions != 2 {
		t.Fatalf("swap report = %+v", rep)
	}
	// Reloading an unchanged manifest is a no-op swap.
	rep, err = reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swapped {
		t.Fatalf("idle reload swapped: %+v", rep)
	}

	// Rollback is an Active edit plus a reload.
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Active = "v001"
	if err := man.Write(dir); err != nil {
		t.Fatal(err)
	}
	rep, err = reg.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || rep.Active != "v001" {
		t.Fatalf("rollback report = %+v", rep)
	}
}

func TestEmptyRegistryServesUnavailable(t *testing.T) {
	fx := mustFixture(t)
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("empty dir must open cleanly: %v", err)
	}
	a := ongoingAvail(t, fx)
	if _, err := reg.Predict(engineFor(t, fx, a), a.PhysicalTime(60), 0); err != ErrNoModel {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
	if v := reg.ActiveVersion(); v != "" {
		t.Fatalf("active = %q", v)
	}
}

func TestContentDerivedVersionNameIsStable(t *testing.T) {
	fx := mustFixture(t)
	opts := TrainOptions{
		Windows: []Window{{Lo: 0, Hi: 100}},
		Alpha:   0.2,
		Config:  testConfig(7),
	}
	tv1, err := TrainVersion(fx.tensor, fx.sp.Train, fx.sp.Val, opts)
	if err != nil {
		t.Fatal(err)
	}
	tv2, err := TrainVersion(fx.tensor, fx.sp.Train, fx.sp.Val, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tv1.Name != tv2.Name {
		t.Fatalf("retraining identical inputs renamed the version: %q vs %q", tv1.Name, tv2.Name)
	}
	if !strings.HasPrefix(tv1.Name, "v") || len(tv1.Name) != 13 {
		t.Fatalf("derived name = %q", tv1.Name)
	}
}

func TestManifestJSONShape(t *testing.T) {
	tv := trainTestVersion(t, 1, "v001")
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Active   string `json:"active"`
		Versions []struct {
			Version   string  `json:"version"`
			Alpha     float64 `json:"alpha"`
			Artifacts []struct {
				File   string  `json:"file"`
				Lo     float64 `json:"lo"`
				Hi     float64 `json:"hi"`
				SHA256 string  `json:"sha256"`
			} `json:"artifacts"`
		} `json:"versions"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Active != "v001" || len(m.Versions) != 1 || len(m.Versions[0].Artifacts) != 2 {
		t.Fatalf("manifest = %+v", m)
	}
	for _, a := range m.Versions[0].Artifacts {
		if len(a.SHA256) != 64 {
			t.Errorf("artifact %s digest %q", a.File, a.SHA256)
		}
		if _, err := os.Stat(filepath.Join(dir, a.File)); err != nil {
			t.Errorf("artifact file: %v", err)
		}
	}
}

// TestConformalCoverageRegression is the serving-band quality gate: the
// empirical coverage of the band the registry serves, measured on the
// held-out navsim test split, must sit at or above the nominal level up
// to finite-sample tolerance. Split conformal guarantees
// P(|y − ŷ| ≤ margin) ≥ 1 − α over the calibration draw; with a small
// calibration set the quantile rank is conservative (ceil((n+1)(1−α))),
// so falling far below nominal signals a broken calibration or
// persistence path, not noise.
func TestConformalCoverageRegression(t *testing.T) {
	fx := mustFixture(t)
	const alpha = 0.2
	tv := trainTestVersion(t, 1, "v001")
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.snap.Load()
	if snap == nil || snap.active == nil {
		t.Fatal("no active version")
	}

	covered, total := 0, 0
	var widthSum float64
	for _, m := range snap.active.windows {
		grid := m.pipe.Timestamps()
		// Slot j of this window model corresponds to the tensor slice at
		// the same timestamp; evaluate every held-out row at every slot.
		slices := make([]*ml.Dataset, len(grid))
		for j, ts := range grid {
			slices[j] = tensorSliceAt(t, fx.tensor, ts)
		}
		for _, row := range fx.sp.Test {
			fulls := make([][]float64, len(grid))
			for j := range grid {
				fulls[j] = slices[j].X[row]
			}
			raw, _, err := m.pipe.Trajectory(fulls, len(grid)-1)
			if err != nil {
				t.Fatal(err)
			}
			for k := range grid {
				lo, _, hi, err := m.conf.Interval(raw, k, alpha)
				if err != nil {
					t.Fatal(err)
				}
				truth := slices[k].Y[row]
				if lo <= truth && truth <= hi {
					covered++
				}
				widthSum += hi - lo
				total++
			}
		}
	}
	coverage := float64(covered) / float64(total)
	meanWidth := widthSum / float64(total)
	t.Logf("empirical coverage = %.3f over %d (row, slot) pairs, nominal %.2f, mean band width %.1f days",
		coverage, total, 1-alpha, meanWidth)
	// Finite-sample tolerance: with a handful of calibration rows the
	// conservative quantile usually over-covers; anything below nominal
	// minus tolerance means the band lost its guarantee in transit.
	const tolerance = 0.10
	if coverage < (1-alpha)-tolerance {
		t.Fatalf("coverage %.3f below nominal %.2f − %.2f", coverage, 1-alpha, tolerance)
	}
	if meanWidth <= 0 || math.IsNaN(meanWidth) {
		t.Fatalf("degenerate band width %g", meanWidth)
	}
}

// tensorSliceAt resolves the tensor slice at one grid timestamp.
func tensorSliceAt(t *testing.T, tensor *features.Tensor, ts float64) *ml.Dataset {
	t.Helper()
	for k, g := range tensor.Timestamps {
		if g == ts {
			return tensor.Slices[k]
		}
	}
	t.Fatalf("no tensor slice at t* = %g", ts)
	return nil
}
