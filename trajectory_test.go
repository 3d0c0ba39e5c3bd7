package domd_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/fusion"
	"domd/internal/index"
	"domd/internal/ml/gbt"
	"domd/internal/modelserve"
	"domd/internal/navsim"
	"domd/internal/split"
	"domd/internal/statusq"
)

// scratchTrajectoryOracle is the reference the served trajectory is held
// to bit for bit: the pre-sweep serving loop, which rebuilds every grid
// point's full feature vector from scratch with Extractor.Vector (index
// retrieval and sort per point) and then runs the same per-timestamp
// models. Like core.Pipeline.TrajectoryAt it refuses a t* with no grid
// point at or before it.
func scratchTrajectoryOracle(p *core.Pipeline, ext *features.Extractor, eng *statusq.Engine, ts float64) (*core.Trajectory, error) {
	grid := p.Timestamps()
	upto := -1
	for k, g := range grid {
		if g <= ts {
			upto = k
		}
	}
	if upto < 0 {
		return nil, fmt.Errorf("oracle: no grid point at or before t* = %g", ts)
	}
	fulls := make([][]float64, upto+1)
	for k := range fulls {
		var err error
		if fulls[k], err = ext.Vector(eng, grid[k]); err != nil {
			return nil, err
		}
	}
	raw, fused, err := p.Trajectory(fulls, upto)
	if err != nil {
		return nil, err
	}
	return &core.Trajectory{Upto: upto, Grid: grid, Fulls: fulls, Raw: raw, Fused: fused}, nil
}

// trajFixture is the served-trajectory world: a navsim fleet, its tensor
// on the gap-10 grid `domd serve` trains by default, the base-grid
// pipeline, a pipeline trained on the window 50–100 slice of that grid,
// and an in-memory registry version over the default windows.
type trajFixture struct {
	ds      *navsim.Dataset
	ext     *features.Extractor
	base    *core.Pipeline
	late    *core.Pipeline
	version *modelserve.TrainedVersion
}

var trajFixtureOnce = sync.OnceValues(func() (*trajFixture, error) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 60, Seed: 21})
	if err != nil {
		return nil, err
	}
	ext := features.NewExtractor()
	tensor, err := features.BuildTensor(ext, ds.Avails, ds.RCCsByAvail(), 10, index.KindAVL)
	if err != nil {
		return nil, err
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		return nil, err
	}
	cfg := core.BaselineConfig()
	cfg.Fusion = fusion.MethodAverage
	gp := gbt.DefaultParams()
	gp.NumRounds = 15
	gp.LearningRate = 0.3
	cfg.GBTParams = &gp
	fx := &trajFixture{ds: ds, ext: ext}
	if fx.base, err = core.Train(cfg, tensor, sp.Train, sp.Val); err != nil {
		return nil, err
	}
	late := &features.Tensor{Avails: tensor.Avails}
	for k, ts := range tensor.Timestamps {
		if ts >= 50 {
			late.Timestamps = append(late.Timestamps, ts)
			late.Slices = append(late.Slices, tensor.Slices[k])
		}
	}
	if fx.late, err = core.Train(cfg, late, sp.Train, sp.Val); err != nil {
		return nil, err
	}
	fx.version, err = modelserve.TrainVersion(tensor, sp.Train, sp.Val, modelserve.TrainOptions{
		Windows: []modelserve.Window{{Lo: 0, Hi: 50}, {Lo: 50, Hi: 100}},
		Alpha:   0.2,
		Version: "traj",
		Config:  cfg,
	})
	if err != nil {
		return nil, err
	}
	return fx, nil
})

func mustTrajFixture(tb testing.TB) *trajFixture {
	tb.Helper()
	fx, err := trajFixtureOnce()
	if err != nil {
		tb.Fatal(err)
	}
	return fx
}

// servedEngines builds the engines the differential runs on: every
// ongoing avail and two closed ones as built, plus a closed avail whose
// engine starts from a third of its history and is extended by ApplyRCC in
// shuffled (out-of-date) order — with a served trajectory taken midway, so
// a sweep holds the engine's event orders while later applies land.
func servedEngines(t *testing.T, fx *trajFixture) map[string]*statusq.Engine {
	t.Helper()
	byAvail := fx.ds.RCCsByAvail()
	out := map[string]*statusq.Engine{}
	closed := 0
	var extend *domain.Avail
	for i := range fx.ds.Avails {
		a := &fx.ds.Avails[i]
		if a.Status == domain.StatusClosed {
			if closed++; closed > 3 {
				continue
			}
			if closed == 3 {
				extend = a
				continue
			}
		}
		eng, err := statusq.NewEngine(a, byAvail[a.ID], index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("avail-%d", a.ID)] = eng
	}
	rccs := append([]domain.RCC(nil), byAvail[extend.ID]...)
	rand.New(rand.NewSource(5)).Shuffle(len(rccs), func(i, j int) { rccs[i], rccs[j] = rccs[j], rccs[i] })
	third := len(rccs) / 3
	eng, err := statusq.NewEngine(extend, append([]domain.RCC(nil), rccs[:third]...), index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range rccs[third:] {
		if k == len(rccs[third:])/2 {
			if _, err := fx.base.TrajectoryAt(fx.ext.NewRow(eng), 100); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.ApplyRCC(r); err != nil {
			t.Fatal(err)
		}
	}
	out[fmt.Sprintf("avail-%d-applied", extend.ID)] = eng
	return out
}

// sameTrajectory reports the first bitwise difference between two
// trajectories, or nil.
func sameTrajectory(got, want *core.Trajectory) error {
	if got.Upto != want.Upto || len(got.Fulls) != len(want.Fulls) {
		return fmt.Errorf("covers %d points (upto %d), oracle %d (upto %d)", len(got.Fulls), got.Upto, len(want.Fulls), want.Upto)
	}
	for k := range want.Fulls {
		if len(got.Fulls[k]) != len(want.Fulls[k]) {
			return fmt.Errorf("point %d: %d features, oracle %d", k, len(got.Fulls[k]), len(want.Fulls[k]))
		}
		for j := range want.Fulls[k] {
			if math.Float64bits(got.Fulls[k][j]) != math.Float64bits(want.Fulls[k][j]) {
				return fmt.Errorf("point %d feature %d: %v, oracle %v", k, j, got.Fulls[k][j], want.Fulls[k][j])
			}
		}
		if math.Float64bits(got.Raw[k]) != math.Float64bits(want.Raw[k]) ||
			math.Float64bits(got.Fused[k]) != math.Float64bits(want.Fused[k]) {
			return fmt.Errorf("point %d: raw/fused %v/%v, oracle %v/%v", k, got.Raw[k], got.Fused[k], want.Raw[k], want.Fused[k])
		}
	}
	return nil
}

// TestServedTrajectoryMatchesScratchOracle holds the served trajectory —
// one forward sweep per row, vectors memoized by grid point — bitwise
// equal to the scratch oracle, on the base grid and the window 50–100
// grid, at t* = 0, on grid points, between them and past 100. Each engine
// is read both through a fresh row per call and through one row shared by
// every call (whose sweep must rewind when a call asks for earlier
// points).
func TestServedTrajectoryMatchesScratchOracle(t *testing.T) {
	fx := mustTrajFixture(t)
	pipes := []struct {
		name string
		p    *core.Pipeline
	}{{"base", fx.base}, {"window-50-100", fx.late}}
	tstars := []float64{0, 10, 50, 90, 100, 5, 37.5, 55, 99.9, 100.5, 130}
	for name, eng := range servedEngines(t, fx) {
		shared := fx.ext.NewRow(eng)
		for _, pc := range pipes {
			for _, ts := range tstars {
				want, werr := scratchTrajectoryOracle(pc.p, fx.ext, eng, ts)
				for _, row := range []*features.Row{fx.ext.NewRow(eng), shared} {
					got, gerr := pc.p.TrajectoryAt(row, ts)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s %s t*=%g: served err %v, oracle err %v", name, pc.name, ts, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if err := sameTrajectory(got, want); err != nil {
						t.Fatalf("%s %s t*=%g: %v", name, pc.name, ts, err)
					}
				}
			}
		}
	}
}

// TestSharedRowMatchesSeparateCalls checks the /fleet row form: a query
// and a prediction read from one row answer exactly what separate
// QueryEngine and Predict calls answer, in either order.
func TestSharedRowMatchesSeparateCalls(t *testing.T) {
	fx := mustTrajFixture(t)
	dir := t.TempDir()
	if _, err := fx.version.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := modelserve.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := core.NewQueryService(fx.base, fx.ext, index.KindAVL)
	for name, eng := range servedEngines(t, fx) {
		a := eng.Avail()
		for _, ts := range []float64{0, 10, 37.5, 50, 55, 90, 100, 130} {
			at := a.PhysicalTime(ts)
			wantQ, err := svc.QueryEngine(eng, at)
			if err != nil {
				t.Fatalf("%s t*=%g: QueryEngine: %v", name, ts, err)
			}
			wantP, err := reg.Predict(eng, at, 0)
			if err != nil {
				t.Fatalf("%s t*=%g: Predict: %v", name, ts, err)
			}
			for _, queryFirst := range []bool{true, false} {
				row := fx.ext.NewRow(eng)
				var gotQ *core.Result
				var gotP *modelserve.Prediction
				var qerr, perr error
				if queryFirst {
					gotQ, qerr = svc.QueryRow(row, at)
					gotP, perr = reg.PredictRow(row, at, 0)
				} else {
					gotP, perr = reg.PredictRow(row, at, 0)
					gotQ, qerr = svc.QueryRow(row, at)
				}
				if qerr != nil || perr != nil {
					t.Fatalf("%s t*=%g queryFirst=%v: query %v, prediction %v", name, ts, queryFirst, qerr, perr)
				}
				// %v prints each float64 in its shortest round-trip form,
				// so equal strings mean bitwise-equal values.
				if g, w := fmt.Sprintf("%+v", *gotQ), fmt.Sprintf("%+v", *wantQ); g != w {
					t.Fatalf("%s t*=%g queryFirst=%v: row query\n%s\nQueryEngine\n%s", name, ts, queryFirst, g, w)
				}
				if g, w := fmt.Sprintf("%+v", *gotP), fmt.Sprintf("%+v", *wantP); g != w {
					t.Fatalf("%s t*=%g queryFirst=%v: row prediction %s, Predict %s", name, ts, queryFirst, g, w)
				}
			}
		}
	}
}
