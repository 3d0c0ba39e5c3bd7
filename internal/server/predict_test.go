package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
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
	"domd/internal/wal"
)

// trainTestVersion trains one two-window model version per test binary;
// every prediction test writes it into its own registry directory.
var trainTestVersion = sync.OnceValues(func() (*modelserve.TrainedVersion, error) {
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
	cfg := core.BaselineConfig()
	cfg.Fusion = fusion.MethodAverage
	p := gbt.DefaultParams()
	p.NumRounds = 15
	p.LearningRate = 0.3
	cfg.GBTParams = &p
	return modelserve.TrainVersion(tensor, sp.Train, sp.Val, modelserve.TrainOptions{
		Windows: []modelserve.Window{{Lo: 0, Hi: 50}, {Lo: 50, Hi: 100}},
		Alpha:   0.2,
		Version: "v001",
		Config:  cfg,
	})
})

// newTestRegistry publishes the shared trained version into a fresh
// per-test directory and opens a registry over it.
func newTestRegistry(t testing.TB) *modelserve.Registry {
	t.Helper()
	tv, err := trainTestVersion()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := tv.WriteTo(dir, true); err != nil {
		t.Fatal(err)
	}
	reg, err := modelserve.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// newPredictServer is newTestServer with a model registry wired in — the
// `domd serve -model-dir` configuration.
func newPredictServer(t *testing.T) (*httptest.Server, *navsim.Dataset, *modelserve.Registry) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 3, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	reg := newTestRegistry(t)
	srv := httptest.NewServer(New(pipe, ext, openTier(t, ds.Avails, ds.RCCs), Options{Models: reg}))
	t.Cleanup(srv.Close)
	return srv, ds, reg
}

// newShardedPredictServer is newShardedServer with a model registry —
// the `domd serve -shards 4 -model-dir` configuration.
func newShardedPredictServer(t *testing.T) (*httptest.Server, *navsim.Dataset, *statusq.ShardedCatalog) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 40, NumOngoing: 8, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	pipe, ext := trainTestPipeline()
	sc, _, err := statusq.OpenSharded(t.TempDir(), 4, ds.Avails, ds.RCCs,
		statusq.DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	srv := httptest.NewServer(New(pipe, ext, sc, Options{Models: newTestRegistry(t)}))
	t.Cleanup(srv.Close)
	return srv, ds, sc
}

// firstOngoing returns an ongoing avail from the fixture fleet.
func firstOngoing(t *testing.T, ds *navsim.Dataset) int {
	t.Helper()
	for i := range ds.Avails {
		if ds.Avails[i].Status == domain.StatusOngoing {
			return i
		}
	}
	t.Fatal("no ongoing avail in fixture")
	return -1
}

func TestPredictEndpoint(t *testing.T) {
	srv, ds, _ := newPredictServer(t)
	i := firstOngoing(t, ds)
	a := &ds.Avails[i]
	date := a.PhysicalTime(60).String()

	var row struct {
		AvailID        int      `json:"avail_id"`
		LogicalTime    float64  `json:"t_star"`
		PredictedDelay *float64 `json:"predicted_delay"`
		BandLo         *float64 `json:"band_lo"`
		BandHi         *float64 `json:"band_hi"`
		Alpha          float64  `json:"alpha"`
		ModelVersion   string   `json:"model_version"`
		Window         *struct {
			Lo float64 `json:"lo"`
			Hi float64 `json:"hi"`
		} `json:"window"`
		WindowFallback        bool `json:"window_fallback"`
		PredictionUnavailable bool `json:"prediction_unavailable"`
	}
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s&alpha=0.1", srv.URL, a.ID, date), http.StatusOK, &row)
	if row.PredictionUnavailable {
		t.Fatal("prediction unavailable with a loaded registry")
	}
	if row.PredictedDelay == nil || row.BandLo == nil || row.BandHi == nil {
		t.Fatalf("missing prediction fields: %+v", row)
	}
	if *row.BandLo > *row.PredictedDelay || *row.PredictedDelay > *row.BandHi {
		t.Fatalf("band [%g, %g] does not contain %g", *row.BandLo, *row.BandHi, *row.PredictedDelay)
	}
	if row.ModelVersion != "v001" || row.Alpha != 0.1 {
		t.Fatalf("provenance: version=%q alpha=%g", row.ModelVersion, row.Alpha)
	}
	if row.Window == nil || row.Window.Lo != 50 || row.Window.Hi != 100 || row.WindowFallback {
		t.Fatalf("t*=60 routed to %+v fallback=%v", row.Window, row.WindowFallback)
	}

	// Omitting alpha defers to the model version's default (0.2).
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s", srv.URL, a.ID, date), http.StatusOK, &row)
	if row.Alpha != 0.2 {
		t.Errorf("default alpha = %g, want the version's 0.2", row.Alpha)
	}

	// Status contract: 400 bad parameters, 404 unknown avail, 422
	// before the avail's actual start.
	get(t, srv.URL+"/predict?avail=nope&date="+date, http.StatusBadRequest, nil)
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s&alpha=1.5", srv.URL, a.ID, date), http.StatusBadRequest, nil)
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s&alpha=NaN", srv.URL, a.ID, date), http.StatusBadRequest, nil)
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s&alpha=nan", srv.URL, a.ID, date), http.StatusBadRequest, nil)
	get(t, srv.URL+"/predict?avail=999999&date="+date, http.StatusNotFound, nil)
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s", srv.URL, a.ID, (a.ActStart-30).String()),
		http.StatusUnprocessableEntity, nil)
}

func TestPredictWithoutRegistryNever5xx(t *testing.T) {
	srv, ds, _ := newTestServer(t) // no Options.Models
	i := firstOngoing(t, ds)
	a := &ds.Avails[i]
	date := a.PhysicalTime(60).String()

	var row struct {
		PredictionUnavailable bool   `json:"prediction_unavailable"`
		UnavailableReason     string `json:"unavailable_reason"`
		PredictedDelay        *float64
	}
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s", srv.URL, a.ID, date), http.StatusOK, &row)
	if !row.PredictionUnavailable || row.UnavailableReason == "" {
		t.Fatalf("row = %+v, want prediction_unavailable with a reason", row)
	}
	if row.PredictedDelay != nil {
		t.Error("unavailable answer still carries a point estimate")
	}

	// /fleet rows degrade the same way, and the DoMD estimate survives.
	var fleet []map[string]any
	get(t, srv.URL+"/fleet?date="+fleetDate(ds).String(), http.StatusOK, &fleet)
	for _, r := range fleet {
		if r["error"] != nil {
			continue
		}
		if r["prediction_unavailable"] != true {
			t.Errorf("fleet row %v lacks prediction_unavailable", r["avail_id"])
		}
		if r["result"] == nil {
			t.Errorf("fleet row %v lost its DoMD estimate", r["avail_id"])
		}
	}

	// /models reports disabled; the reload admin path is the one place
	// a missing registry may 5xx.
	var models struct {
		Enabled bool `json:"enabled"`
	}
	get(t, srv.URL+"/models", http.StatusOK, &models)
	if models.Enabled {
		t.Error("models reports enabled without a registry")
	}
	resp, err := http.Post(srv.URL+"/models/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("reload without registry: %d, want 503", resp.StatusCode)
	}
}

// TestFleetCarriesPredictions is the single-catalog half of the fleet
// acceptance criterion: every healthy /fleet row carries the prediction
// triplet and model version.
func TestFleetCarriesPredictions(t *testing.T) {
	srv, ds, _ := newPredictServer(t)
	var fleet []map[string]any
	date := fleetDate(ds).String()
	get(t, srv.URL+"/fleet?date="+date, http.StatusOK, &fleet)
	if len(fleet) == 0 {
		t.Fatal("empty fleet")
	}
	assertFleetPredictions(t, fleet)

	// Each row's prediction is the /predict answer for the same avail and
	// date, bit for bit: both are rendered by the same code.
	for _, r := range fleet {
		if r["error"] != nil {
			continue
		}
		var p map[string]any
		get(t, fmt.Sprintf("%s/predict?avail=%v&date=%s", srv.URL, r["avail_id"], date), http.StatusOK, &p)
		for _, k := range []string{"predicted_delay", "band_lo", "band_hi"} {
			f, _ := r[k].(float64)
			g, _ := p[k].(float64)
			if math.Float64bits(f) != math.Float64bits(g) {
				t.Errorf("avail %v %s: fleet %v, /predict %v", r["avail_id"], k, r[k], p[k])
			}
		}
		if r["model_version"] != p["model_version"] {
			t.Errorf("avail %v model_version: fleet %v, /predict %v", r["avail_id"], r["model_version"], p["model_version"])
		}
	}
}

// TestShardedFleetCarriesPredictions is the sharded half: the fan-out
// path annotates rows exactly like the single-catalog path.
func TestShardedFleetCarriesPredictions(t *testing.T) {
	srv, ds, sc := newShardedPredictServer(t)
	// The fixture fleet's ongoing avails span shards (crossShardOngoing
	// skips otherwise), so this sweep exercises the scatter-gather path.
	crossShardOngoing(t, ds, sc)
	var fleet []map[string]any
	get(t, srv.URL+"/fleet?date="+fleetDate(ds).String(), http.StatusOK, &fleet)
	if len(fleet) < 2 {
		t.Fatalf("%d fleet rows", len(fleet))
	}
	assertFleetPredictions(t, fleet)
}

func assertFleetPredictions(t *testing.T, fleet []map[string]any) {
	t.Helper()
	predicted := 0
	for _, r := range fleet {
		if r["error"] != nil {
			continue
		}
		if r["prediction_unavailable"] == true {
			t.Errorf("fleet row %v prediction unavailable with a loaded registry", r["avail_id"])
			continue
		}
		delay, okD := r["predicted_delay"].(float64)
		lo, okL := r["band_lo"].(float64)
		hi, okH := r["band_hi"].(float64)
		version, okV := r["model_version"].(string)
		if !okD || !okL || !okH || !okV {
			t.Errorf("fleet row %v missing prediction fields: %v", r["avail_id"], r)
			continue
		}
		if lo > delay || delay > hi || version == "" {
			t.Errorf("fleet row %v band [%g, %g] delay %g version %q", r["avail_id"], lo, hi, delay, version)
		}
		predicted++
	}
	if predicted == 0 {
		t.Fatal("no fleet row carried a prediction")
	}
}

func TestPredictBatch(t *testing.T) {
	srv, ds, _ := newPredictServer(t)
	i := firstOngoing(t, ds)
	a := &ds.Avails[i]
	date := a.PhysicalTime(60).String()

	body := fmt.Sprintf(`{"queries":[
		{"avail":%d,"date":%q},
		{"avail":%d,"date":%q},
		{"avail":999999,"date":%q},
		{"avail":%d,"date":"not-a-date"}
	],"alpha":0.1}`, a.ID, date, a.ID, date, date, a.ID)
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rows []struct {
		AvailID int    `json:"avail_id"`
		Error   string `json:"error"`
		Result  *struct {
			PredictedDelay *float64 `json:"predicted_delay"`
			ModelVersion   string   `json:"model_version"`
			Alpha          float64  `json:"alpha"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, k := range []int{0, 1} {
		if rows[k].Error != "" || rows[k].Result == nil || rows[k].Result.PredictedDelay == nil {
			t.Fatalf("row %d = %+v", k, rows[k])
		}
		if rows[k].Result.ModelVersion != "v001" || rows[k].Result.Alpha != 0.1 {
			t.Fatalf("row %d provenance = %+v", k, rows[k].Result)
		}
	}
	if rows[2].Error == "" || rows[3].Error == "" {
		t.Fatalf("bad rows not isolated: %+v / %+v", rows[2], rows[3])
	}

	// Contract edges shared with /query/batch.
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"queries":[]}`, http.StatusBadRequest},
		{`{"queries":[{"avail":1,"date":"2020-01-01"}],"alpha":2}`, http.StatusUnprocessableEntity},
		{`{"nope":true}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST /predict %s: %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

func TestModelsListingAndReload(t *testing.T) {
	srv, ds, reg := newPredictServer(t)
	i := firstOngoing(t, ds)
	a := &ds.Avails[i]
	date := a.PhysicalTime(60).String()

	var models struct {
		Enabled  bool   `json:"enabled"`
		Active   string `json:"active"`
		Versions []struct {
			Version string `json:"version"`
			Active  bool   `json:"active"`
			Windows []struct {
				Lo     float64 `json:"lo"`
				Hi     float64 `json:"hi"`
				SHA256 string  `json:"sha256"`
			} `json:"windows"`
		} `json:"versions"`
	}
	get(t, srv.URL+"/models", http.StatusOK, &models)
	if !models.Enabled || models.Active != "v001" || len(models.Versions) != 1 {
		t.Fatalf("models = %+v", models)
	}
	if v := models.Versions[0]; !v.Active || len(v.Windows) != 2 || len(v.Windows[0].SHA256) != 64 {
		t.Fatalf("version row = %+v", models.Versions[0])
	}

	// Publish v002 (the same artifacts under a new name — an operator
	// rollout is a manifest edit) and hot-swap it in.
	publishCloneVersion(t, reg.Dir(), "v002")
	var rep struct {
		Active   string `json:"active"`
		Swapped  bool   `json:"swapped"`
		Versions int    `json:"versions"`
	}
	postReload(t, srv.URL, http.StatusOK, &rep)
	if !rep.Swapped || rep.Active != "v002" || rep.Versions != 2 {
		t.Fatalf("reload report = %+v", rep)
	}
	var row struct {
		ModelVersion string `json:"model_version"`
	}
	get(t, fmt.Sprintf("%s/predict?avail=%d&date=%s", srv.URL, a.ID, date), http.StatusOK, &row)
	if row.ModelVersion != "v002" {
		t.Fatalf("serving %q after swap", row.ModelVersion)
	}
}

// publishCloneVersion adds a manifest version named name that reuses the
// currently active version's artifact files, and activates it. This is
// the cheap-rollout idiom the hot-swap tests lean on: every reload is a
// real manifest read + artifact load + snapshot swap, without paying for
// a real retraining per version.
func publishCloneVersion(t *testing.T, dir, name string) {
	t.Helper()
	man, err := modelserve.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	active, ok := man.Version(man.Active)
	if !ok {
		t.Fatalf("no active version in %s", dir)
	}
	clone := *active
	clone.Version = name
	man.Versions = append(man.Versions, clone)
	man.Active = name
	if err := man.Write(dir); err != nil {
		t.Fatal(err)
	}
}

func postReload(t *testing.T, base string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(base+"/models/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /models/reload: %d, want %d", resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentPredictHotSwap is the hot-swap stress gate (run under
// -race by `make stress`): readers hammer /predict while an operator
// rolls out a stream of versions via /models/reload. Every response must
// be a 200 with a complete, untorn prediction, and each reader must
// observe a non-decreasing model version — in-flight requests finish on
// the version they started with, never a mix.
func TestConcurrentPredictHotSwap(t *testing.T) {
	srv, ds, reg := newPredictServer(t)
	i := firstOngoing(t, ds)
	a := &ds.Avails[i]
	url := fmt.Sprintf("%s/predict?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(60).String())

	const swaps = 20
	const readers = 8

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				var row struct {
					PredictedDelay        *float64 `json:"predicted_delay"`
					BandLo                *float64 `json:"band_lo"`
					BandHi                *float64 `json:"band_hi"`
					ModelVersion          string   `json:"model_version"`
					PredictionUnavailable bool     `json:"prediction_unavailable"`
				}
				err = json.NewDecoder(resp.Body).Decode(&row)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d during hot swap", resp.StatusCode)
					return
				}
				if row.PredictionUnavailable || row.PredictedDelay == nil || row.BandLo == nil || row.BandHi == nil {
					errs <- fmt.Errorf("torn or unavailable answer during hot swap: %+v", row)
					return
				}
				if *row.BandLo > *row.PredictedDelay || *row.PredictedDelay > *row.BandHi {
					errs <- fmt.Errorf("inconsistent band [%g, %g] around %g from %s",
						*row.BandLo, *row.BandHi, *row.PredictedDelay, row.ModelVersion)
					return
				}
				if row.ModelVersion < last {
					errs <- fmt.Errorf("model version went backwards: %s after %s", row.ModelVersion, last)
					return
				}
				last = row.ModelVersion
			}
		}()
	}

	for n := 2; n <= swaps; n++ {
		publishCloneVersion(t, reg.Dir(), fmt.Sprintf("v%03d", n))
		var rep struct {
			Active  string `json:"active"`
			Swapped bool   `json:"swapped"`
		}
		postReload(t, srv.URL, http.StatusOK, &rep)
		if !rep.Swapped || rep.Active != fmt.Sprintf("v%03d", n) {
			t.Fatalf("swap %d report = %+v", n, rep)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := reg.ActiveVersion(); got != fmt.Sprintf("v%03d", swaps) {
		t.Fatalf("final active = %q", got)
	}
}
