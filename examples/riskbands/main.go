// Risk bands: extends the paper's point estimates to schedule-risk
// intervals, two ways. Act one trains three boosters under the pinball
// loss at τ = 0.1, 0.5 and 0.9 to estimate the 10th/50th/90th-percentile
// Days of Maintenance Delay for every ongoing avail at 50% planned
// duration — the numbers a planner needs to price risk at ≈$250k per
// delay-day (paper §1). Act two gets distribution-free bands the
// production way: it publishes a split-conformal model version into a
// model registry, mounts the real serving handler with it, and reads the
// same avails' bands back over live GET /predict calls — the
// `domd train` + `domd serve -model-dir` path in miniature.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/featsel"
	"domd/internal/features"
	"domd/internal/fusion"
	"domd/internal/index"
	"domd/internal/ml"
	"domd/internal/ml/gbt"
	"domd/internal/ml/loss"
	"domd/internal/modelserve"
	"domd/internal/navsim"
	"domd/internal/server"
	"domd/internal/split"
	"domd/internal/statusq"
)

func main() {
	log.SetFlags(0)

	cfg := navsim.DefaultConfig()
	cfg.NumClosed = 120
	cfg.NumOngoing = 6
	cfg.MeanRCCsPerAvail = 120
	ds, err := navsim.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ext := features.NewExtractor()
	tensor, err := features.BuildTensor(ext, ds.Avails, ds.RCCsByAvail(), 25, index.KindAVL)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := split.Make(split.DefaultConfig(), tensor.Avails)
	if err != nil {
		log.Fatal(err)
	}

	// Work at the 50% slice (index 2 on a 25% grid: 0,25,50,75,100).
	const sliceIdx = 2
	train := tensor.Slices[sliceIdx].Subset(append(append([]int(nil), sp.Train...), sp.Val...))

	// Pearson top-60 dynamics + the 8 statics, as the selected pipeline does.
	dynCols := make([]int, train.NumCols()-features.NumStatic)
	for j := range dynCols {
		dynCols[j] = features.NumStatic + j
	}
	selected, err := (featsel.Pearson{}).Select(train.Select(dynCols), 60)
	if err != nil {
		log.Fatal(err)
	}
	cols := make([]int, 0, features.NumStatic+len(selected))
	for j := 0; j < features.NumStatic; j++ {
		cols = append(cols, j)
	}
	for _, j := range selected {
		cols = append(cols, features.NumStatic+j)
	}
	sort.Ints(cols)
	fitSet := train.Select(cols)

	// One booster per quantile.
	params := gbt.DefaultParams()
	params.NumRounds = 120
	quantiles := []float64{0.1, 0.5, 0.9}
	models := make([]ml.Model, len(quantiles))
	for qi, tau := range quantiles {
		pb, err := loss.NewPinball(tau)
		if err != nil {
			log.Fatal(err)
		}
		models[qi], err = gbt.Fit(params, pb, fitSet)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("DELAY RISK BANDS at 50% planned duration ($0.25M per delay-day)")
	fmt.Println("avail  ship    P10    P50    P90   cost range (P10..P90)")
	for i := range ds.Avails {
		a := &ds.Avails[i]
		if a.Status != domain.StatusOngoing {
			continue
		}
		eng, err := statusq.NewEngine(a, ds.RCCsByAvail()[a.ID])
		if err != nil {
			log.Fatal(err)
		}
		full, err := ext.Vector(eng, 50)
		if err != nil {
			log.Fatal(err)
		}
		x := make([]float64, len(cols))
		for k, c := range cols {
			x[k] = full[c]
		}
		p10 := models[0].Predict(x)
		p50 := models[1].Predict(x)
		p90 := models[2].Predict(x)
		// Enforce monotonicity (independent models can cross slightly).
		if p50 < p10 {
			p10, p50 = p50, p10
		}
		if p90 < p50 {
			p50, p90 = p90, p50
		}
		fmt.Printf("%5d  %5d  %5.0f  %5.0f  %5.0f   $%.1fM – $%.1fM\n",
			a.ID, a.ShipID, p10, p50, p90,
			max0(p10)*0.25, max0(p90)*0.25)
	}
	fmt.Println("\nP50 is the point estimate the paper's pipeline reports;")
	fmt.Println("P90 is the budgeting number: the delay cost exceeded only 1 time in 10.")

	if err := serveConformalBands(ds, ext, tensor, sp); err != nil {
		log.Fatal(err)
	}
}

// serveConformalBands is act two: publish a conformally calibrated model
// version into a registry directory, mount server.New over it, and read
// each ongoing avail's 80% band back over GET /predict — the live-serving
// counterpart of the quantile table above, with a coverage guarantee
// instead of a quantile fit.
func serveConformalBands(ds *navsim.Dataset, ext *features.Extractor, tensor *features.Tensor, sp split.Splits) error {
	cfg := core.BaselineConfig()
	cfg.Fusion = fusion.MethodAverage
	params := gbt.DefaultParams()
	params.NumRounds = 60
	cfg.GBTParams = &params

	tv, err := modelserve.TrainVersion(tensor, sp.Train, sp.Val, modelserve.TrainOptions{
		Windows: []modelserve.Window{{Lo: 0, Hi: 50}, {Lo: 50, Hi: 100}},
		Alpha:   0.2, // 80% bands, comparable to the P10..P90 table
		Version: "riskbands-demo",
		Config:  cfg,
	})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "riskbands-models-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if _, err := tv.WriteTo(dir, true); err != nil {
		return err
	}
	reg, err := modelserve.Open(dir)
	if err != nil {
		return err
	}

	// The full selected pipeline for point estimates, the registry, and a
	// one-shard catalog over a throwaway WAL — the same wiring as `domd
	// serve -model-dir`.
	pipe, err := core.Train(cfg, tensor, sp.Train, sp.Val)
	if err != nil {
		return err
	}
	walDir, err := os.MkdirTemp("", "riskbands-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	catalog, _, err := statusq.OpenSharded(walDir, 1, ds.Avails, ds.RCCs, statusq.DurableOptions{})
	if err != nil {
		return err
	}
	defer catalog.Close()
	srv := httptest.NewServer(server.New(pipe, ext, catalog, server.Options{Models: reg}))
	defer srv.Close()

	fmt.Println("\nCONFORMAL 80% BANDS from live GET /predict (version riskbands-demo)")
	fmt.Println("avail   band_lo  predicted  band_hi  window")
	for i := range ds.Avails {
		a := &ds.Avails[i]
		if a.Status != domain.StatusOngoing {
			continue
		}
		url := fmt.Sprintf("%s/predict?avail=%d&date=%s", srv.URL, a.ID, a.PhysicalTime(50))
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		var row struct {
			PredictedDelay *float64 `json:"predicted_delay"`
			BandLo         *float64 `json:"band_lo"`
			BandHi         *float64 `json:"band_hi"`
			Window         *struct{ Lo, Hi float64 }
			Unavailable    bool   `json:"prediction_unavailable"`
			Reason         string `json:"unavailable_reason"`
		}
		err = json.NewDecoder(resp.Body).Decode(&row)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if row.Unavailable || row.PredictedDelay == nil {
			return fmt.Errorf("avail %d: prediction unavailable: %s", a.ID, row.Reason)
		}
		win := ""
		if row.Window != nil {
			win = fmt.Sprintf("%.0f-%.0f%%", row.Window.Lo, row.Window.Hi)
		}
		fmt.Printf("%5d   %7.0f  %9.0f  %7.0f  %s\n",
			a.ID, *row.BandLo, *row.PredictedDelay, *row.BandHi, win)
	}
	fmt.Println("\nUnlike the quantile fit, the conformal band carries a finite-sample")
	fmt.Println("coverage guarantee (≥80% marginal, assuming exchangeability); see")
	fmt.Println("docs/PREDICTION.md for the semantics and caveats.")
	return nil
}

func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
