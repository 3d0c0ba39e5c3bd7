package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// Estimate is one /query trajectory point on the wire.
type Estimate struct {
	T     float64 `json:"t_star"`
	Raw   float64 `json:"raw_days"`
	Fused float64 `json:"fused_days"`
}

// Driver is one /query top-driver row on the wire.
type Driver struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Score float64 `json:"score"`
}

// QueryBody is the part of a /query answer (and a /fleet row's result)
// the checks read.
type QueryBody struct {
	Estimates  []Estimate `json:"estimates"`
	TopDrivers []Driver   `json:"top_drivers"`
}

// PredictBody is the part of a /predict answer the checks read.
type PredictBody struct {
	Predicted   *float64 `json:"predicted_delay"`
	Lo          *float64 `json:"band_lo"`
	Hi          *float64 `json:"band_hi"`
	Version     string   `json:"model_version"`
	Unavailable bool     `json:"prediction_unavailable"`
	Reason      string   `json:"unavailable_reason"`
}

// FleetRow is the part of a /fleet row the checks read.
type FleetRow struct {
	AvailID int `json:"avail_id"`
	PredictBody
	Result *QueryBody `json:"result"`
	Error  string     `json:"error"`
}

// Check is the output check every answer passes before it counts as
// correct:
//
//   - /query: 200 with non-empty, finite estimates;
//   - /predict: 200 with band_lo <= predicted_delay <= band_hi from the
//     published model version;
//   - /fleet: one row per ongoing avail, in order, each with a result and
//     a prediction, and no error;
//   - POST /rccs: 201, never a 200 duplicate (ids are fresh, so a
//     duplicate means a fixture collision that would fake a fast answer).
func (f *Dataset) Check(op Op, status int, body []byte, version string) error {
	want := http.StatusOK
	if op.Kind == Ingest {
		want = http.StatusCreated
	}
	if status != want {
		return fmt.Errorf("%s: status %d, want %d: %.200s", op.Kind, status, want, body)
	}
	switch op.Kind {
	case Query:
		var q QueryBody
		if err := json.Unmarshal(body, &q); err != nil {
			return fmt.Errorf("query: %w", err)
		}
		return checkEstimates(&q)
	case Predict:
		var p PredictBody
		if err := json.Unmarshal(body, &p); err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		return checkPrediction(&p, version)
	case Fleet:
		var rows []FleetRow
		if err := json.Unmarshal(body, &rows); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		if len(rows) != len(f.Ongoing) {
			return fmt.Errorf("fleet: %d rows, want %d", len(rows), len(f.Ongoing))
		}
		for i := range rows {
			r := &rows[i]
			switch {
			case r.AvailID != f.Ongoing[i]:
				return fmt.Errorf("fleet: row %d is avail %d, want %d", i, r.AvailID, f.Ongoing[i])
			case r.Error != "":
				return fmt.Errorf("fleet: avail %d: %s", r.AvailID, r.Error)
			case r.Result == nil:
				return fmt.Errorf("fleet: avail %d has no result", r.AvailID)
			}
			if err := checkEstimates(r.Result); err != nil {
				return fmt.Errorf("fleet: avail %d: %w", r.AvailID, err)
			}
			if err := checkPrediction(&r.PredictBody, version); err != nil {
				return fmt.Errorf("fleet: avail %d: %w", r.AvailID, err)
			}
		}
		return nil
	}
	var ack struct {
		Duplicate bool `json:"duplicate"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if ack.Duplicate {
		return fmt.Errorf("ingest: rcc %d acknowledged as a duplicate", op.RCC.ID)
	}
	return nil
}

func checkEstimates(q *QueryBody) error {
	if len(q.Estimates) == 0 {
		return fmt.Errorf("no estimates")
	}
	for _, e := range q.Estimates {
		for _, v := range []float64{e.T, e.Raw, e.Fused} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("non-finite estimate %+v", e)
			}
		}
	}
	return nil
}

func checkPrediction(p *PredictBody, version string) error {
	switch {
	case p.Unavailable:
		return fmt.Errorf("prediction unavailable: %s", p.Reason)
	case p.Predicted == nil || p.Lo == nil || p.Hi == nil:
		return fmt.Errorf("prediction without a delay or band")
	case p.Version != version:
		return fmt.Errorf("model version %q, want the published %q", p.Version, version)
	case !(*p.Lo <= *p.Predicted && *p.Predicted <= *p.Hi):
		return fmt.Errorf("prediction %g outside its band [%g, %g]", *p.Predicted, *p.Lo, *p.Hi)
	}
	return nil
}
