package server

import (
	"fmt"
	"net/http"
	"strconv"

	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/obs"
)

// The /predict, /models, and /models/reload handlers: the serving face of
// internal/modelserve. Read-path degradation mirrors /query and /fleet —
// a missing or broken model registry annotates answers instead of
// failing them; only the admin write path (/models/reload) may 5xx.

// windowView is the trained logical-time window a prediction came from.
type windowView struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// predictRow is the /predict response (and one POST /predict row). The
// prediction fields are pointers so an unavailable answer omits them
// instead of serving zeros; Stale and AsOf are the same engine
// provenance markers as /query.
type predictRow struct {
	AvailID               int         `json:"avail_id"`
	At                    string      `json:"at"`
	LogicalTime           float64     `json:"t_star"`
	PredictedDelay        *float64    `json:"predicted_delay,omitempty"`
	BandLo                *float64    `json:"band_lo,omitempty"`
	BandHi                *float64    `json:"band_hi,omitempty"`
	Alpha                 float64     `json:"alpha,omitempty"`
	ModelVersion          string      `json:"model_version,omitempty"`
	Window                *windowView `json:"window,omitempty"`
	WindowFallback        bool        `json:"window_fallback,omitempty"`
	PredictionUnavailable bool        `json:"prediction_unavailable,omitempty"`
	UnavailableReason     string      `json:"unavailable_reason,omitempty"`
	Stale                 bool        `json:"stale"`
	AsOf                  int64       `json:"asOf"`
}

// renderPredict evaluates one prediction from a feature row over an
// already-resolved engine. Date/avail problems (not started, invalid t*)
// are errors — the request itself is unanswerable, same contract as
// /query. Model problems are not: they annotate the row
// prediction_unavailable.
func (s *Server) renderPredict(vecs *features.Row, asOf int64, stale bool, at domain.Day, alpha float64) (*predictRow, error) {
	eng := vecs.Engine()
	a := eng.Avail()
	ts, err := eng.LogicalTime(at)
	if err != nil {
		return nil, err
	}
	if ts < 0 {
		return nil, fmt.Errorf("avail %d has not started at %v (t* = %.1f%%)", a.ID, at, ts)
	}
	row := &predictRow{AvailID: a.ID, At: at.String(), LogicalTime: ts, Stale: stale, AsOf: asOf}
	if s.models == nil {
		row.PredictionUnavailable = true
		row.UnavailableReason = "no model registry configured (serve -model-dir)"
		mPredictUnavailable.Inc()
		return row, nil
	}
	pred, err := s.models.PredictRow(vecs, at, alpha)
	if err != nil {
		row.PredictionUnavailable = true
		row.UnavailableReason = err.Error()
		mPredictUnavailable.Inc()
		return row, nil
	}
	row.PredictedDelay = &pred.Delay
	row.BandLo = &pred.Lo
	row.BandHi = &pred.Hi
	row.Alpha = pred.Alpha
	row.ModelVersion = pred.Version
	row.Window = &windowView{Lo: pred.Window.Lo, Hi: pred.Window.Hi}
	row.WindowFallback = pred.WindowFallback
	return row, nil
}

// parseAlpha reads an optional ?alpha= value; absent defers to the
// server default (Options.PredictAlpha, else the model version's level).
// The check is written so that NaN fails it.
func (s *Server) parseAlpha(raw string) (float64, error) {
	if raw == "" {
		return s.alpha, nil
	}
	alpha, err := strconv.ParseFloat(raw, 64)
	if err != nil || !(alpha > 0 && alpha < 1) {
		return 0, fmt.Errorf("alpha must be a number in (0,1), got %q", raw)
	}
	return alpha, nil
}

// handlePredict is GET /predict. Status contract: 400 bad parameters,
// 404 unknown avail, 422 avail not started at the date, 503 (+
// Retry-After) when the request's deadline expired, 200 otherwise —
// including model-side degradation, which annotates the body instead.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	out, ok := s.readOne(w, r, answers{predict: true})
	if !ok {
		return
	}
	row := out.pred
	if sp := obs.FromContext(r.Context()); sp != nil {
		sp.SetBool("stale", row.Stale)
		sp.SetBool("unavailable", row.PredictionUnavailable)
		if row.ModelVersion != "" {
			sp.Set("model", row.ModelVersion)
		}
	}
	s.writeJSON(w, r, http.StatusOK, row)
}

// predictBatchIn is the POST /predict request body; an omitted (zero)
// Alpha defers to the server default, and one outside [0,1) is 422.
type predictBatchIn struct {
	Queries []batchQueryIn `json:"queries"`
	Alpha   float64        `json:"alpha,omitempty"`
}

// predictBatchRow is one POST /predict result, request order; failures
// carry an error message so one bad entry doesn't fail the batch.
type predictBatchRow struct {
	AvailID int         `json:"avail_id"`
	Result  *predictRow `json:"result,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// handlePredictBatch is POST /predict: many predictions in one request,
// with the /query/batch amortization (one engine lookup and one feature
// row per distinct avail) and status contract — 400 malformed or empty
// body, 413 oversized, 422 over MaxBatchQueries or bad alpha, 200 with
// per-row errors inline.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var in predictBatchIn
	if !s.decodeBody(w, r, &in) {
		return
	}
	reqs, ok := s.batchReqs(w, r, in.Queries)
	if !ok {
		return
	}
	if !(in.Alpha >= 0 && in.Alpha < 1) {
		s.writeErr(w, r, http.StatusUnprocessableEntity, fmt.Errorf("alpha must lie in (0,1), got %g", in.Alpha))
		return
	}
	alpha := in.Alpha
	if alpha == 0 { //lint:ignore floateq exactly zero is the JSON omitted-field sentinel
		alpha = s.alpha
	}
	outs, avails := s.evaluate(r.Context(), reqs, answers{predict: true, alpha: alpha})
	rows := make([]predictBatchRow, len(outs))
	for i, o := range outs {
		rows[i].AvailID = reqs[i].avail
		if o.err != nil {
			rows[i].Error = o.err.Error()
		} else {
			rows[i].Result = o.pred
		}
	}
	spanRows(r.Context(), outs, avails)
	s.writeJSON(w, r, http.StatusOK, rows)
}

// modelsView is the GET /models body: enabled reports whether a registry
// is wired at all; the rest is the registry's own status listing.
type modelsView struct {
	Enabled   bool   `json:"enabled"`
	Dir       string `json:"dir,omitempty"`
	Active    string `json:"active,omitempty"`
	LoadError string `json:"load_error,omitempty"`
	Versions  any    `json:"versions"`
}

// handleModels is GET /models: the registry listing operators check
// before and after a rollout. Always 200 — an unconfigured or degraded
// registry is a fact to report, not a failure.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if s.models == nil {
		s.writeJSON(w, r, http.StatusOK, modelsView{Enabled: false, Versions: []struct{}{}})
		return
	}
	st := s.models.RegistryStatus()
	s.writeJSON(w, r, http.StatusOK, modelsView{
		Enabled: true, Dir: st.Dir, Active: st.Active, LoadError: st.LoadError, Versions: st.Versions,
	})
}

// reloadView is the POST /models/reload acknowledgment.
type reloadView struct {
	Active   string `json:"active,omitempty"`
	Swapped  bool   `json:"swapped"`
	Versions int    `json:"versions"`
	Windows  int    `json:"windows"`
	Error    string `json:"error,omitempty"`
}

// handleModelsReload is POST /models/reload, the hot-swap trigger: 200
// with the swap report on success (swapped:false when the manifest still
// names the serving version), 503 when no registry is configured or the
// reload failed — in the latter case the previous version keeps serving,
// so a bad rollout degrades the admin path, never the read path.
func (s *Server) handleModelsReload(w http.ResponseWriter, r *http.Request) {
	if s.models == nil {
		s.writeErr(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("model serving disabled: start serve with -model-dir"))
		return
	}
	rep, err := s.models.Reload()
	view := reloadView{Active: rep.Active, Swapped: rep.Swapped, Versions: rep.Versions, Windows: rep.Windows}
	if sp := obs.FromContext(r.Context()); sp != nil {
		sp.SetBool("swapped", rep.Swapped)
		if rep.Active != "" {
			sp.Set("model", rep.Active)
		}
	}
	if err != nil {
		view.Error = err.Error()
		s.writeJSON(w, r, http.StatusServiceUnavailable, view)
		return
	}
	s.writeJSON(w, r, http.StatusOK, view)
}
