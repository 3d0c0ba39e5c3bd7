package modelserve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"domd/internal/core"
	"domd/internal/domain"
	"domd/internal/features"
	"domd/internal/obs"
	"domd/internal/statusq"
)

// ErrNoModel reports a registry with no loadable active version: the
// serving tier annotates the answer prediction_unavailable instead of
// failing the request (the PR-4 degraded-read contract).
var ErrNoModel = errors.New("modelserve: no model version loaded")

// windowModel is one loaded window artifact: the trained pipeline, its
// conformal calibration, and the window it covers. Read-only once built,
// so any number of Predict calls share it without locking.
type windowModel struct {
	window Window
	sha    string
	file   string
	pipe   *core.Pipeline
	conf   *core.Conformal
}

// loadedVersion is one fully loaded model version, windows ascending.
type loadedVersion struct {
	name    string
	alpha   float64
	windows []*windowModel
}

// route picks the window whose interval covers t*, or the nearest window
// (fallback=true) when none does — e.g. an avail running past plan with
// t* beyond the last trained window.
func (v *loadedVersion) route(ts float64) (m *windowModel, fallback bool) {
	for _, w := range v.windows {
		if w.window.Contains(ts) {
			return w, false
		}
	}
	best := v.windows[0]
	for _, w := range v.windows[1:] {
		if w.window.Distance(ts) < best.window.Distance(ts) {
			best = w
		}
	}
	return best, true
}

// snapshot is the registry state one atomic pointer load observes: the
// manifest as read, the loaded active version (nil when the registry is
// empty or the load failed), and the failure reason operators see on
// GET /models. Snapshots are immutable; a reload builds a fresh one and
// swaps the pointer, so requests that loaded the old snapshot finish on
// the version they started with.
type snapshot struct {
	manifest *Manifest
	active   *loadedVersion
	loadErr  string
}

// Registry serves versioned models from a directory, hot-swappable via
// Reload. The zero value is not usable — construct with Open.
type Registry struct {
	dir string
	ext *features.Extractor

	// reloadMu serializes Reload so concurrent swaps cannot interleave
	// and move the observed version backwards; Predict never takes it.
	reloadMu sync.Mutex
	snap     atomic.Pointer[snapshot]
}

// Open loads the registry at dir. A missing or empty manifest yields a
// usable registry that serves every prediction as unavailable until a
// version is trained and Reload picks it up. A load failure (corrupt
// artifact, digest mismatch) also yields a usable degraded registry —
// the error is returned so the caller can log it, but serving reads must
// not die because a model directory is bad.
func Open(dir string) (*Registry, error) {
	r := &Registry{dir: dir, ext: features.NewExtractor()}
	snap, err := r.buildSnapshot()
	r.snap.Store(snap)
	if snap.active != nil {
		mSwaps.Inc()
	}
	return r, err
}

// Dir reports the model directory the registry serves from.
func (r *Registry) Dir() string { return r.dir }

// SwapReport summarizes one Reload for the /models/reload response.
type SwapReport struct {
	// Active is the serving version after the reload.
	Active string `json:"active"`
	// Swapped reports whether the serving version changed.
	Swapped bool `json:"swapped"`
	// Versions and Windows count the manifest's versions and the active
	// version's loaded window models.
	Versions int `json:"versions"`
	Windows  int `json:"windows"`
}

// Reload re-reads the manifest and artifacts and atomically swaps the
// serving snapshot. On failure the previous snapshot keeps serving and
// the error is returned — a bad rollout cannot take down reads. In-flight
// predictions that already loaded the old snapshot complete on it.
func (r *Registry) Reload() (SwapReport, error) {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	snap, err := r.buildSnapshot()
	if err != nil {
		mLoadFailures.Inc()
		old := r.snap.Load()
		rep := SwapReport{}
		if old != nil && old.active != nil {
			rep.Active = old.active.name
			rep.Windows = len(old.active.windows)
		}
		if old != nil {
			rep.Versions = len(old.manifest.Versions)
		}
		return rep, err
	}
	old := r.snap.Load()
	r.snap.Store(snap)
	rep := SwapReport{Versions: len(snap.manifest.Versions)}
	if snap.active != nil {
		rep.Active = snap.active.name
		rep.Windows = len(snap.active.windows)
	}
	oldName := ""
	if old != nil && old.active != nil {
		oldName = old.active.name
	}
	if rep.Active != oldName {
		rep.Swapped = true
		mSwaps.Inc()
	}
	return rep, nil
}

// buildSnapshot reads the manifest and loads the active version's
// artifacts, verifying each digest. An empty manifest (nothing trained
// yet) is a valid empty snapshot; any read, parse, or digest failure is
// an error and the returned snapshot carries the reason for GET /models.
func (r *Registry) buildSnapshot() (*snapshot, error) {
	man, err := ReadManifest(r.dir)
	if err != nil {
		return &snapshot{manifest: &Manifest{}, loadErr: err.Error()}, err
	}
	mVersions.Set(int64(len(man.Versions)))
	if man.Active == "" {
		return &snapshot{manifest: man}, nil
	}
	mv, ok := man.Version(man.Active)
	if !ok {
		err := fmt.Errorf("modelserve: active version %q is not in the manifest", man.Active)
		return &snapshot{manifest: man, loadErr: err.Error()}, err
	}
	v, err := r.loadVersion(mv)
	if err != nil {
		return &snapshot{manifest: man, loadErr: err.Error()}, err
	}
	return &snapshot{manifest: man, active: v}, nil
}

// loadVersion loads and digest-verifies every window artifact of one
// manifest version.
func (r *Registry) loadVersion(mv *ManifestVersion) (*loadedVersion, error) {
	if len(mv.Artifacts) == 0 {
		return nil, fmt.Errorf("modelserve: version %q has no window artifacts", mv.Version)
	}
	v := &loadedVersion{name: mv.Version, alpha: mv.Alpha}
	if !(v.alpha > 0 && v.alpha < 1) {
		v.alpha = DefaultAlpha
	}
	for _, art := range mv.Artifacts {
		data, err := os.ReadFile(filepath.Join(r.dir, filepath.FromSlash(art.File)))
		if err != nil {
			return nil, fmt.Errorf("modelserve: version %q: %w", mv.Version, err)
		}
		if got := digest(data); got != art.SHA256 {
			return nil, fmt.Errorf("modelserve: version %q: %s digest mismatch (manifest %s, file %s)",
				mv.Version, art.File, art.SHA256, got)
		}
		w, pipe, conf, err := decodeArtifact(data)
		if err != nil {
			return nil, fmt.Errorf("modelserve: version %q: %s: %w", mv.Version, art.File, err)
		}
		//lint:ignore floateq manifest and artifact serialize the same float64s; any inequality is corruption, not rounding
		if w.Lo != art.Lo || w.Hi != art.Hi {
			return nil, fmt.Errorf("modelserve: version %q: %s covers %v, manifest says %v",
				mv.Version, art.File, w, Window{Lo: art.Lo, Hi: art.Hi})
		}
		v.windows = append(v.windows, &windowModel{window: w, sha: art.SHA256, file: art.File, pipe: pipe, conf: conf})
		mLoads.Inc()
	}
	return v, nil
}

// ActiveVersion names the serving version, "" when none is loaded.
func (r *Registry) ActiveVersion() string {
	snap := r.snap.Load()
	if snap == nil || snap.active == nil {
		return ""
	}
	return snap.active.name
}

// Alpha reports the active version's default conformal miscoverage
// level, DefaultAlpha when no version is loaded.
func (r *Registry) Alpha() float64 {
	snap := r.snap.Load()
	if snap == nil || snap.active == nil {
		return DefaultAlpha
	}
	return snap.active.alpha
}

// ArtifactStatus is one window row of GET /models.
type ArtifactStatus struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	File   string  `json:"file"`
	SHA256 string  `json:"sha256"`
}

// VersionStatus is one version row of GET /models.
type VersionStatus struct {
	Version string           `json:"version"`
	Alpha   float64          `json:"alpha"`
	Active  bool             `json:"active"`
	Windows []ArtifactStatus `json:"windows"`
}

// Status is the registry listing GET /models renders.
type Status struct {
	Dir       string          `json:"dir"`
	Active    string          `json:"active,omitempty"`
	LoadError string          `json:"load_error,omitempty"`
	Versions  []VersionStatus `json:"versions"`
}

// RegistryStatus snapshots the registry for operators: every manifest
// version, which one serves, and why none does when serving is degraded.
func (r *Registry) RegistryStatus() Status {
	st := Status{Dir: r.dir, Versions: []VersionStatus{}}
	snap := r.snap.Load()
	if snap == nil {
		return st
	}
	st.LoadError = snap.loadErr
	if snap.active != nil {
		st.Active = snap.active.name
	}
	for _, mv := range snap.manifest.Versions {
		vs := VersionStatus{Version: mv.Version, Alpha: mv.Alpha, Active: mv.Version == st.Active}
		for _, a := range mv.Artifacts {
			vs.Windows = append(vs.Windows, ArtifactStatus{Lo: a.Lo, Hi: a.Hi, File: a.File, SHA256: a.SHA256})
		}
		st.Versions = append(st.Versions, vs)
	}
	return st
}

// Prediction is one model answer: the fused delay estimate, its
// conformal band, and full provenance — which version and window
// produced it and whether window routing had to fall back.
type Prediction struct {
	// Delay is the fused point estimate in days; [Lo, Hi] its conformal
	// band at miscoverage Alpha.
	Delay, Lo, Hi float64
	Alpha         float64
	// Version and Window identify the producing model; WindowFallback
	// reports that no trained window covered t* and the nearest answered.
	Version        string
	Window         Window
	WindowFallback bool
}

// Predict answers one delay prediction for a live avail from its cached
// Status Query engine: PredictRow over a fresh row of the engine's feature
// vectors. alpha <= 0 selects the version's default level. Returns
// ErrNoModel when no version is loaded; the engine is read-only here, so
// concurrent Predict calls share engines and models freely.
func (r *Registry) Predict(eng *statusq.Engine, at domain.Day, alpha float64) (*Prediction, error) {
	return r.PredictRow(r.ext.NewRow(eng), at, alpha)
}

// PredictRow answers one delay prediction from a row of feature vectors
// over a live avail's engine: route t* to a window model, read its feature
// trajectory from the row, fuse, and band. A window model's grid points
// are base-grid points, so on a row the query trajectory already swept
// the prediction extracts nothing new. Fails when the routed window has
// no grid point at or before t*.
func (r *Registry) PredictRow(row *features.Row, at domain.Day, alpha float64) (*Prediction, error) {
	snap := r.snap.Load()
	if snap == nil || snap.active == nil {
		return nil, ErrNoModel
	}
	v := snap.active
	eng := row.Engine()
	ts, err := eng.LogicalTime(at)
	if err != nil {
		return nil, err
	}
	if ts < 0 {
		return nil, fmt.Errorf("modelserve: avail %d has not started at %v (t* = %.1f%%)", eng.Avail().ID, at, ts)
	}
	sw := obs.StartTimer()
	m, fallback := v.route(ts)
	if alpha <= 0 {
		alpha = v.alpha
	}
	tr, err := m.pipe.TrajectoryAt(row, ts)
	if err != nil {
		return nil, err
	}
	lo, mid, hi, err := m.conf.Interval(tr.Raw, tr.Upto, alpha)
	if err != nil {
		return nil, err
	}
	if fallback {
		mFallbacks.Inc()
	}
	mPredictLatency.ObserveSince(sw)
	return &Prediction{
		Delay: mid, Lo: lo, Hi: hi, Alpha: alpha,
		Version: v.name, Window: m.window, WindowFallback: fallback,
	}, nil
}
