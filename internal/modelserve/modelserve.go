// Package modelserve promotes the offline modeling pipeline (core.Train,
// core.NewConformal, core/persist) to a serving surface: a versioned,
// content-hashed model registry on disk, loaded at startup and
// hot-swappable at runtime without dropping a request.
//
// # Artifact layout
//
// A model directory holds one manifest plus one subdirectory per version:
//
//	<model-dir>/manifest.json
//	<model-dir>/<version>/window-000.json
//	<model-dir>/<version>/window-001.json
//
// Each window artifact serializes one trained pipeline (core/persist
// JSON) together with its conformal calibration residuals and the
// logical-time window [lo, hi] it covers — the paper trains one model per
// window of planned-duration percent, and the registry routes each query
// to the model whose window covers its t*. The manifest lists every
// version with per-artifact SHA-256 digests; loads verify the digest
// before trusting an artifact, so a torn copy or bit rot turns into a
// load failure (and degraded serving) instead of silently wrong numbers.
//
// # Lifecycle
//
// `domd train` fits per-window pipelines, calibrates conformal bands on
// the validation split, and writes a new version (TrainVersion +
// TrainedVersion.WriteTo). `domd serve -model-dir` opens the registry at
// startup (Open); POST /models/reload (Registry.Reload) re-reads the
// manifest and atomically swaps the active snapshot — in-flight requests
// finish on the version they started with. Rollback is the same motion:
// point the manifest's "active" field at an older version and reload.
package modelserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"domd/internal/core"
)

// DefaultAlpha is the conformal miscoverage level served when neither the
// request nor the registry configuration names one: 0.1 ⇒ 90% bands.
const DefaultAlpha = 0.1

// ManifestName is the registry index file inside a model directory.
const ManifestName = "manifest.json"

// Window is one logical-time coverage interval in percent of planned
// duration: a window model answers queries whose t* lies in [Lo, Hi].
type Window struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Contains reports whether t* lies inside the window (inclusive bounds).
func (w Window) Contains(ts float64) bool { return ts >= w.Lo && ts <= w.Hi }

// Distance is the gap between t* and the window, 0 when covered — the
// routing metric for nearest-window fallback.
func (w Window) Distance(ts float64) float64 {
	switch {
	case ts < w.Lo:
		return w.Lo - ts
	case ts > w.Hi:
		return ts - w.Hi
	default:
		return 0
	}
}

// String renders the window the way the -windows flag parses it.
func (w Window) String() string { return fmt.Sprintf("%g-%g", w.Lo, w.Hi) }

// ManifestArtifact is one window artifact row in the manifest: the file
// (relative to the model directory), the window it covers, and the
// SHA-256 digest loads verify against.
type ManifestArtifact struct {
	File   string  `json:"file"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	SHA256 string  `json:"sha256"`
}

// ManifestVersion is one model version: a name, the conformal
// miscoverage level its bands were sized for by default, and its window
// artifacts in ascending window order.
type ManifestVersion struct {
	Version   string             `json:"version"`
	Alpha     float64            `json:"alpha"`
	Artifacts []ManifestArtifact `json:"artifacts"`
}

// Manifest is the registry index: every known version plus the name of
// the one serving. Versions other than the active one stay listed so a
// rollback is an edit of Active plus a reload, not a retrain.
type Manifest struct {
	Active   string            `json:"active"`
	Versions []ManifestVersion `json:"versions"`
}

// Version resolves a version entry by name.
func (m *Manifest) Version(name string) (*ManifestVersion, bool) {
	for i := range m.Versions {
		if m.Versions[i].Version == name {
			return &m.Versions[i], true
		}
	}
	return nil, false
}

// ReadManifest loads <dir>/manifest.json. A missing file is not an
// error: it returns an empty manifest, the state of a registry nothing
// has been trained into yet.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return &Manifest{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("modelserve: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("modelserve: parse manifest: %w", err)
	}
	return &m, nil
}

// Write atomically replaces <dir>/manifest.json (write-temp-then-rename,
// the same torn-write discipline as wal.WriteFileAtomic).
func (m *Manifest) Write(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("modelserve: encode manifest: %w", err)
	}
	return atomicWrite(filepath.Join(dir, ManifestName), append(data, '\n'))
}

// artifactJSON is the on-disk window artifact: the window, the pipeline
// in core/persist form, and the sorted conformal calibration residuals
// per grid slot.
type artifactJSON struct {
	Window    Window          `json:"window"`
	Pipeline  json.RawMessage `json:"pipeline"`
	Residuals [][]float64     `json:"residuals"`
}

// encodeArtifact serializes one trained window model and returns the
// bytes plus their SHA-256 digest (the manifest's integrity column).
func encodeArtifact(w Window, pipe *core.Pipeline, conf *core.Conformal) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := pipe.Save(&buf); err != nil {
		return nil, "", fmt.Errorf("modelserve: encode pipeline: %w", err)
	}
	art := artifactJSON{Window: w, Pipeline: bytes.TrimSpace(buf.Bytes()), Residuals: conf.Residuals()}
	data, err := json.Marshal(art)
	if err != nil {
		return nil, "", fmt.Errorf("modelserve: encode artifact: %w", err)
	}
	return data, digest(data), nil
}

// decodeArtifact rebuilds a loaded window model from artifact bytes.
func decodeArtifact(data []byte) (Window, *core.Pipeline, *core.Conformal, error) {
	var art artifactJSON
	if err := json.Unmarshal(data, &art); err != nil {
		return Window{}, nil, nil, fmt.Errorf("modelserve: parse artifact: %w", err)
	}
	pipe, err := core.Load(bytes.NewReader(art.Pipeline))
	if err != nil {
		return Window{}, nil, nil, err
	}
	conf, err := core.NewConformalFromResiduals(pipe, art.Residuals)
	if err != nil {
		return Window{}, nil, nil, err
	}
	return art.Window, pipe, conf, nil
}

// digest is the hex SHA-256 of artifact bytes as the manifest records it.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// atomicWrite lands data at path via a temp file and rename so readers
// never observe a half-written artifact.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("modelserve: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("modelserve: publish %s: %w", path, err)
	}
	return nil
}

// ParseWindows parses the -windows flag form "0-50,50-100" into an
// ascending window list. Windows must be well-formed (lo < hi, both in
// ascending order by lo) but may share a boundary point — the shared grid
// slot is trained into both models and routing picks the earlier window.
func ParseWindows(s string) ([]Window, error) {
	var out []Window
	for _, part := range splitComma(s) {
		var w Window
		if _, err := fmt.Sscanf(part, "%f-%f", &w.Lo, &w.Hi); err != nil {
			return nil, fmt.Errorf("modelserve: bad window %q (want lo-hi): %w", part, err)
		}
		if w.Lo < 0 || w.Hi <= w.Lo {
			return nil, fmt.Errorf("modelserve: bad window %q: need 0 <= lo < hi", part)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("modelserve: no windows in %q", s)
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Lo < out[j].Lo }) {
		return nil, fmt.Errorf("modelserve: windows in %q are not ascending", s)
	}
	return out, nil
}

func splitComma(s string) []string {
	var parts []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}
