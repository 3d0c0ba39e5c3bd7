// Package trace records the traced replay's spans in memory and writes
// them out when the run ends. A span is one call into a layer: its name,
// extent, the span that caused it, and the replayed operation it belongs
// to.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"domd/domdbench/internal/stats"
)

// Span is one recorded call.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Op     int64  `json:"op"`     // replayed operation; 0 for standalone probes
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// Interval is the span's extent.
func (s Span) Interval() stats.Interval { return stats.Interval{Start: s.Start, End: s.End} }

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder collects spans. It is safe for concurrent use, so parallel
// fleet rows can record into it.
type Recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex // guards spans
	spans []Span
}

// NewRecorder starts a recorder; span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span. It is recorded once passed to End.
func (r *Recorder) Begin(op, parent int64, name string) Span {
	return Span{ID: r.next.Add(1), Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))}
}

// End closes s, records it and returns it closed.
func (r *Recorder) End(s Span) Span {
	s.End = int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// Len is the number of spans recorded so far.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Since copies the spans recorded from index i on.
func (r *Recorder) Since(i int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans[i:]...)
}

// Reset drops every recorded span.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// SelfTimes maps each span's id to its self time: its duration minus the
// part of it the union of its children covers.
func SelfTimes(spans []Span) map[int64]int64 {
	kids := map[int64][]stats.Interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.Interval())
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = stats.SelfTime(s.Interval(), kids[s.ID])
	}
	return self
}

// WriteJSONL writes one JSON object per span, with its self time.
func WriteJSONL(path string, spans []Span) error {
	self := SelfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		row := struct {
			Span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(row); err != nil {
			f.Close() //lint:ignore droppederr best-effort close; the encode error is returned
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //lint:ignore droppederr best-effort close; the flush error is returned
		return err
	}
	return f.Close()
}

// WriteSummary prints, per span name, the span count, median and p99
// duration, median self time and total self time, largest total first.
func WriteSummary(w io.Writer, spans []Span) error {
	self := SelfTimes(spans)
	type agg struct {
		dur, self []float64
		total     float64
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.dur = append(a.dur, float64(s.Dur())/1e3)
		a.self = append(a.self, float64(self[s.ID])/1e3)
		a.total += float64(self[s.ID]) / 1e6
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]].total > byName[names[j]].total })
	if _, err := fmt.Fprintf(w, "%-30s %7s %10s %10s %11s %13s\n", "span", "count", "p50_us", "p99_us", "self_p50_us", "self_total_ms"); err != nil {
		return err
	}
	for _, n := range names {
		a := byName[n]
		d, s := stats.Summarize(a.dur), stats.Summarize(a.self)
		if _, err := fmt.Fprintf(w, "%-30s %7d %10.1f %10.1f %11.1f %13.1f\n", n, d.Count, d.P50, d.P99, s.P50, a.total); err != nil {
			return err
		}
	}
	return nil
}
