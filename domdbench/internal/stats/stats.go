// Package stats is the benchmark's arithmetic: the one percentile helper
// every latency and span summary goes through, and the self-time rule for
// spans.
package stats

import (
	"math"
	"sort"
)

// Percentile reads the q-quantile (0 < q <= 1) of an ascending-sorted
// slice by the nearest-rank rule: the smallest sample with at least q·n
// samples at or below it. An empty slice gives 0.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps a product that should be an exact rank (0.95·20)
	// from rounding up to the next one.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	return sorted[rank-1]
}

// Summary is the sample count, median and tails of one sample set.
type Summary struct {
	Count         int
	P50, P95, P99 float64
}

// Summarize sorts a copy of samples and reads its percentiles.
func Summarize(samples []float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return Summary{
		Count: len(s),
		P50:   Percentile(s, 0.50),
		P95:   Percentile(s, 0.95),
		P99:   Percentile(s, 0.99),
	}
}

// Tail reads the percentile TailQuantile picks for the summary's count.
func (s Summary) Tail() (q, v float64) {
	switch q = TailQuantile(s.Count); q {
	case 0.99:
		return q, s.P99
	case 0.95:
		return q, s.P95
	}
	return q, s.P50
}

// TailQuantile is the higher of p99 and p95 that leaves at least ten of n
// samples beyond it, or the median when neither does.
func TailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// Interval is one span's extent [Start, End), in nanoseconds.
type Interval struct{ Start, End int64 }

// Covered is how much of w the union of ivs covers: overlapping intervals
// count once, and parts outside w not at all.
func Covered(w Interval, ivs []Interval) int64 {
	in := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if s, e := max(iv.Start, w.Start), min(iv.End, w.End); e > s {
			in = append(in, Interval{s, e})
		}
	}
	if len(in) == 0 {
		return 0
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Start < in[j].Start })
	var total int64
	cur := in[0]
	for _, iv := range in[1:] {
		if iv.Start > cur.End {
			total += cur.End - cur.Start
			cur = iv
		} else if iv.End > cur.End {
			cur.End = iv.End
		}
	}
	return total + cur.End - cur.Start
}

// SelfTime is a span's duration minus the part of it its children cover.
func SelfTime(span Interval, children []Interval) int64 {
	return span.End - span.Start - Covered(span, children)
}
