package stats

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n       int
		q, want float64
	}{
		{20, 0.50, 10},
		{20, 0.95, 19},
		{20, 0.99, 20},
		{20, 1, 20},
		{20, 0.01, 1},
		{1000, 0.99, 990},
		{1000, 0.95, 950},
		{1001, 0.50, 501},
		{1, 0.5, 1},
	}
	for _, c := range cases {
		if got := Percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("Percentile(1..%d, %g) = %g, want %g", c.n, c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
}

func TestSummarizeSortsACopy(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	s := Summarize(in)
	if s.Count != 5 || s.P50 != 3 || s.P95 != 5 || s.P99 != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if in[0] != 5 || in[1] != 1 {
		t.Errorf("Summarize reordered its input: %v", in)
	}
}

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.5}, {0, 0.5},
	}
	for _, c := range cases {
		q := TailQuantile(c.n)
		if q != c.want {
			t.Errorf("TailQuantile(%d) = %g, want %g", c.n, q, c.want)
			continue
		}
		if q > 0.5 {
			beyond := 0
			s := seq(c.n)
			p := Percentile(s, q)
			for _, v := range s {
				if v > p {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%g leaves %d samples beyond it, want >= 10", c.n, q*100, beyond)
			}
		}
	}
	if q, v := Summarize(seq(1000)).Tail(); q != 0.99 || v != 990 {
		t.Errorf("Tail(1..1000) = p%g %g", q*100, v)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	span := Interval{0, 100}
	cases := []struct {
		name     string
		children []Interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []Interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []Interval{{10, 40}, {30, 60}}, 50},
		{"nested", []Interval{{10, 90}, {20, 30}}, 20},
		{"touching", []Interval{{10, 20}, {20, 30}}, 80},
		{"unsorted", []Interval{{60, 70}, {10, 20}, {15, 25}}, 75},
		{"parallel identical", []Interval{{10, 50}, {10, 50}, {10, 50}}, 60},
		{"partly outside", []Interval{{-20, 10}, {90, 120}}, 80},
		{"fully outside", []Interval{{200, 300}}, 100},
		{"covers all", []Interval{{-5, 105}}, 0},
		{"empty child", []Interval{{40, 40}}, 100},
	}
	for _, c := range cases {
		if got := SelfTime(span, c.children); got != c.want {
			t.Errorf("%s: SelfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
