package features

import (
	"math"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/statusq"
)

// assertTensorsBitwiseEqual compares two tensors slice by slice, value by
// value, with == (no tolerance): the sweep and scratch paths accumulate in
// the same canonical event order, so their float results must be identical
// bit patterns.
func assertTensorsBitwiseEqual(t *testing.T, label string, a, b *Tensor) {
	t.Helper()
	if len(a.Timestamps) != len(b.Timestamps) || len(a.Slices) != len(b.Slices) || len(a.Avails) != len(b.Avails) {
		t.Fatalf("%s: shape mismatch: %d/%d/%d vs %d/%d/%d", label,
			len(a.Timestamps), len(a.Slices), len(a.Avails),
			len(b.Timestamps), len(b.Slices), len(b.Avails))
	}
	for i := range a.Timestamps {
		if a.Timestamps[i] != b.Timestamps[i] {
			t.Fatalf("%s: timestamp %d: %v vs %v", label, i, a.Timestamps[i], b.Timestamps[i])
		}
	}
	for i := range a.Avails {
		if a.Avails[i].ID != b.Avails[i].ID {
			t.Fatalf("%s: row %d avail %d vs %d", label, i, a.Avails[i].ID, b.Avails[i].ID)
		}
	}
	for k := range a.Slices {
		sa, sb := a.Slices[k], b.Slices[k]
		if len(sa.X) != len(sb.X) || len(sa.Y) != len(sb.Y) {
			t.Fatalf("%s: slice %d row counts differ", label, k)
		}
		for r := range sa.X {
			if sa.Y[r] != sb.Y[r] {
				t.Fatalf("%s: slice %d row %d label %v vs %v", label, k, r, sa.Y[r], sb.Y[r])
			}
			for c := range sa.X[r] {
				va, vb := sa.X[r][c], sb.X[r][c]
				if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
					t.Fatalf("%s: slice %d row %d col %d (%s): %v (%x) vs %v (%x)",
						label, k, r, c, sa.Names[c],
						va, math.Float64bits(va), vb, math.Float64bits(vb))
				}
			}
		}
	}
}

// TestBuildTensorDifferential builds the tensor three ways on
// navsim-generated data — the old per-timestamp from-scratch path, the new
// sweep path serially, and the new sweep path in parallel — and asserts
// bitwise-equal slices. The fractional gap lands grid points inside empty
// windows, and navsim data includes avails whose groups are fully settled
// well before t*=100 (the Active min/max edge cases), plus the ts=0 and
// ts=100 boundaries present on every grid.
func TestBuildTensorDifferential(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 16, NumOngoing: 2, MeanRCCsPerAvail: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ext := NewExtractor()
	for _, gap := range []float64{12.5, 33} {
		scratch, err := BuildTensorScratch(ext, ds.Avails, ds.RCCsByAvail(), gap, index.KindAVL)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := BuildTensorOpt(ext, ds.Avails, ds.RCCsByAvail(), gap, TensorOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := BuildTensorOpt(ext, ds.Avails, ds.RCCsByAvail(), gap, TensorOptions{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		assertTensorsBitwiseEqual(t, "scratch-vs-serial", scratch, serial)
		assertTensorsBitwiseEqual(t, "serial-vs-parallel", serial, parallel)
	}
}

// TestBuildTensorParallelDisjointRows drives the worker pool with more
// workers than rows and with contention (run under -race via the ci
// target): every (slice, row) cell must be written exactly once, by the
// worker owning that row.
func TestBuildTensorParallelDisjointRows(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 10, NumOngoing: 1, MeanRCCsPerAvail: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ext := NewExtractor()
	tensor, err := BuildTensorOpt(ext, ds.Avails, ds.RCCsByAvail(), 10, TensorOptions{Workers: 32})
	if err != nil {
		t.Fatal(err)
	}
	for k, slice := range tensor.Slices {
		if err := slice.Validate(); err != nil {
			t.Fatalf("slice %d invalid: %v", k, err)
		}
		for r, vec := range slice.X {
			if vec == nil {
				t.Fatalf("slice %d row %d never written", k, r)
			}
			if len(vec) != NumStatic+ext.NumDynamic() {
				t.Fatalf("slice %d row %d len %d", k, r, len(vec))
			}
		}
	}
}

// TestDynamicVectorIntoMatchesScratch checks the zero-alloc sweep variant
// against the scratch variant at every grid point, and that the sweep
// rejects out-of-order timestamps while scratch accepts them.
func TestDynamicVectorIntoMatchesScratch(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 4, NumOngoing: 0, MeanRCCsPerAvail: 120, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ext := NewExtractor()
	byAvail := ds.RCCsByAvail()
	a := &ds.Avails[0]
	sw, err := statusq.NewCellSweep(a, byAvail[a.ID])
	if err != nil {
		t.Fatal(err)
	}
	ix, err := statusq.NewIndexed(a, byAvail[a.ID], index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, ext.NumDynamic())
	want := make([]float64, ext.NumDynamic())
	for ts := 0.0; ts <= 100; ts += 5 {
		if err := ext.DynamicVectorInto(got, sw, ts); err != nil {
			t.Fatal(err)
		}
		if err := ext.DynamicVectorScratch(want, ix, ts); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ts=%g feature %s: sweep %v != scratch %v", ts, ext.DynamicNames()[i], got[i], want[i])
			}
		}
	}
	if err := ext.DynamicVectorInto(got, sw, 10); err == nil {
		t.Error("backwards sweep timestamp: want error")
	}
	if err := ext.DynamicVectorScratch(want, ix, 10); err != nil {
		t.Errorf("scratch path must accept arbitrary timestamp order: %v", err)
	}
	if err := ext.DynamicVectorInto(got[:5], sw, 100); err == nil {
		t.Error("short dst: want error")
	}
}

// TestBuildTensorScratchRejectsBadInput mirrors the error contract of the
// main build on the reference path.
func TestBuildTensorScratchRejectsBadInput(t *testing.T) {
	ext := NewExtractor()
	if _, err := BuildTensorScratch(ext, nil, nil, 0, index.KindAVL); err == nil {
		t.Error("gap 0: want error")
	}
	ongoing := []domain.Avail{{ID: 1, Status: domain.StatusOngoing, PlanStart: 0, PlanEnd: 10, ActStart: 0}}
	if _, err := BuildTensorScratch(ext, ongoing, nil, 10, index.KindAVL); err == nil {
		t.Error("no closed avails: want error")
	}
}

// TestBuildTensorScratchUnknownKind: the reference build indexes every
// avail with the chosen design, so an unknown design is an error.
func TestBuildTensorScratchUnknownKind(t *testing.T) {
	ds, err := navsim.Generate(navsim.Config{NumClosed: 4, NumOngoing: 0, MeanRCCsPerAvail: 10, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildTensorScratch(NewExtractor(), ds.Avails, ds.RCCsByAvail(), 20, index.Kind("bogus")); err == nil {
		t.Error("unknown index kind: want error")
	}
}

// TestTimestampGridNoDrift is the regression test for the float-accumulation
// grid bug: with fractional gaps, repeated `v += x` drifted so the loop
// emitted a near-duplicate point next to the appended 100. Integer stepping
// must yield exactly ⌈100/x⌉ interior points, strictly increasing, with no
// two points closer than half a gap.
func TestTimestampGridNoDrift(t *testing.T) {
	cases := []struct {
		x    float64
		want int // total grid points including the terminal 100
	}{
		{0.1, 1001},
		{0.2, 501},
		{5, 21},
		{10, 11},
		{33, 5},
		{100, 2},
	}
	for _, c := range cases {
		ts := TimestampGrid(c.x)
		if len(ts) != c.want {
			t.Errorf("x=%g: %d grid points, want %d (tail %v)", c.x, len(ts), c.want, ts[max(0, len(ts)-3):])
			continue
		}
		if ts[0] != 0 || ts[len(ts)-1] != 100 {
			t.Errorf("x=%g: grid must span [0,100], got [%g,%g]", c.x, ts[0], ts[len(ts)-1])
		}
		// Interior spacing is exactly i·x steps; the terminal gap to the
		// appended 100 may be shorter (e.g. 99 → 100 at x=33) but must
		// never collapse into the near-duplicate the drifting accumulator
		// produced (~1e-11 at x=0.1).
		for i := 1; i < len(ts); i++ {
			if d := ts[i] - ts[i-1]; d < 1e-6 {
				t.Errorf("x=%g: near-duplicate points %v and %v (gap %g)", c.x, ts[i-1], ts[i], d)
			}
		}
		for i := 1; i < len(ts)-1; i++ {
			if math.Abs(ts[i]-float64(i)*c.x) > 1e-9 {
				t.Errorf("x=%g: interior point %d drifted to %v, want %v", c.x, i, ts[i], float64(i)*c.x)
			}
		}
	}
}
