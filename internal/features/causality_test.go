package features

import (
	"testing"

	"domd/internal/domain"
	"domd/internal/statusq"
	"domd/internal/swlin"
)

// TestNoFutureLeakage pins the causality property the DoMD query semantics
// depend on: feature vectors at logical time t* must be identical whether or
// not RCCs created after t* exist. (A regression here once leaked the
// all-time RCC total into early-timestamp Pct features.)
func TestNoFutureLeakage(t *testing.T) {
	a := &domain.Avail{ID: 1, Status: domain.StatusClosed,
		PlanStart: 0, PlanEnd: 100, ActStart: 0, ActEnd: 120}
	mk := func(s string) int {
		c, err := swlin.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return int(c)
	}
	early := []domain.RCC{
		{ID: 1, AvailID: 1, Type: domain.Growth, SWLIN: mk("434-11-001"), Created: 5, Settled: 40, Amount: 100},
		{ID: 2, AvailID: 1, Type: domain.NewWork, SWLIN: mk("911-90-001"), Created: 10, Settled: 25, Amount: 300},
	}
	// The "future" adds RCCs created strictly after day 50 (t* > 50%).
	future := append(append([]domain.RCC(nil), early...),
		domain.RCC{ID: 3, AvailID: 1, Type: domain.Growth, SWLIN: mk("434-11-002"), Created: 60, Settled: 80, Amount: 9999},
		domain.RCC{ID: 4, AvailID: 1, Type: domain.NewGrowth, SWLIN: mk("565-11-001"), Created: 90, Settled: 95, Amount: 777},
	)

	ext := NewExtractor()
	engEarly, err := statusq.NewEngine(a, early)
	if err != nil {
		t.Fatal(err)
	}
	engFuture, err := statusq.NewEngine(a, future)
	if err != nil {
		t.Fatal(err)
	}
	names := ext.Names()
	for _, ts := range []float64{0, 10, 25, 50} {
		ve, err := ext.Vector(engEarly, ts)
		if err != nil {
			t.Fatal(err)
		}
		vf, err := ext.Vector(engFuture, ts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ve {
			if ve[j] != vf[j] {
				t.Fatalf("t*=%g: feature %s differs with future RCCs present: %f vs %f",
					ts, names[j], ve[j], vf[j])
			}
		}
	}
	// Past the future RCCs' creation the vectors must diverge.
	ve, _ := ext.Vector(engEarly, 70)
	vf, _ := ext.Vector(engFuture, 70)
	same := true
	for j := range ve {
		if ve[j] != vf[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("vectors should differ once the extra RCCs are visible")
	}
}
