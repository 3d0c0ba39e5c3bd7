package workload

import (
	"testing"

	"domd/internal/domain"
)

func TestStreamsAreSeededAndDistinct(t *testing.T) {
	s, err := Lookup("ingest-mix")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	a, b := f.Stream(s, 7, 0), g.Stream(s, 7, 0)
	ids := map[int]bool{}
	for _, r := range f.RCCs {
		ids[r.ID] = true
	}
	other := f.Stream(s, 7, 1)
	if reseeded := f.Stream(s, 8, 0); reseeded.Next() == g.Stream(s, 7, 0).Next() {
		t.Error("seeds 7 and 8 start with the same operation")
	}
	for i := 0; i < 2000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("op %d differs for the same seed: %+v vs %+v", i, x, y)
		}
		for _, op := range []Op{x, other.Next()} {
			if op.Kind != Ingest {
				continue
			}
			if ids[op.RCC.ID] {
				t.Fatalf("ingest id %d reused", op.RCC.ID)
			}
			ids[op.RCC.ID] = true
			av := f.Avail(op.Avail)
			if op.RCC.Created < av.ActStart || op.RCC.Created > av.ActStart+domain.Day(av.PlannedDuration()) {
				t.Fatalf("rcc created %v outside avail %d's window", op.RCC.Created, av.ID)
			}
			if err := op.RCC.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFleetShape(t *testing.T) {
	for _, s := range Specs {
		f, err := Generate(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(f.Ongoing) != s.Ongoing {
			t.Fatalf("%s: %d ongoing avails, want %d", s.Name, len(f.Ongoing), s.Ongoing)
		}
		for _, id := range f.Ongoing {
			if f.Avail(id).ActStart >= f.FleetDate {
				t.Errorf("%s: fleet date %v not after avail %d's start", s.Name, f.FleetDate, id)
			}
		}
		seen := map[int]bool{}
		for _, r := range f.RCCs {
			if seen[r.ID] {
				t.Fatalf("%s: duplicate rcc id %d", s.Name, r.ID)
			}
			seen[r.ID] = true
		}
		warm := f.Warmup(s, 3)
		kinds := 0
		for _, k := range []Kind{Query, Predict, Ingest} {
			if s.Issues(k) {
				kinds++
			}
		}
		want := kinds * len(f.Ongoing)
		if s.Issues(Fleet) {
			want++
		}
		if len(warm) != want {
			t.Errorf("%s: %d warm-up ops, want %d", s.Name, len(warm), want)
		}
	}
}

func TestScaleReplicatesOngoingHistories(t *testing.T) {
	s, err := Lookup("wide-read")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	per := map[int]int{}
	for _, r := range f.RCCs {
		per[r.AvailID]++
	}
	for _, id := range f.Ongoing {
		if n := per[id]; n%s.Scale != 0 || n < s.Scale {
			t.Errorf("avail %d has %d RCCs, not a multiple of %d", id, n, s.Scale)
		}
	}
}
