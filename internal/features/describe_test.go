package features

import (
	"math"
	"strings"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/statusq"
)

// TestParseNameRoundTrip: every registry name must parse back to a spec
// that renders the identical name.
func TestParseNameRoundTrip(t *testing.T) {
	e := NewExtractor()
	for i, s := range e.Specs() {
		name := e.DynamicNames()[i]
		back, err := ParseName(name)
		if err != nil {
			t.Fatalf("ParseName(%q): %v", name, err)
		}
		if back.Name() != name {
			t.Fatalf("round trip %q -> %q", name, back.Name())
		}
		if back.Subsystem != s.Subsystem || back.Status != s.Status || back.Agg != s.Agg {
			t.Fatalf("spec mismatch for %q", name)
		}
		if (back.Type == nil) != (s.Type == nil) {
			t.Fatalf("type presence mismatch for %q", name)
		}
		if back.Type != nil && *back.Type != *s.Type {
			t.Fatalf("type mismatch for %q", name)
		}
	}
}

func TestParseNameErrors(t *testing.T) {
	bad := []string{
		"",
		"SHIP_CLASS",           // static, not generated
		"Q4-SETTLED_COUNT",     // unknown type
		"G44-SETTLED_COUNT",    // bad subsystem
		"G4-PENDING_COUNT",     // unknown status
		"G4-SETTLED_GEOMEAN",   // unknown aggregate
		"G4_SETTLED_COUNT",     // missing dash
		"GALL-SETTLED_",        // empty aggregate
		"NGX-CREATED_COUNT",    // bad subsystem char
		"ALLALL-ACTIVE_WRONGO", // unknown aggregate
	}
	for _, name := range bad {
		if _, err := ParseName(name); err == nil {
			t.Errorf("ParseName(%q): want error", name)
		}
	}
}

func TestDescribe(t *testing.T) {
	cases := []struct {
		name     string
		contains []string
	}{
		{"G4-SETTLED_AVG_SETTLED_AMT", []string{"average settled dollars", "Growth", "subsystem 4", "already settled"}},
		{"NWALL-ACTIVE_COUNT", []string{"number of RCCs", "New Work", "anywhere", "currently active"}},
		{"ALLALL-CREATED_COUNT", []string{"number of RCCs", "any type", "created so far"}},
		{"SHIP_AGE", []string{"ship age"}},
		{"STATIC_PRED", []string{"static model"}},
	}
	for _, c := range cases {
		got, err := Describe(c.name)
		if err != nil {
			t.Fatalf("Describe(%q): %v", c.name, err)
		}
		for _, want := range c.contains {
			if !strings.Contains(got, want) {
				t.Errorf("Describe(%q) = %q, missing %q", c.name, got, want)
			}
		}
	}
	if _, err := Describe("NOT_A_FEATURE"); err == nil {
		t.Error("unknown name: want error")
	}
}

func TestDescribeCoversEveryRegistryName(t *testing.T) {
	e := NewExtractor()
	for _, name := range e.Names() {
		desc, err := Describe(name)
		if err != nil {
			t.Fatalf("Describe(%q): %v", name, err)
		}
		if desc == "" {
			t.Fatalf("Describe(%q) empty", name)
		}
	}
}

func TestParseNameSpecific(t *testing.T) {
	spec, err := ParseName("NG7-ACTIVE_MAX_DUR")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Type == nil || *spec.Type != domain.NewGrowth {
		t.Error("type wrong")
	}
	if spec.Subsystem != 7 || spec.Status != domain.Active || spec.Agg != statusq.MaxDuration {
		t.Errorf("spec = %+v", spec)
	}
}

// EvalFeature evaluates a single named generated feature at logical time ts
// as one ad-hoc Status Query — the inspection path for SMEs drilling into
// one top feature without materializing the full vector.
func EvalFeature(ix *statusq.Indexed, name string, ts float64) (float64, error) {
	spec, err := ParseName(name)
	if err != nil {
		return 0, err
	}
	q := statusq.Query{Type: spec.Type, Status: spec.Status, Agg: spec.Agg}
	if spec.Subsystem >= 0 {
		q.SWLINPrefix = []int{spec.Subsystem}
	}
	return ix.Eval(ts, q)
}

// TestEvalFeatureMatchesVector: the single-feature path must agree with the
// batched vector for every generated feature.
func TestEvalFeatureMatchesVector(t *testing.T) {
	eng := fixture(t)
	ix, err := statusq.NewIndexed(eng.Avail(), eng.RCCs(), index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExtractor()
	for _, ts := range []float64{0, 30, 100} {
		vec, err := e.Vector(eng, ts)
		if err != nil {
			t.Fatal(err)
		}
		names := e.Names()
		// Spot-check a spread of generated features (every 97th plus the
		// hand-picked ones from the vector tests).
		for j := NumStatic; j < len(names); j += 97 {
			got, err := EvalFeature(ix, names[j], ts)
			if err != nil {
				t.Fatalf("EvalFeature(%q): %v", names[j], err)
			}
			if math.Abs(got-vec[j]) > 1e-9 {
				t.Fatalf("ts=%g %s: EvalFeature %f vs vector %f", ts, names[j], got, vec[j])
			}
		}
	}
	if _, err := EvalFeature(ix, "SHIP_AGE", 10); err == nil {
		t.Error("static name should error (not a Status Query)")
	}
}

// TestDescribeAllMatchesDescribe pins the serving table to Describe: one
// entry per accepted name, STATIC_PRED included, and none for a name
// Describe rejects.
func TestDescribeAllMatchesDescribe(t *testing.T) {
	names := append(NewExtractor().Names(), "NOT-A-FEATURE")
	table := DescribeAll(names)
	if len(table) != len(names) { // every name but the bad one, plus STATIC_PRED
		t.Fatalf("table has %d entries for %d names", len(table), len(names))
	}
	for _, name := range append(names, "STATIC_PRED") {
		want, err := Describe(name)
		got, ok := table[name]
		if ok != (err == nil) || got != want {
			t.Fatalf("%q: table (%q, %v), Describe (%q, %v)", name, got, ok, want, err)
		}
	}
}
