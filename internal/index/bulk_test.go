package index

import (
	"math/rand"
	"testing"
)

// TestBulkLoadMatchesIncremental builds the same data both ways and checks
// query equivalence plus structural invariants.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ivs := randomIntervals(rng, 500)

	avlBulk := NewAVL()
	if err := avlBulk.BulkLoad(ivs); err != nil {
		t.Fatal(err)
	}
	itBulk := NewIntervalTree()
	if err := itBulk.BulkLoad(ivs); err != nil {
		t.Fatal(err)
	}
	if err := avlBulk.byStart.checkInvariants(); err != nil {
		t.Fatalf("bulk avl byStart: %v", err)
	}
	if err := avlBulk.byEnd.checkInvariants(); err != nil {
		t.Fatalf("bulk avl byEnd: %v", err)
	}
	if err := itBulk.checkInvariants(); err != nil {
		t.Fatalf("bulk interval tree: %v", err)
	}
	if avlBulk.Len() != len(ivs) || itBulk.Len() != len(ivs) {
		t.Fatalf("lens %d/%d, want %d", avlBulk.Len(), itBulk.Len(), len(ivs))
	}

	oracle := brute(ivs)
	for q := int64(-5); q <= 260; q += 11 {
		if got := sortedIDs(avlBulk.ActiveAt(q)); !eq(got, oracle.activeAt(q)) {
			t.Fatalf("avl bulk ActiveAt(%d) mismatch", q)
		}
		if got := sortedIDs(itBulk.ActiveAt(q)); !eq(got, oracle.activeAt(q)) {
			t.Fatalf("interval bulk ActiveAt(%d) mismatch", q)
		}
		if got := sortedIDs(avlBulk.SettledBy(q)); !eq(got, oracle.settledBy(q)) {
			t.Fatalf("avl bulk SettledBy(%d) mismatch", q)
		}
		if got := sortedIDs(itBulk.SettledBy(q)); !eq(got, oracle.settledBy(q)) {
			t.Fatalf("interval bulk SettledBy(%d) mismatch", q)
		}
	}
}

// TestBulkLoadThenMutate verifies incremental operations still work on a
// bulk-loaded tree.
func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	ivs := randomIntervals(rng, 200)
	for _, kind := range Kinds() {
		idx, err := Build(kind, ivs)
		if err != nil {
			t.Fatal(err)
		}
		extra := Interval{Start: 42, End: 77, ID: 9999}
		if err := idx.Insert(extra); err != nil {
			t.Fatal(err)
		}
		if !idx.Delete(ivs[17]) {
			t.Fatalf("%s: delete after bulk load failed", kind)
		}
		if idx.Len() != len(ivs) {
			t.Fatalf("%s: len = %d, want %d", kind, idx.Len(), len(ivs))
		}
		found := false
		for _, id := range idx.ActiveAt(50) {
			if id == 9999 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: inserted interval not found after bulk load", kind)
		}
	}
	// Invariants hold after churn.
	avl := NewAVL()
	if err := avl.BulkLoad(ivs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := avl.Insert(Interval{Start: int64(i), End: int64(i + 10), ID: 10000 + i}); err != nil {
			t.Fatal(err)
		}
		avl.Delete(ivs[i])
	}
	if err := avl.byStart.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := avl.byEnd.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsInvalid(t *testing.T) {
	bad := []Interval{{Start: 0, End: 5, ID: 0}, {Start: 10, End: 5, ID: 1}}
	for _, kind := range Kinds() {
		if _, err := Build(kind, bad); err == nil {
			t.Errorf("%s: want error", kind)
		}
		idx, err := Build(kind, smallFixture())
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.BulkLoad(bad); err == nil {
			t.Errorf("%s: reload: want error", kind)
		}
		if got := sortedIDs(idx.ActiveAt(10)); idx.Len() != 5 || !eq(got, []int{2, 3, 4}) {
			t.Errorf("%s: failed reload changed the contents: len %d, ActiveAt(10) = %v", kind, idx.Len(), got)
		}
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	for _, kind := range Kinds() {
		idx, err := Build(kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Len() != 0 || len(idx.ActiveAt(5)) != 0 {
			t.Errorf("%s: empty bulk load should yield empty index", kind)
		}
	}
}
