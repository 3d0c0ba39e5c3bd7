package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// smallFixture is a hand-checkable set of intervals.
//
//	id 1: [0, 10)    id 2: [5, 15)   id 3: [10, 20)
//	id 4: [0, 30)    id 5: [25, 26)
func smallFixture() []Interval {
	return []Interval{
		{Start: 0, End: 10, ID: 1},
		{Start: 5, End: 15, ID: 2},
		{Start: 10, End: 20, ID: 3},
		{Start: 0, End: 30, ID: 4},
		{Start: 25, End: 26, ID: 5},
	}
}

func sortedIDs(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAllKindsSmallFixture(t *testing.T) {
	cases := []struct {
		t       int64
		active  []int
		settled []int
		created []int
	}{
		{-1, nil, nil, nil},
		{0, []int{1, 4}, nil, []int{1, 4}},
		{5, []int{1, 2, 4}, nil, []int{1, 2, 4}},
		{9, []int{1, 2, 4}, nil, []int{1, 2, 4}},
		{10, []int{2, 3, 4}, []int{1}, []int{1, 2, 3, 4}},
		{15, []int{3, 4}, []int{1, 2}, []int{1, 2, 3, 4}},
		{20, []int{4}, []int{1, 2, 3}, []int{1, 2, 3, 4}},
		{25, []int{4, 5}, []int{1, 2, 3}, []int{1, 2, 3, 4, 5}},
		{26, []int{4}, []int{1, 2, 3, 5}, []int{1, 2, 3, 4, 5}},
		{30, nil, []int{1, 2, 3, 4, 5}, []int{1, 2, 3, 4, 5}},
		{1000, nil, []int{1, 2, 3, 4, 5}, []int{1, 2, 3, 4, 5}},
	}
	for _, kind := range Kinds() {
		idx, err := Build(kind, smallFixture())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if idx.Len() != 5 {
			t.Fatalf("%s: Len = %d, want 5", kind, idx.Len())
		}
		for _, c := range cases {
			if got := sortedIDs(idx.ActiveAt(c.t)); !eq(got, c.active) {
				t.Errorf("%s: ActiveAt(%d) = %v, want %v", kind, c.t, got, c.active)
			}
			if got := sortedIDs(idx.SettledBy(c.t)); !eq(got, c.settled) {
				t.Errorf("%s: SettledBy(%d) = %v, want %v", kind, c.t, got, c.settled)
			}
			if got := sortedIDs(idx.CreatedBy(c.t)); !eq(got, c.created) {
				t.Errorf("%s: CreatedBy(%d) = %v, want %v", kind, c.t, got, c.created)
			}
			if got := idx.CountActiveAt(c.t); got != len(c.active) {
				t.Errorf("%s: CountActiveAt(%d) = %d, want %d", kind, c.t, got, len(c.active))
			}
			if got := idx.CountSettledBy(c.t); got != len(c.settled) {
				t.Errorf("%s: CountSettledBy(%d) = %d, want %d", kind, c.t, got, len(c.settled))
			}
		}
	}
}

func TestInsertRejectsInvalidInterval(t *testing.T) {
	for _, kind := range Kinds() {
		idx, _ := New(kind)
		if err := idx.Insert(Interval{Start: 10, End: 5, ID: 1}); err == nil {
			t.Errorf("%s: Insert of inverted interval: want error", kind)
		}
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Kind("btree")); err == nil {
		t.Error("New(btree): want error")
	}
}

func TestDelete(t *testing.T) {
	for _, kind := range Kinds() {
		idx, err := Build(kind, smallFixture())
		if err != nil {
			t.Fatal(err)
		}
		if !idx.Delete(Interval{Start: 5, End: 15, ID: 2}) {
			t.Fatalf("%s: Delete of existing interval returned false", kind)
		}
		if idx.Delete(Interval{Start: 5, End: 15, ID: 2}) {
			t.Errorf("%s: second Delete returned true", kind)
		}
		if idx.Len() != 4 {
			t.Errorf("%s: Len after delete = %d, want 4", kind, idx.Len())
		}
		if got := sortedIDs(idx.ActiveAt(10)); !eq(got, []int{3, 4}) {
			t.Errorf("%s: ActiveAt(10) after delete = %v, want [3 4]", kind, got)
		}
		if idx.Delete(Interval{Start: 99, End: 100, ID: 999}) {
			t.Errorf("%s: Delete of absent interval returned true", kind)
		}
	}
}

// brute is the reference oracle.
type brute []Interval

func (b brute) activeAt(t int64) []int {
	var ids []int
	for _, iv := range b {
		if iv.Start <= t && iv.End > t {
			ids = append(ids, iv.ID)
		}
	}
	return sortedIDs(ids)
}

func (b brute) settledBy(t int64) []int {
	var ids []int
	for _, iv := range b {
		if iv.End <= t {
			ids = append(ids, iv.ID)
		}
	}
	return sortedIDs(ids)
}

func (b brute) createdBy(t int64) []int {
	var ids []int
	for _, iv := range b {
		if iv.Start <= t {
			ids = append(ids, iv.ID)
		}
	}
	return sortedIDs(ids)
}

func randomIntervals(rng *rand.Rand, n int) []Interval {
	ivs := make([]Interval, n)
	for i := range ivs {
		s := int64(rng.Intn(200))
		ivs[i] = Interval{Start: s, End: s + int64(rng.Intn(50)), ID: i}
	}
	return ivs
}

// TestRandomizedAgainstOracle cross-checks all three designs against the
// brute-force oracle over random workloads: bulk-loaded, after deleting a
// random third, and after inserting that third back.
func TestRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ivs := randomIntervals(rng, 150)
		idxs := make(map[Kind]TimeIndex)
		for _, kind := range Kinds() {
			idx, err := Build(kind, ivs)
			if err != nil {
				t.Fatal(err)
			}
			idxs[kind] = idx
		}
		// Delete a random third.
		live := append([]Interval(nil), ivs...)
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		dead := live[:len(live)/3]
		live = live[len(live)/3:]
		for _, iv := range dead {
			for kind, idx := range idxs {
				if !idx.Delete(iv) {
					t.Fatalf("%s: delete %v failed", kind, iv)
				}
			}
		}
		checkAgainstOracle(t, fmt.Sprintf("trial %d after delete", trial), idxs, live)
		// Insert the deleted third back, in its shuffled order.
		for _, iv := range dead {
			for kind, idx := range idxs {
				if err := idx.Insert(iv); err != nil {
					t.Fatalf("%s: insert %v: %v", kind, iv, err)
				}
			}
		}
		checkAgainstOracle(t, fmt.Sprintf("trial %d after re-insert", trial), idxs, ivs)
	}
}

// checkAgainstOracle runs every query of every index in idxs at a grid of
// timestamps and fails unless each answers as the brute oracle over ivs.
func checkAgainstOracle(t *testing.T, tag string, idxs map[Kind]TimeIndex, ivs []Interval) {
	t.Helper()
	oracle := brute(ivs)
	for q := int64(-5); q <= 260; q += 7 {
		wantA, wantS, wantC := oracle.activeAt(q), oracle.settledBy(q), oracle.createdBy(q)
		lo := q - 15
		wantCI, wantSI := oracle.createdIn(lo, q), oracle.settledIn(lo, q)
		for kind, idx := range idxs {
			if got := idx.Len(); got != len(ivs) {
				t.Fatalf("%s %s: Len = %d, want %d", tag, kind, got, len(ivs))
			}
			if got := sortedIDs(idx.ActiveAt(q)); !eq(got, wantA) {
				t.Fatalf("%s %s: ActiveAt(%d) = %v, want %v", tag, kind, q, got, wantA)
			}
			if got := sortedIDs(idx.SettledBy(q)); !eq(got, wantS) {
				t.Fatalf("%s %s: SettledBy(%d) = %v, want %v", tag, kind, q, got, wantS)
			}
			if got := sortedIDs(idx.CreatedBy(q)); !eq(got, wantC) {
				t.Fatalf("%s %s: CreatedBy(%d) = %v, want %v", tag, kind, q, got, wantC)
			}
			if got := idx.CountActiveAt(q); got != len(wantA) {
				t.Fatalf("%s %s: CountActiveAt(%d) = %d, want %d", tag, kind, q, got, len(wantA))
			}
			if got := idx.CountSettledBy(q); got != len(wantS) {
				t.Fatalf("%s %s: CountSettledBy(%d) = %d, want %d", tag, kind, q, got, len(wantS))
			}
			if got := sortedIDs(idx.CreatedIn(lo, q)); !eq(got, wantCI) {
				t.Fatalf("%s %s: CreatedIn(%d,%d] = %v, want %v", tag, kind, lo, q, got, wantCI)
			}
			if got := sortedIDs(idx.SettledIn(lo, q)); !eq(got, wantSI) {
				t.Fatalf("%s %s: SettledIn(%d,%d] = %v, want %v", tag, kind, lo, q, got, wantSI)
			}
		}
	}
}

// TestQuickSetIdentities verifies the Eqs. 3-6 set identities:
// Created = Active ∪ Settled (disjoint), New = all \ Created.
func TestQuickSetIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, q16 int16) bool {
		r := rand.New(rand.NewSource(seed))
		ivs := randomIntervals(r, 60)
		q := int64(q16 % 300)
		for _, kind := range Kinds() {
			idx, err := Build(kind, ivs)
			if err != nil {
				return false
			}
			active := sortedIDs(idx.ActiveAt(q))
			settled := sortedIDs(idx.SettledBy(q))
			created := sortedIDs(idx.CreatedBy(q))
			// Disjoint.
			seen := map[int]bool{}
			for _, id := range active {
				seen[id] = true
			}
			for _, id := range settled {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
			// Union equals created.
			if len(created) != len(active)+len(settled) {
				return false
			}
			for _, id := range created {
				if !seen[id] {
					return false
				}
			}
			// New = complement.
			if idx.Len()-len(created) < 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAVLInvariantsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	idx := NewAVL()
	var live []Interval
	for op := 0; op < 2000; op++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			s := int64(rng.Intn(1000))
			iv := Interval{Start: s, End: s + int64(rng.Intn(100)), ID: op}
			if err := idx.Insert(iv); err != nil {
				t.Fatal(err)
			}
			live = append(live, iv)
		} else {
			k := rng.Intn(len(live))
			if !idx.Delete(live[k]) {
				t.Fatalf("delete %v failed", live[k])
			}
			live = append(live[:k], live[k+1:]...)
		}
		if op%100 == 0 {
			if err := idx.byStart.checkInvariants(); err != nil {
				t.Fatalf("op %d byStart: %v", op, err)
			}
			if err := idx.byEnd.checkInvariants(); err != nil {
				t.Fatalf("op %d byEnd: %v", op, err)
			}
			if idx.Len() != len(live) {
				t.Fatalf("op %d: Len = %d, want %d", op, idx.Len(), len(live))
			}
		}
	}
}

func TestIntervalTreeInvariantsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	tree := NewIntervalTree()
	var live []Interval
	for op := 0; op < 2000; op++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			s := int64(rng.Intn(1000))
			iv := Interval{Start: s, End: s + int64(rng.Intn(100)), ID: op}
			if err := tree.Insert(iv); err != nil {
				t.Fatal(err)
			}
			live = append(live, iv)
		} else {
			k := rng.Intn(len(live))
			if !tree.Delete(live[k]) {
				t.Fatalf("delete %v failed", live[k])
			}
			live = append(live[:k], live[k+1:]...)
		}
		if op%100 == 0 {
			if err := tree.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
}

func TestAVLTreeIsBalanced(t *testing.T) {
	tr := &avlTree{}
	// Sorted insertion is the classic worst case for an unbalanced BST.
	n := 4096
	for i := 0; i < n; i++ {
		tr.insert(avlEntry{key: int64(i), id: i})
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Height must be O(log n): AVL guarantees <= 1.44 log2(n+2).
	const maxH int32 = 19 // AVL height bound 1.44*log2(n+2): log2(4096) = 12
	if h := height(tr.root); h > maxH {
		t.Errorf("height = %d after sorted insertion of %d keys, want <= %d", h, n, maxH)
	}
}

func TestCountLE(t *testing.T) {
	tr := &avlTree{}
	keys := []int64{5, 3, 8, 3, 9, 1}
	for i, k := range keys {
		tr.insert(avlEntry{key: k, id: i})
	}
	cases := []struct {
		k    int64
		want int
	}{{0, 0}, {1, 1}, {2, 1}, {3, 3}, {5, 4}, {8, 5}, {9, 6}, {100, 6}}
	for _, c := range cases {
		if got := tr.countLE(c.k); got != c.want {
			t.Errorf("countLE(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

func TestMemoryBytesScalesLinearly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small := randomIntervals(rng, 100)
	large := randomIntervals(rng, 1000)
	for _, kind := range Kinds() {
		si, _ := Build(kind, small)
		li, _ := Build(kind, large)
		if si.MemoryBytes() <= 0 {
			t.Errorf("%s: small MemoryBytes = %d, want > 0", kind, si.MemoryBytes())
		}
		ratio := float64(li.MemoryBytes()) / float64(si.MemoryBytes())
		if ratio < 5 || ratio > 20 {
			t.Errorf("%s: memory ratio %f for 10x data, want ~10", kind, ratio)
		}
	}
}

// TestNaiveUsesMoreMemoryThanTrees pins the Table 6 shape: the merge
// baseline's materialized copy costs about twice the tree indexes.
func TestNaiveUsesMoreMemoryThanTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ivs := randomIntervals(rng, 5000)
	naive, _ := Build(KindNaive, ivs)
	avl, _ := Build(KindAVL, ivs)
	if naive.MemoryBytes() <= avl.MemoryBytes()/2 {
		t.Errorf("naive memory %d should be on the order of the AVL's %d or more",
			naive.MemoryBytes(), avl.MemoryBytes())
	}
}

func TestEmptyIndexQueries(t *testing.T) {
	for _, kind := range Kinds() {
		idx, _ := New(kind)
		if idx.Len() != 0 {
			t.Errorf("%s: empty Len = %d", kind, idx.Len())
		}
		if ids := idx.ActiveAt(10); len(ids) != 0 {
			t.Errorf("%s: ActiveAt on empty = %v", kind, ids)
		}
		if ids := idx.SettledBy(10); len(ids) != 0 {
			t.Errorf("%s: SettledBy on empty = %v", kind, ids)
		}
		if idx.CountActiveAt(10) != 0 || idx.CountSettledBy(10) != 0 {
			t.Errorf("%s: counts on empty index non-zero", kind)
		}
		if idx.Delete(Interval{ID: 1}) {
			t.Errorf("%s: Delete on empty returned true", kind)
		}
	}
}

func TestZeroLengthIntervals(t *testing.T) {
	// A zero-length interval [t, t) is never active but settles at t.
	for _, kind := range Kinds() {
		idx, _ := New(kind)
		if err := idx.Insert(Interval{Start: 10, End: 10, ID: 1}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if ids := idx.ActiveAt(10); len(ids) != 0 {
			t.Errorf("%s: zero-length interval active = %v", kind, ids)
		}
		if ids := idx.SettledBy(10); !eq(sortedIDs(ids), []int{1}) {
			t.Errorf("%s: zero-length interval settled = %v, want [1]", kind, ids)
		}
	}
}
