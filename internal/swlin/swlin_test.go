package swlin

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"434-11-001", "434-11-001"},
		{"43411001", "434-11-001"},
		{"911-90-001", "911-90-001"},
		{"00000000", "000-00-000"},
		{"983-11-001", "983-11-001"},
	}
	for _, c := range cases {
		code, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := code.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "1234567", "123456789", "12a45678", "434-11-0x1"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

func TestDigitsAndPrefix(t *testing.T) {
	code, err := Parse("434-11-001")
	if err != nil {
		t.Fatal(err)
	}
	wantDigits := []int{4, 3, 4, 1, 1, 0, 0, 1}
	for i, w := range wantDigits {
		if got := code.Digit(i); got != w {
			t.Errorf("Digit(%d) = %d, want %d", i, got, w)
		}
	}
	if code.Subsystem() != 4 {
		t.Errorf("Subsystem = %d, want 4", code.Subsystem())
	}
	prefixes := []int{0, 4, 43, 434, 4341, 43411, 434110, 4341100, 43411001}
	for n, w := range prefixes {
		if got := code.Prefix(n); got != w {
			t.Errorf("Prefix(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestFromParts(t *testing.T) {
	code, err := FromParts(434, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if code.String() != "434-11-001" {
		t.Errorf("FromParts = %v, want 434-11-001", code)
	}
	if _, err := FromParts(1000, 0, 0); err == nil {
		t.Error("FromParts(1000,0,0): want error")
	}
	if _, err := FromParts(0, 100, 0); err == nil {
		t.Error("FromParts(0,100,0): want error")
	}
	if _, err := FromParts(0, 0, -1); err == nil {
		t.Error("FromParts(0,0,-1): want error")
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		c := Code(int(v) % maxCode)
		back, err := Parse(c.String())
		return err == nil && back == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPrefixConsistentWithDigits(t *testing.T) {
	f := func(v uint32, nRaw uint8) bool {
		c := Code(int(v) % maxCode)
		n := int(nRaw) % (Digits + 1)
		want := 0
		for i := 0; i < n; i++ {
			want = want*10 + c.Digit(i)
		}
		return c.Prefix(n) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTreeGroup(t *testing.T) {
	tr := NewTree()
	codes := []string{"434-11-001", "434-11-002", "434-22-001", "911-90-001", "983-11-001"}
	for i, s := range codes {
		c, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(c, i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(codes) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(codes))
	}

	cases := []struct {
		prefix []int
		want   []int
	}{
		{nil, []int{0, 1, 2, 3, 4}},
		{[]int{4}, []int{0, 1, 2}},
		{[]int{4, 3, 4}, []int{0, 1, 2}},
		{[]int{4, 3, 4, 1, 1}, []int{0, 1}},
		{[]int{9}, []int{3, 4}},
		{[]int{9, 1}, []int{3}},
		{[]int{5}, nil},
		{[]int{4, 9}, nil},
	}
	for _, c := range cases {
		got := tr.Group(c.prefix)
		if !equalInts(got, c.want) {
			t.Errorf("Group(%v) = %v, want %v", c.prefix, got, c.want)
		}
	}
}

func TestTreeGroupRejectsBadDigit(t *testing.T) {
	tr := NewTree()
	c, _ := Parse("434-11-001")
	if err := tr.Insert(c, 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.Group([]int{10}); got != nil {
		t.Errorf("Group with digit 10 = %v, want nil", got)
	}
	if got := tr.Group([]int{-1}); got != nil {
		t.Errorf("Group with digit -1 = %v, want nil", got)
	}
}

func TestTreeInsertInvalidCode(t *testing.T) {
	tr := NewTree()
	if err := tr.Insert(Code(maxCode), 1); err == nil {
		t.Error("Insert of out-of-range code: want error")
	}
	if err := tr.Insert(Code(-1), 1); err == nil {
		t.Error("Insert of negative code: want error")
	}
}

func TestGroupByLevel(t *testing.T) {
	tr := NewTree()
	codes := []string{"434-11-001", "434-11-002", "911-90-001"}
	for i, s := range codes {
		c, _ := Parse(s)
		if err := tr.Insert(c, i); err != nil {
			t.Fatal(err)
		}
	}

	var prefixes []int
	var sizes []int
	tr.GroupByLevel(1, func(prefix int, ids []int) {
		prefixes = append(prefixes, prefix)
		sizes = append(sizes, len(ids))
	})
	if !equalInts(prefixes, []int{4, 9}) || !equalInts(sizes, []int{2, 1}) {
		t.Errorf("level-1 groups = %v sizes %v, want [4 9] sizes [2 1]", prefixes, sizes)
	}

	// Level 0 is the single all-items group.
	count := 0
	tr.GroupByLevel(0, func(prefix int, ids []int) {
		count++
		if prefix != 0 || len(ids) != 3 {
			t.Errorf("level-0 group = prefix %d size %d, want 0/3", prefix, len(ids))
		}
	})
	if count != 1 {
		t.Errorf("level-0 group count = %d, want 1", count)
	}

	// Out-of-range levels yield nothing.
	tr.GroupByLevel(-1, func(int, []int) { t.Error("callback for level -1") })
	tr.GroupByLevel(Digits+1, func(int, []int) { t.Error("callback for level 9") })
}

// TestTreeLevelPartition checks that at every level the groups partition the
// full id set — a structural invariant of the trie.
func TestTreeLevelPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTree()
	n := 500
	for i := 0; i < n; i++ {
		if err := tr.Insert(Code(rng.Intn(maxCode)), i); err != nil {
			t.Fatal(err)
		}
	}
	for level := 0; level <= Digits; level++ {
		var all []int
		tr.GroupByLevel(level, func(_ int, ids []int) {
			all = append(all, ids...)
		})
		if len(all) != n {
			t.Fatalf("level %d: %d ids, want %d", level, len(all), n)
		}
		sort.Ints(all)
		for i, v := range all {
			if v != i {
				t.Fatalf("level %d: ids are not a permutation of 0..%d", level, n-1)
			}
		}
	}
}

func equalInts(a, b []int) bool {
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

// FuzzSWLINCode checks every string Parse accepts: the code is valid, it
// round-trips through String, and the constant-divide Subsystem agrees
// with the general Digit(0) and Prefix(1).
func FuzzSWLINCode(f *testing.F) {
	for _, s := range []string{"434-11-001", "43411001", "000-00-000", "999-99-999", "9-1-2-3-4-5-6-7", "12a45678", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil {
			return
		}
		if !c.Valid() {
			t.Fatalf("Parse(%q) = %d, not a valid code", s, int(c))
		}
		back, err := Parse(c.String())
		if err != nil || back != c {
			t.Fatalf("Parse(%q).String() = %q re-parses to %d (%v), want %d", s, c.String(), int(back), err, int(c))
		}
		if sub, d, p := c.Subsystem(), c.Digit(0), c.Prefix(1); sub != d || sub != p {
			t.Fatalf("code %s: Subsystem %d, Digit(0) %d, Prefix(1) %d", c, sub, d, p)
		}
	})
}
