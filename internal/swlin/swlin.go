// Package swlin models the Ship Work List Number, the 8-digit hierarchical
// code identifying physical locations on a ship (paper §2, Fig. 1). The first
// digit is the general subsystem; each subsequent digit narrows to a more
// specific module. Codes print in the paper's grouped form "434-11-001".
//
// The package also provides the SWLIN group-by tree of Algorithm 1: a digit
// trie whose nodes correspond to code prefixes (hierarchy levels), supporting
// the subtree retrieval used by Status Queries.
package swlin

import (
	"fmt"
	"strings"
)

// Digits is the number of digits in a full SWLIN code.
const Digits = 8

// Code is an 8-digit SWLIN packed into an int in [0, 10^8).
type Code int

// maxCode is one past the largest valid code.
const maxCode = 100_000_000

// Valid reports whether c is a well-formed 8-digit code.
func (c Code) Valid() bool { return c >= 0 && c < maxCode }

// Digit returns the i-th digit (0 = most significant subsystem digit).
func (c Code) Digit(i int) int {
	if i < 0 || i >= Digits {
		panic(fmt.Sprintf("swlin: digit index %d out of range", i))
	}
	div := pow10(Digits - 1 - i)
	return int(c) / div % 10
}

// Subsystem returns the first (most significant) digit, the general
// subsystem identifier used to group features like "G1-AVG_SETTLED_AMT".
// It is Digit(0) with the divisor folded to a constant: the feature sweep
// calls it for every RCC it folds.
func (c Code) Subsystem() int { return int(c) / 10_000_000 % 10 }

// Prefix returns the leading n digits as an integer (the level-n group key).
// Prefix(0) is always 0.
func (c Code) Prefix(n int) int {
	if n < 0 || n > Digits {
		panic(fmt.Sprintf("swlin: prefix length %d out of range", n))
	}
	return int(c) / pow10(Digits-n)
}

// String formats the code in the paper's "434-11-001" style: a 3-2-3 digit
// grouping.
func (c Code) String() string {
	s := fmt.Sprintf("%08d", int(c))
	return s[:3] + "-" + s[3:5] + "-" + s[5:]
}

// Parse parses either a bare 8-digit string or the grouped "434-11-001" form.
func Parse(s string) (Code, error) {
	clean := strings.ReplaceAll(s, "-", "")
	if len(clean) != Digits {
		return 0, fmt.Errorf("swlin: code %q must have %d digits", s, Digits)
	}
	var v int
	for _, r := range clean {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("swlin: code %q contains non-digit %q", s, r)
		}
		v = v*10 + int(r-'0')
	}
	return Code(v), nil
}

// FromParts assembles a code from the paper's three printed groups
// (3, 2 and 3 digits respectively).
func FromParts(a, b, c int) (Code, error) {
	if a < 0 || a > 999 || b < 0 || b > 99 || c < 0 || c > 999 {
		return 0, fmt.Errorf("swlin: parts %d-%d-%d out of range", a, b, c)
	}
	return Code(a*100_000 + b*1000 + c), nil
}

func pow10(n int) int {
	v := 1
	for i := 0; i < n; i++ {
		v *= 10
	}
	return v
}

// Tree is the SWLIN group-by digit trie of Algorithm 1 (ST). Each node
// represents a code prefix; leaves at depth 8 represent full codes. Nodes
// store the ids of items (RCCs) whose code passes through them, so the
// subtree satisfying a group-by predicate is retrieved by a single
// prefix descent.
type Tree struct {
	root *node
	size int
}

type node struct {
	children [10]*node
	// ids of items inserted at or below this node, in insertion order.
	ids []int
}

// NewTree returns an empty SWLIN trie.
func NewTree() *Tree { return &Tree{root: &node{}} }

// Len reports the number of inserted items.
func (t *Tree) Len() int { return t.size }

// Insert records item id under code c, updating every prefix node on the
// path so group lookups at any level are O(depth) descents.
func (t *Tree) Insert(c Code, id int) error {
	if !c.Valid() {
		return fmt.Errorf("swlin: insert invalid code %d", int(c))
	}
	n := t.root
	n.ids = append(n.ids, id)
	for i := 0; i < Digits; i++ {
		d := c.Digit(i)
		if n.children[d] == nil {
			n.children[d] = &node{}
		}
		n = n.children[d]
		n.ids = append(n.ids, id)
	}
	t.size++
	return nil
}

// Group returns the ids of all items whose code starts with the given
// prefix digits. An empty prefix returns every item. The returned slice is
// shared with the tree and must not be mutated.
func (t *Tree) Group(prefix []int) []int {
	n := t.root
	for _, d := range prefix {
		if d < 0 || d > 9 {
			return nil
		}
		n = n.children[d]
		if n == nil {
			return nil
		}
	}
	return n.ids
}

// GroupByLevel enumerates the non-empty groups at the given hierarchy level
// (prefix length). Level 0 yields a single group of all items. The callback
// receives the prefix value (leading digits as an integer) and the member
// ids; iteration is in ascending prefix order.
func (t *Tree) GroupByLevel(level int, fn func(prefix int, ids []int)) {
	if level < 0 || level > Digits {
		return
	}
	var walk func(n *node, depth, prefix int)
	walk = func(n *node, depth, prefix int) {
		if depth == level {
			fn(prefix, n.ids)
			return
		}
		for d := 0; d < 10; d++ {
			if c := n.children[d]; c != nil {
				walk(c, depth+1, prefix*10+d)
			}
		}
	}
	walk(t.root, 0, 0)
}
