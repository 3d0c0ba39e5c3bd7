// Package index implements the logical-time index structures ℛ of paper §4.1
// used to answer Status Queries efficiently. Three designs are provided, as
// in the paper:
//
//   - IntervalTree: an augmented self-balancing interval tree over RCC
//     (created, settled) intervals, answering stabbing and overlap queries in
//     O(log n + k).
//   - AVLIndex: two AVL balanced search trees, one keyed by creation date and
//     one by settlement date, the paper's winning design.
//   - NaiveIndex: a merge-join style baseline ("Pandas merge"): a flat sorted
//     materialization that scans on every query.
//
// Every index stores (t_start, t_end, ID) triples and answers the four RCC
// status sets of Eqs. 3–6 at any logical timestamp t*:
//
//	Active(t*)  = point/stabbing query @ t*          (created ≤ t* < settled)
//	Settled(t*) = range query over (-inf, t*]        (settled ≤ t*)
//	Created(t*) = Active ∪ Settled                    (created ≤ t*)
//	New(t*)     = all \ Created                       (not yet created)
package index

import "fmt"

// Interval is one stored (start, end, id) triple. Intervals are half-open on
// the right for status classification: the item is active on [Start, End) and
// settled from End onward, matching domain.RCC.StatusAt.
type Interval struct {
	Start, End int64
	ID         int
}

// Validate reports malformed intervals (end before start).
func (iv Interval) Validate() error {
	if iv.End < iv.Start {
		return fmt.Errorf("index: interval id %d: end %d before start %d", iv.ID, iv.End, iv.Start)
	}
	return nil
}

// TimeIndex is the common contract of the three index designs. Result sets
// are returned as id slices in unspecified order; callers needing stable
// order must sort.
//
// Concurrency contract: the query methods (ActiveAt, SettledBy, CreatedBy,
// CountActiveAt, CountSettledBy, CreatedIn, SettledIn, Len, MemoryBytes)
// only read, so they are safe to call from multiple goroutines
// concurrently. The mutating methods (BulkLoad, Insert, Delete) require
// exclusive access: callers must not run them concurrently with each other
// or with queries. statusq.Indexed relies on this split: it is immutable
// once built and shared across goroutines.
type TimeIndex interface {
	// BulkLoad replaces the contents with ivs in O(n log n): the one
	// construction path, which Build takes. An invalid interval fails it
	// with the contents left as they were.
	BulkLoad(ivs []Interval) error
	// Insert adds an interval. Duplicate ids are the caller's concern.
	Insert(iv Interval) error
	// Delete removes the interval with the given id and bounds; it reports
	// whether a matching interval was found.
	Delete(iv Interval) bool
	// Len returns the number of stored intervals.
	Len() int

	// ActiveAt returns ids with Start <= t < End (Eq. 3 point query).
	ActiveAt(t int64) []int
	// SettledBy returns ids with End <= t (Eq. 4 range query).
	SettledBy(t int64) []int
	// CreatedBy returns ids with Start <= t (Eq. 5 union).
	CreatedBy(t int64) []int
	// CountActiveAt and CountSettledBy are allocation-free cardinality
	// variants used by aggregate-only Status Queries.
	CountActiveAt(t int64) int
	CountSettledBy(t int64) int

	// CreatedIn returns ids with lo < Start <= hi and SettledIn ids with
	// lo < End <= hi — the half-open windows incremental computation
	// (§4.3) retrieves between consecutive logical timestamps.
	CreatedIn(lo, hi int64) []int
	SettledIn(lo, hi int64) []int

	// MemoryBytes estimates the resident size of the index structure,
	// used by the Table 6 reproduction.
	MemoryBytes() int
}

// Kind names an index design, used by benchmarks and the CLI.
type Kind string

// The three designs evaluated in paper §5.1.
const (
	KindNaive    Kind = "naive"    // Pandas-merge-style baseline
	KindAVL      Kind = "avl"      // dual AVL trees (paper's winner)
	KindInterval Kind = "interval" // augmented interval tree
)

// New constructs an empty index of the given kind.
func New(kind Kind) (TimeIndex, error) {
	switch kind {
	case KindNaive:
		return NewNaive(), nil
	case KindAVL:
		return NewAVL(), nil
	case KindInterval:
		return NewIntervalTree(), nil
	default:
		return nil, fmt.Errorf("index: unknown kind %q", kind)
	}
}

// Kinds lists all designs in the order the paper reports them.
func Kinds() []Kind { return []Kind{KindNaive, KindAVL, KindInterval} }

// Build bulk-loads ivs into a fresh index of the given kind.
func Build(kind Kind, ivs []Interval) (TimeIndex, error) {
	idx, err := New(kind)
	if err != nil {
		return nil, err
	}
	if err := idx.BulkLoad(ivs); err != nil {
		return nil, err
	}
	return idx, nil
}
