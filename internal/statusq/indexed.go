package statusq

import (
	"fmt"
	"math"
	"sort"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/swlin"
)

// Indexed answers ad-hoc Status Queries for one avail through the three
// structures of Algorithm 1: the type groups, the SWLIN trie and a time
// index of the chosen design. It is immutable once built and safe for
// concurrent use (index.TimeIndex queries are).
type Indexed struct {
	avail *domain.Avail
	rccs  []domain.RCC
	// typeGroups maps RCCType -> member positions (into rccs), ascending.
	typeGroups [domain.NumRCCTypes][]int
	swlinTree  *swlin.Tree
	timeIdx    index.TimeIndex
}

// NewIndexed indexes the RCCs of avail a with the chosen time-index
// design. Every RCC must belong to a. The index reads rccs without
// copying them, so the caller must not mutate them afterwards.
func NewIndexed(a *domain.Avail, rccs []domain.RCC, kind index.Kind) (*Indexed, error) {
	if err := validateRCCs(a, rccs); err != nil {
		return nil, err
	}
	x := &Indexed{avail: a, rccs: rccs, swlinTree: swlin.NewTree()}
	ivs := make([]index.Interval, len(rccs))
	for pos := range rccs {
		r := &rccs[pos]
		x.typeGroups[r.Type] = append(x.typeGroups[r.Type], pos)
		if err := x.swlinTree.Insert(swlin.Code(r.SWLIN), pos); err != nil {
			return nil, err
		}
		ivs[pos] = index.Interval{Start: int64(r.Created), End: int64(r.Settled), ID: pos}
	}
	idx, err := index.Build(kind, ivs)
	if err != nil {
		return nil, err
	}
	x.timeIdx = idx
	return x, nil
}

// statusSet retrieves the positions in the given temporal class at logical
// time ts (Eqs. 3–5).
func (x *Indexed) statusSet(ts float64, status domain.RCCStatus) ([]int, error) {
	day := int64(x.avail.PhysicalTime(ts))
	switch status {
	case domain.Active:
		return x.timeIdx.ActiveAt(day), nil
	case domain.SettledStatus:
		return x.timeIdx.SettledBy(day), nil
	case domain.Created:
		return x.timeIdx.CreatedBy(day), nil
	default:
		return nil, fmt.Errorf("statusq: unknown status %v", status)
	}
}

// Retrieve runs the retrieval part of Algorithm StatusQ: the temporal class
// at ts intersected with the group-by subtrees. The returned positions index
// into the RCC slice, in ascending order.
//
// Both sides of the intersection are sorted position lists — the group-by
// trees store members in insertion (= position) order and the temporal set
// is sorted once here — so the intersection is a linear merge rather than a
// hash-set probe followed by an output sort.
func (x *Indexed) Retrieve(ts float64, q Query) ([]int, error) {
	timeSet, err := x.statusSet(ts, q.Status)
	if err != nil {
		return nil, err
	}
	if len(timeSet) == 0 {
		return nil, nil
	}
	// The time index returns fresh slices in index-internal order (the AVL
	// traverses by date); sort by position once for the merge.
	sort.Ints(timeSet)
	// Group-By(𝒯, 𝒮𝒯): the candidate subtree of Algorithm 1.
	var candidates []int
	switch {
	case q.Type == nil && q.SWLINPrefix == nil:
		return timeSet, nil
	case q.SWLINPrefix == nil:
		candidates = x.typeGroups[*q.Type]
	default:
		candidates = x.swlinTree.Group(q.SWLINPrefix)
	}
	return x.intersectMerge(candidates, timeSet, q.Type), nil
}

// intersectMerge intersects two ascending position lists by linear merge,
// applying the optional type filter (needed when candidates come from the
// SWLIN trie, which mixes types).
func (x *Indexed) intersectMerge(candidates, timeSet []int, typ *domain.RCCType) []int {
	var out []int
	i, j := 0, 0
	for i < len(candidates) && j < len(timeSet) {
		switch {
		case candidates[i] < timeSet[j]:
			i++
		case candidates[i] > timeSet[j]:
			j++
		default:
			p := candidates[i]
			if typ == nil || x.rccs[p].Type == *typ {
				out = append(out, p)
			}
			i++
			j++
		}
	}
	return out
}

// CreatedCount returns |Created(t*)|, the Pct denominator. Using the
// RCCs visible by t* (rather than the avail's all-time total) keeps the
// features causal: information from RCCs not yet created never leaks into
// earlier logical timestamps.
func (x *Indexed) CreatedCount(ts float64) int {
	day := int64(x.avail.PhysicalTime(ts))
	return x.timeIdx.CountActiveAt(day) + x.timeIdx.CountSettledBy(day)
}

// Eval runs the full Status Query: retrieval plus aggregation. Empty result
// sets evaluate to 0 for every aggregate.
func (x *Indexed) Eval(ts float64, q Query) (float64, error) {
	set, err := x.Retrieve(ts, q)
	if err != nil {
		return 0, err
	}
	return x.aggregate(ts, q, set), nil
}
func (x *Indexed) aggregate(ts float64, q Query, set []int) float64 {
	n := float64(len(set))
	if len(set) == 0 {
		return 0
	}
	switch q.Agg {
	case Count:
		return n
	case Pct:
		created := x.CreatedCount(ts)
		if created == 0 {
			return 0
		}
		return n / float64(created)
	case Rate:
		if ts <= 0 {
			return n
		}
		return n / ts
	}
	var sumA, maxA, minA, sumSqA float64
	var sumD, maxD float64
	minA = math.Inf(1)
	for _, p := range set {
		r := &x.rccs[p]
		sumA += r.Amount
		sumSqA += r.Amount * r.Amount
		if r.Amount > maxA {
			maxA = r.Amount
		}
		if r.Amount < minA {
			minA = r.Amount
		}
		d := float64(r.Duration())
		sumD += d
		if d > maxD {
			maxD = d
		}
	}
	switch q.Agg {
	case SumAmount:
		return sumA
	case AvgAmount:
		return sumA / n
	case MaxAmount:
		return maxA
	case MinAmount:
		return minA
	case StdAmount:
		mean := sumA / n
		v := sumSqA/n - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v)
	case SumDuration:
		return sumD
	case AvgDuration:
		return sumD / n
	case MaxDuration:
		return maxD
	default:
		return 0
	}
}

// CellStatsAt computes per-(type × subsystem) cells for one status class at
// logical time ts in a single pass over the qualifying RCCs.
func (x *Indexed) CellStatsAt(ts float64, status domain.RCCStatus) (map[GroupKey]CellStats, error) {
	set, err := x.statusSet(ts, status)
	if err != nil {
		return nil, err
	}
	cells := make(map[GroupKey]CellStats)
	for _, p := range set {
		r := &x.rccs[p]
		k := GroupKey{Type: r.Type, Subsystem: swlin.Code(r.SWLIN).Subsystem()}
		c := cells[k]
		c.add(r.Amount, float64(r.Duration()))
		cells[k] = c
	}
	return cells, nil
}

// sortByDatePos orders positions by an RCC date then position — the
// canonical accumulation order shared with the event sweep, which applies
// creation (resp. settlement) events in exactly this order. Sorting here is
// what the scratch path pays per timestamp and the sweep does not.
func sortByDatePos(set []int, date func(r *domain.RCC) domain.Day, rccs []domain.RCC) {
	sort.Slice(set, func(i, j int) bool {
		di, dj := date(&rccs[set[i]]), date(&rccs[set[j]])
		if di != dj {
			return di < dj
		}
		return set[i] < set[j]
	})
}

// CellGridsAt fills gs with the dense per-(type × subsystem) cells of all
// three status classes at logical time ts, from scratch. Accumulation
// follows the canonical event order (date, then position), making the
// result bitwise-identical to a CellSweep advanced to the same timestamp.
func (x *Indexed) CellGridsAt(ts float64, gs *GridSet) error {
	gs.Reset()
	created := func(r *domain.RCC) domain.Day { return r.Created }
	settled := func(r *domain.RCC) domain.Day { return r.Settled }
	for st := domain.RCCStatus(0); st < domain.NumRCCStatuses; st++ {
		set, err := x.statusSet(ts, st)
		if err != nil {
			return err
		}
		key := created
		if st == domain.SettledStatus {
			key = settled
		}
		sortByDatePos(set, key, x.rccs)
		g := gs.Grid(st)
		for _, p := range set {
			r := &x.rccs[p]
			cellOf(g, r).add(r.Amount, float64(r.Duration()))
		}
		g.finalizeMargins()
	}
	return nil
}
