// Package statusq implements the Status Query abstraction of paper §3.1 and
// its efficient processing (§4, Algorithm StatusQ): given an avail, a logical
// timestamp t*, group-by predicates over RCC type and SWLIN hierarchy, and a
// status class (active / settled / created / new), retrieve the qualifying
// RCCs and compute aggregates over their attributes.
//
// The engine composes three structures, as Algorithm 1 does:
//
//   - a type group-by tree (the RCC-Type-Tree 𝒯: one bucket per RCC type),
//   - a SWLIN digit trie (𝒮𝒯, from package swlin),
//   - a pluggable logical-time index ℛ (package index) over the RCC
//     (created, settled) intervals.
//
// Incremental computation (§4.3) is one structure, CellSweep: advancing
// from one logical timestamp to the next touches only the
// creation/settlement events inside the new window instead of re-running
// the query from scratch, and it maintains the full seven-statistic
// CellStats lattice feeding the ~1500-feature transformation, on a dense
// CellGrid with ALL margins. Training and serving both read it. An Engine
// keeps the sweep's two canonical event orders sorted across
// ApplyRCC, so Engine.Sweep hands serving a fresh CellSweep with no
// validation and no sort.
//
// Complexity of the CellSweep over a K-point timestamp grid on n RCCs, with
// e_j events and a_j live active RCCs in window j:
//
//	Σ_j O(e_j + a_j + 1)  =  O(n + Σ_j a_j + K)
//
// versus O(K · n log n) for K independent from-scratch evaluations. The
// Created and Settled classes are append-only under a forward sweep — their
// min/max statistics are monotone under insert-only growth — so they cost
// O(e_j) per step. The Active class is non-monotone (settlements remove
// members), so its min/max must be recomputed from the live active set; the
// sweep keeps that set in an intrusive linked list and rebuilds the Active
// cells in O(a_j), with a_j bounded by the peak number of concurrently open
// RCCs. Margins are O(1) per step (fixed 4 × 11 grid shape).
//
// # Observability
//
// The serving-side types (Catalog, DurableCatalog) are instrumented
// through internal/obs: engine build counts/latency/failures, cache
// hits, degraded-mode stale serves, and ingestion acks/duplicates/
// failures/restores are exported as domd_engine_* and domd_ingest_*
// metrics on GET /metrics (catalog: docs/OPERATIONS.md). Durations use
// obs stopwatches because the walltime lint invariant bans time.Now
// here — logical time t* remains the only clock in query results.
package statusq

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/swlin"
)

// Aggregate names an aggregation function applied to the retrieved RCC set.
type Aggregate int

// Aggregates over the qualifying RCC set. Duration aggregates consider the
// full created→settled interval (known at settlement); Pct is the group's
// share of all RCCs of the avail; Rate is count per percent of logical time.
const (
	Count Aggregate = iota
	SumAmount
	AvgAmount
	MaxAmount
	MinAmount
	StdAmount
	SumDuration
	AvgDuration
	MaxDuration
	Pct
	Rate

	// NumAggregates counts the aggregate kinds above.
	NumAggregates = 11
)

var aggNames = [...]string{
	"COUNT", "SUM_SETTLED_AMT", "AVG_SETTLED_AMT", "MAX_SETTLED_AMT",
	"MIN_SETTLED_AMT", "STD_SETTLED_AMT", "SUM_DUR", "AVG_DUR", "MAX_DUR",
	"PCT", "RATE",
}

// String implements fmt.Stringer.
func (a Aggregate) String() string {
	if a < 0 || int(a) >= len(aggNames) {
		return fmt.Sprintf("Aggregate(%d)", int(a))
	}
	return aggNames[a]
}

// Query is one Status Query (Fig. 3): group-by predicates plus a status
// class and an aggregate.
type Query struct {
	// Type restricts to one RCC type; nil means all types.
	Type *domain.RCCType
	// SWLINPrefix restricts to a subtree of the SWLIN hierarchy (leading
	// digits); nil means the whole ship.
	SWLINPrefix []int
	// Status selects the temporal class at t*.
	Status domain.RCCStatus
	// Agg is the aggregation applied to the qualifying set.
	Agg Aggregate
}

// Engine answers Status Queries for one avail.
//
// Queries are safe for concurrent use; ApplyRCC takes the write side of
// the same lock, so a catalog can fold freshly ingested RCCs into a live
// engine while queries are in flight.
type Engine struct {
	avail *domain.Avail
	mu    sync.RWMutex // guards view
	view  engineView
}

// engineView is the engine's indexed state: the RCC slice plus the three
// structures of Algorithm 1. Its methods never lock — Engine's exported
// entry points take e.mu once and delegate, so helper calls never nest
// read locks.
type engineView struct {
	avail *domain.Avail
	rccs  []domain.RCC
	// typeGroups maps RCCType -> member positions (into rccs).
	typeGroups [domain.NumRCCTypes][]int
	swlinTree  *swlin.Tree
	timeIdx    index.TimeIndex
	// creations/settlements are the canonical (date, position) event
	// orders a CellSweep walks (see eventOrders), kept sorted across
	// ApplyRCC so Sweep hands them out without re-sorting.
	creations, settlements []int
	// ordersShared records that a sweep taken since the last ApplyRCC
	// reads the current order slices. ApplyRCC then inserts into fresh
	// copies instead of shifting the shared ones in place.
	ordersShared atomic.Bool
}

// NewEngine indexes the RCCs of avail a with the chosen time-index design.
// Every RCC must belong to a.
func NewEngine(a *domain.Avail, rccs []domain.RCC, kind index.Kind) (*Engine, error) {
	if a == nil {
		return nil, fmt.Errorf("statusq: nil avail")
	}
	if a.PlannedDuration() <= 0 {
		return nil, fmt.Errorf("statusq: avail %d has non-positive planned duration", a.ID)
	}
	e := &Engine{avail: a, view: engineView{avail: a, rccs: rccs, swlinTree: swlin.NewTree()}}
	idx, err := index.New(kind)
	if err != nil {
		return nil, err
	}
	v := &e.view
	v.timeIdx = idx
	for pos := range rccs {
		r := &rccs[pos]
		if r.AvailID != a.ID {
			return nil, fmt.Errorf("statusq: rcc %d belongs to avail %d, engine is for %d", r.ID, r.AvailID, a.ID)
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
		v.typeGroups[r.Type] = append(v.typeGroups[r.Type], pos)
		if err := v.swlinTree.Insert(swlin.Code(r.SWLIN), pos); err != nil {
			return nil, err
		}
		if err := v.timeIdx.Insert(index.Interval{
			Start: int64(r.Created), End: int64(r.Settled), ID: pos,
		}); err != nil {
			return nil, err
		}
	}
	v.creations, v.settlements = eventOrders(rccs)
	return e, nil
}

// Avail returns the engine's avail.
func (e *Engine) Avail() *domain.Avail { return e.avail }

// LogicalTime maps a physical query date to the engine's avail-local
// logical time t* (percent of planned duration; may exceed 100 when the
// avail runs past plan, negative before the actual start). Serving-tier
// feature extraction for live avails — /query trajectories and /predict
// model routing alike — keys off this value.
func (e *Engine) LogicalTime(at domain.Day) (float64, error) {
	return e.avail.LogicalTime(at)
}

// NumRCCs reports the indexed RCC count.
func (e *Engine) NumRCCs() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.view.rccs)
}

// ApplyRCC folds one freshly ingested RCC into the engine's existing
// state in O(delta): an append into the type group and SWLIN trie (both
// store members in position order, and the new RCC takes the largest
// position), an append into the lazy-sorting time index, whose next
// deferred re-sort is an O(n) append-and-merge rather than a full sort,
// and a sorted insert into each of the two event orders Sweep hands out
// (an O(n) shift, or an O(n) copy when a sweep still reads the old ones).
//
// The result is bitwise-identical to rebuilding the engine from scratch
// over the extended RCC slice: every query path folds aggregates in
// ascending-position order, which appending preserves. Safe to call
// concurrently with queries. On error the engine may be partially
// updated and must be discarded by the caller.
func (e *Engine) ApplyRCC(r domain.RCC) error {
	if r.AvailID != e.avail.ID {
		return fmt.Errorf("statusq: rcc %d belongs to avail %d, engine is for %d", r.ID, r.AvailID, e.avail.ID)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	v := &e.view
	pos := len(v.rccs)
	if err := v.swlinTree.Insert(swlin.Code(r.SWLIN), pos); err != nil {
		return err
	}
	if err := v.timeIdx.Insert(index.Interval{
		Start: int64(r.Created), End: int64(r.Settled), ID: pos,
	}); err != nil {
		return err
	}
	v.rccs = append(v.rccs, r)
	v.typeGroups[r.Type] = append(v.typeGroups[r.Type], pos)
	if v.ordersShared.Swap(false) {
		// Clipping the capacity makes insertEventSorted's append move the
		// orders to a fresh array, leaving the sweeps' copies untouched.
		v.creations = slices.Clip(v.creations)
		v.settlements = slices.Clip(v.settlements)
	}
	v.creations = insertEventSorted(v.creations, pos,
		func(pos int) int64 { return int64(v.rccs[pos].Created) }, int64(r.Created))
	v.settlements = insertEventSorted(v.settlements, pos,
		func(pos int) int64 { return int64(v.rccs[pos].Settled) }, int64(r.Settled))
	return nil
}

// Sweep returns a CellSweep over the engine's current RCCs, rewound to
// before all events. It reuses the engine's validated RCCs and sorted
// event orders, so taking a sweep costs no sort, and the sweep itself
// comes from a pool that Release refills, so it allocates only when its
// link arrays are too short. The sweep is a consistent snapshot: a later
// ApplyRCC never writes to anything it reads, so it may be advanced
// without the engine's lock while ingests continue. Like any CellSweep it
// is not safe for concurrent use; each caller takes its own, and may
// Release it when done.
func (e *Engine) Sweep() *CellSweep {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := &e.view
	n := len(v.rccs)
	v.ordersShared.Store(true)
	s, _ := sweepPool.Get().(*CellSweep)
	if s == nil {
		s = new(CellSweep)
	}
	s.init(e.avail, v.rccs[:n:n], v.creations[:n:n], v.settlements[:n:n])
	return s
}

// statusSet retrieves the positions in the given temporal class at logical
// time ts (Eqs. 3–5).
func (v *engineView) statusSet(ts float64, status domain.RCCStatus) ([]int, error) {
	day := int64(v.avail.PhysicalTime(ts))
	switch status {
	case domain.Active:
		return v.timeIdx.ActiveAt(day), nil
	case domain.SettledStatus:
		return v.timeIdx.SettledBy(day), nil
	case domain.Created:
		return v.timeIdx.CreatedBy(day), nil
	default:
		return nil, fmt.Errorf("statusq: unknown status %v", status)
	}
}

// Retrieve runs the retrieval part of Algorithm StatusQ: the temporal class
// at ts intersected with the group-by subtrees. The returned positions index
// into the engine's RCC slice, in ascending order.
//
// Both sides of the intersection are sorted position lists — the group-by
// trees store members in insertion (= position) order and the temporal set
// is sorted once here — so the intersection is a linear merge rather than a
// hash-set probe followed by an output sort.
func (e *Engine) Retrieve(ts float64, q Query) ([]int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.view.retrieve(ts, q)
}

// retrieve is Retrieve without the lock; callers hold e.mu (either side).
func (v *engineView) retrieve(ts float64, q Query) ([]int, error) {
	timeSet, err := v.statusSet(ts, q.Status)
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
		candidates = v.typeGroups[*q.Type]
	default:
		candidates = v.swlinTree.Group(q.SWLINPrefix)
	}
	return v.intersectMerge(candidates, timeSet, q.Type), nil
}

// intersectMerge intersects two ascending position lists by linear merge,
// applying the optional type filter (needed when candidates come from the
// SWLIN trie, which mixes types).
func (v *engineView) intersectMerge(candidates, timeSet []int, typ *domain.RCCType) []int {
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
			if typ == nil || v.rccs[p].Type == *typ {
				out = append(out, p)
			}
			i++
			j++
		}
	}
	return out
}

// intersectMap is the superseded hash-set intersection (membership map plus
// output sort). It is retained as the reference implementation the merge
// path is differentially tested against.
func (v *engineView) intersectMap(candidates, timeSet []int, typ *domain.RCCType) []int {
	member := make(map[int]bool, len(timeSet))
	for _, p := range timeSet {
		member[p] = true
	}
	var out []int
	for _, p := range candidates {
		if !member[p] {
			continue
		}
		if typ != nil && v.rccs[p].Type != *typ {
			continue
		}
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// CreatedCount returns |Created(t*)|, the Pct denominator. Using the
// RCCs visible by t* (rather than the avail's all-time total) keeps the
// features causal: information from RCCs not yet created never leaks into
// earlier logical timestamps.
func (e *Engine) CreatedCount(ts float64) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.view.createdCount(ts)
}

// createdCount is CreatedCount without the lock; callers hold e.mu.
func (v *engineView) createdCount(ts float64) int {
	day := int64(v.avail.PhysicalTime(ts))
	return v.timeIdx.CountActiveAt(day) + v.timeIdx.CountSettledBy(day)
}

// Eval runs the full Status Query: retrieval plus aggregation. Empty result
// sets evaluate to 0 for every aggregate.
func (e *Engine) Eval(ts float64, q Query) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	set, err := e.view.retrieve(ts, q)
	if err != nil {
		return 0, err
	}
	return e.view.aggregate(ts, q, set), nil
}

func (v *engineView) aggregate(ts float64, q Query, set []int) float64 {
	n := float64(len(set))
	if len(set) == 0 {
		return 0
	}
	switch q.Agg {
	case Count:
		return n
	case Pct:
		created := v.createdCount(ts)
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
		r := &v.rccs[p]
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
