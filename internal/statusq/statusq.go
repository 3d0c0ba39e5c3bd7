// Package statusq implements the Status Query abstraction of paper §3.1 and
// its efficient processing (§4, Algorithm StatusQ): given an avail, a logical
// timestamp t*, group-by predicates over RCC type and SWLIN hierarchy, and a
// status class (active / settled / created / new), retrieve the qualifying
// RCCs and compute aggregates over their attributes.
//
// Two engines split the work by what reads it. Indexed answers ad-hoc
// Status Queries (§4.1–4.2) and composes three structures, as Algorithm 1
// does:
//
//   - a type group-by tree (the RCC-Type-Tree 𝒯: one bucket per RCC type),
//   - a SWLIN digit trie (𝒮𝒯, from package swlin),
//   - a pluggable logical-time index ℛ (package index) over the RCC
//     (created, settled) intervals.
//
// It is immutable once built. The §5 experiments use it as the
// from-scratch baseline, and tests use it as the reference the
// incremental path is held to.
//
// Incremental computation (§4.3) is one structure, CellSweep: advancing
// from one logical timestamp to the next touches only the
// creation/settlement events inside the new window instead of re-running
// the query from scratch, and it maintains the full seven-statistic
// CellStats lattice feeding the ~1500-feature transformation, on a dense
// CellGrid with ALL margins. Training and serving both read it. The
// serving Engine holds only what the sweep reads, the validated RCCs and
// the sweep's two canonical event orders, and keeps the orders sorted
// across ApplyRCC, so Engine.Sweep hands serving a fresh CellSweep with
// no validation and no sort.
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
// The serving-side types (Catalog, DurableCatalog, ShardedCatalog) are
// instrumented through internal/obs: engine builds, in-place folds,
// stale serves from a failed shard, and ingestion acks/duplicates/
// failures/restores are exported as domd_engine_* and domd_ingest_*
// metrics on GET /metrics (catalog: docs/OPERATIONS.md). Durations use
// obs stopwatches because the walltime lint invariant bans time.Now
// here — logical time t* remains the only clock in query results.
package statusq

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"domd/internal/domain"
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

// Engine is one avail's serving state: its validated RCCs and the two
// canonical event orders a CellSweep walks, kept sorted across ApplyRCC so
// Sweep hands serving a fresh sweep with no validation and no sort. Every
// served answer reads the engine through Sweep; ad-hoc Status Queries run
// on an Indexed built over RCCs.
//
// All methods are safe for concurrent use: ApplyRCC takes the write side
// of the lock the readers share, so a catalog can fold freshly ingested
// RCCs into a live engine while sweeps are taken.
type Engine struct {
	avail *domain.Avail
	mu    sync.RWMutex // guards rccs, creations and settlements
	rccs  []domain.RCC
	// creations/settlements are the canonical (date, position) event
	// orders a CellSweep walks (see eventOrders).
	creations, settlements []int
	// ordersShared records that a sweep taken since the last ApplyRCC
	// reads the current order slices. ApplyRCC then inserts into fresh
	// copies instead of shifting the shared ones in place.
	ordersShared atomic.Bool
}

// NewEngine validates the RCCs of avail a and sorts their event orders.
// Every RCC must belong to a. The engine reads rccs without copying them,
// so the caller must not mutate them in place afterwards.
func NewEngine(a *domain.Avail, rccs []domain.RCC) (*Engine, error) {
	if err := validateRCCs(a, rccs); err != nil {
		return nil, err
	}
	creations, settlements := eventOrders(rccs)
	return &Engine{avail: a, rccs: rccs, creations: creations, settlements: settlements}, nil
}

// validateRCCs checks what every structure over one avail's RCCs needs:
// a non-nil avail with a positive planned duration, and valid RCCs that
// all belong to it.
func validateRCCs(a *domain.Avail, rccs []domain.RCC) error {
	if a == nil {
		return fmt.Errorf("statusq: nil avail")
	}
	if a.PlannedDuration() <= 0 {
		return fmt.Errorf("statusq: avail %d has non-positive planned duration", a.ID)
	}
	for pos := range rccs {
		if err := validateRCC(a, &rccs[pos]); err != nil {
			return err
		}
	}
	return nil
}

// validateRCC checks that r is valid and belongs to avail a.
func validateRCC(a *domain.Avail, r *domain.RCC) error {
	if r.AvailID != a.ID {
		return fmt.Errorf("statusq: rcc %d belongs to avail %d, not %d", r.ID, r.AvailID, a.ID)
	}
	return r.Validate()
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

// NumRCCs reports the engine's RCC count.
func (e *Engine) NumRCCs() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.rccs)
}

// RCCs returns the engine's current RCCs in position order. The slice is
// a snapshot: a later ApplyRCC appends past its end and never writes to
// it. Do not mutate it.
func (e *Engine) RCCs() []domain.RCC {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := len(e.rccs)
	return e.rccs[:n:n]
}

// ApplyRCC folds one freshly ingested RCC into the engine in O(n): it
// validates r, appends it (r takes the largest position) and inserts it
// into each of the two event orders Sweep hands out, an O(n) shift, or an
// O(n) copy when a sweep still reads the old orders.
//
// The result is bitwise-identical to NewEngine over the extended RCC
// slice, so every sweep it hands out is too. On error the engine is
// unchanged.
func (e *Engine) ApplyRCC(r domain.RCC) error {
	if err := validateRCC(e.avail, &r); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	pos := len(e.rccs)
	e.rccs = append(e.rccs, r)
	if e.ordersShared.Swap(false) {
		// Clipping the capacity makes insertEventSorted's append move the
		// orders to a fresh array, leaving the sweeps' copies untouched.
		e.creations = slices.Clip(e.creations)
		e.settlements = slices.Clip(e.settlements)
	}
	rccs := e.rccs
	e.creations = insertEventSorted(e.creations, pos,
		func(pos int) int64 { return int64(rccs[pos].Created) }, int64(r.Created))
	e.settlements = insertEventSorted(e.settlements, pos,
		func(pos int) int64 { return int64(rccs[pos].Settled) }, int64(r.Settled))
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
	n := len(e.rccs)
	e.ordersShared.Store(true)
	s, _ := sweepPool.Get().(*CellSweep)
	if s == nil {
		s = new(CellSweep)
	}
	s.init(e.avail, e.rccs[:n:n], e.creations[:n:n], e.settlements[:n:n])
	return s
}
