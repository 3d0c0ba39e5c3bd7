package statusq

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"domd/internal/domain"
)

// CellSweep is the incremental Status Query state of §4.3
// ("StatStructure(t*_xj)"), carried over the full seven-statistic CellStats
// lattice the feature transformation 𝒯 consumes: it maintains a dense GridSet (one CellGrid per status class, with ALL
// margins) while moving forward over the avail's creation and settlement
// events.
//
// Complexity of one AdvanceTo step from t*_j to t*_{j+1} (see the package
// comment in statusq.go for the full argument):
//
//   - Created and Settled classes are append-only under a forward sweep, so
//     all seven sufficient statistics — including min/max, which are
//     monotone under insert-only growth — update in O(e_j) where e_j is the
//     number of creation/settlement events inside the (t*_j, t*_{j+1}]
//     window. Amortized over the whole grid this is O(n) total, not
//     O(n · K).
//   - The Active class is non-monotone (settlements remove members), so its
//     min/max cannot be maintained incrementally. The sweep keeps the live
//     active set in an intrusive linked list ordered by (created, position)
//     and rebuilds the Active cells from it in O(a_j), where a_j is the
//     number of RCCs open at t*_{j+1} — bounded by the peak concurrent RCC
//     count, which is far below n on real workloads. Rebuilding all seven
//     statistics (rather than only min/max) from the list costs the same
//     O(a_j) and keeps every cell a pure fold over an ordered observation
//     sequence, which is what makes the sweep bitwise-reproducible against
//     the scratch path Indexed.CellGridsAt.
//   - Margin finalization is O(1): the grid has a fixed 4 × 11 shape.
//
// The structure only moves forward; Reset rewinds to t* = -inf. A CellSweep
// is not safe for concurrent use — the parallel tensor build gives each
// worker its own.
type CellSweep struct {
	avail *domain.Avail
	rccs  []domain.RCC
	// creations/settlements are positions into rccs sorted by the
	// respective (date, position) key — the canonical event order.
	creations   []int
	settlements []int
	ci, si      int
	// pos is the sweep position in physical days; events with date <= pos
	// have been applied (matching domain.RCC.StatusAt semantics).
	pos int64

	// Intrusive doubly-linked list over the live active set, threaded
	// through next/prev by RCC position and ordered by (created, position):
	// creations append at the tail (events arrive in that order),
	// settlements unlink in O(1). Index len(rccs) is the sentinel.
	next, prev []int32

	grids GridSet
}

// NewCellSweep prepares the full-statistics event sweep for one avail. The
// sweep reads rccs without copying them, so the caller must not mutate
// them in place afterwards.
func NewCellSweep(a *domain.Avail, rccs []domain.RCC) (*CellSweep, error) {
	if err := validateRCCs(a, rccs); err != nil {
		return nil, err
	}
	creations, settlements := eventOrders(rccs)
	s := new(CellSweep)
	s.init(a, rccs, creations, settlements)
	return s, nil
}

// sweepPool recycles the sweeps Engine.Sweep hands out and Release
// returns: a sweep's grids and link arrays are its bulk, and Reset
// clears every part of them a sweep reads before writing.
var sweepPool sync.Pool

// init points s at rccs and their event orders and rewinds it. The link
// arrays are reused when long enough: link writes an entry before unlink
// or the list walk reads it, so their old contents never show.
func (s *CellSweep) init(a *domain.Avail, rccs []domain.RCC, creations, settlements []int) {
	s.avail, s.rccs, s.creations, s.settlements = a, rccs, creations, settlements
	if n := len(rccs) + 1; cap(s.next) >= n {
		s.next, s.prev = s.next[:n], s.prev[:n]
	} else {
		s.next, s.prev = make([]int32, n), make([]int32, n)
	}
	s.Reset()
}

// Release hands a sweep taken from Engine.Sweep back for reuse by a later
// Sweep. It drops the sweep's references to the engine's avail, RCCs and
// event orders; the sweep must not be used afterwards.
func (s *CellSweep) Release() {
	s.avail, s.rccs, s.creations, s.settlements = nil, nil, nil, nil
	sweepPool.Put(s)
}

// eventOrders returns the canonical creation and settlement event orders
// of rccs: positions sorted by (date, position). Engine and CellSweep both
// build their orders here, so an engine-held order is exactly the one a
// fresh sweep would sort.
func eventOrders(rccs []domain.RCC) (creations, settlements []int) {
	creations = make([]int, len(rccs))
	for pos := range creations {
		creations[pos] = pos
	}
	settlements = slices.Clone(creations)
	slices.SortFunc(creations, func(a, b int) int {
		return cmp.Or(cmp.Compare(rccs[a].Created, rccs[b].Created), cmp.Compare(a, b))
	})
	slices.SortFunc(settlements, func(a, b int) int {
		return cmp.Or(cmp.Compare(rccs[a].Settled, rccs[b].Settled), cmp.Compare(a, b))
	})
	return creations, settlements
}

// Avail returns the sweep's avail.
func (s *CellSweep) Avail() *domain.Avail { return s.avail }

// NumRCCs reports the swept RCC count.
func (s *CellSweep) NumRCCs() int { return len(s.rccs) }

// Reset rewinds the sweep to before all events. No allocation: the
// preallocated state is reused, so a sweep can revisit the grid many times
// (benchmarks, repeated tensor builds).
func (s *CellSweep) Reset() {
	s.ci, s.si = 0, 0
	s.pos = math.MinInt64
	sentinel := int32(len(s.rccs))
	s.next[sentinel] = sentinel
	s.prev[sentinel] = sentinel
	s.grids.Reset()
}

// link appends position p at the tail of the active list.
func (s *CellSweep) link(p int) {
	sentinel := int32(len(s.rccs))
	tail := s.prev[sentinel]
	s.next[tail] = int32(p)
	s.prev[p] = tail
	s.next[p] = sentinel
	s.prev[sentinel] = int32(p)
}

// unlink removes position p from the active list.
func (s *CellSweep) unlink(p int) {
	s.next[s.prev[p]] = s.next[p]
	s.prev[s.next[p]] = s.prev[p]
}

// AdvanceTo moves the sweep to logical time ts (percent of planned
// duration) and refreshes the grids. Only the creation/settlement events
// inside the new window are applied to the append-only classes; the Active
// class is rebuilt from the live list. Moving backwards is an error —
// callers wanting a rewind must Reset first.
func (s *CellSweep) AdvanceTo(ts float64) error {
	day := int64(s.avail.PhysicalTime(ts))
	if day < s.pos {
		return fmt.Errorf("statusq: cannot sweep backwards from %d to %d", s.pos, day)
	}
	createdGrid := s.grids.Grid(domain.Created)
	settledGrid := s.grids.Grid(domain.SettledStatus)
	// Creations with Created <= day: the RCC enters Created and the live
	// active list.
	for s.ci < len(s.creations) {
		p := s.creations[s.ci]
		r := &s.rccs[p]
		if int64(r.Created) > day {
			break
		}
		cellOf(createdGrid, r).add(r.Amount, float64(r.Duration()))
		s.link(p)
		s.ci++
	}
	// Settlements with Settled <= day: active -> settled. Created <= Settled
	// is validated at construction, so every RCC settling here is already
	// linked above.
	for s.si < len(s.settlements) {
		p := s.settlements[s.si]
		r := &s.rccs[p]
		if int64(r.Settled) > day {
			break
		}
		cellOf(settledGrid, r).add(r.Amount, float64(r.Duration()))
		s.unlink(p)
		s.si++
	}
	createdGrid.finalizeMargins()
	settledGrid.finalizeMargins()
	// Rebuild the non-monotone Active class from the live list, which walks
	// in (created, position) order — the same order the scratch path sorts
	// into, so the fold is bitwise-identical.
	activeGrid := s.grids.Grid(domain.Active)
	activeGrid.clearConcrete()
	sentinel := int32(len(s.rccs))
	for p := s.next[sentinel]; p != sentinel; p = s.next[p] {
		r := &s.rccs[p]
		cellOf(activeGrid, r).add(r.Amount, float64(r.Duration()))
	}
	activeGrid.finalizeMargins()
	s.pos = day
	return nil
}

// insertEventSorted inserts position p into the (date, position)-sorted
// event order at its upper bound by date. p is always the largest position,
// so the upper bound by date alone is the correct (date, position) slot.
func insertEventSorted(events []int, p int, date func(pos int) int64, d int64) []int {
	k := sort.Search(len(events), func(i int) bool { return date(events[i]) > d })
	events = append(events, 0)
	copy(events[k+1:], events[k:])
	events[k] = p
	return events
}

// Grids exposes the current grid state (valid until the next AdvanceTo or
// Reset; do not mutate).
func (s *CellSweep) Grids() *GridSet { return &s.grids }

// CreatedCount is |Created(t*)| at the current sweep position.
func (s *CellSweep) CreatedCount() int { return s.grids.CreatedCount() }
