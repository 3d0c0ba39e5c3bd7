package statusq

import (
	"fmt"
	"math"
	"sort"

	"domd/internal/domain"
	"domd/internal/swlin"
)

// GroupKey identifies one (RCC type × SWLIN subsystem) cell of the group-by
// lattice maintained incrementally.
type GroupKey struct {
	Type      domain.RCCType
	Subsystem int // SWLIN first digit
}

// GroupStats are the additively-maintainable aggregates of one group at the
// current sweep position. Created counts/dollars are Active + Settled.
type GroupStats struct {
	ActiveCount      int
	SettledCount     int
	ActiveSumAmount  float64
	SettledSumAmount float64
	// SettledSumDuration accumulates created→settled day spans.
	SettledSumDuration float64
}

// CreatedCount is the union cardinality (Eq. 5).
func (g GroupStats) CreatedCount() int { return g.ActiveCount + g.SettledCount }

// StatStructure is the incremental Status Query state of §4.3
// ("StatStructure(t*_xj)"): a forward sweep over creation and settlement
// events that maintains per-group aggregates. Advancing from t*_j to
// t*_{j+1} costs only the events falling inside that window, rather than a
// full re-scan.
//
// The structure only moves forward; Reset rewinds to t* = -inf.
type StatStructure struct {
	avail *domain.Avail
	rccs  []domain.RCC
	// creations/settlements are event orders (positions into rccs) sorted
	// by the respective date.
	creations   []int
	settlements []int
	ci, si      int
	groups      map[GroupKey]*GroupStats
	// current sweep position in physical days (exclusive upper bound
	// semantics match StatusAt: events with date <= pos are applied).
	pos int64
}

// NewStatStructure prepares the event sweep for one avail.
func NewStatStructure(a *domain.Avail, rccs []domain.RCC) (*StatStructure, error) {
	if a == nil {
		return nil, fmt.Errorf("statusq: nil avail")
	}
	if a.PlannedDuration() <= 0 {
		return nil, fmt.Errorf("statusq: avail %d has non-positive planned duration", a.ID)
	}
	s := &StatStructure{avail: a, rccs: rccs, groups: make(map[GroupKey]*GroupStats)}
	for pos := range rccs {
		if rccs[pos].AvailID != a.ID {
			return nil, fmt.Errorf("statusq: rcc %d belongs to avail %d, structure is for %d",
				rccs[pos].ID, rccs[pos].AvailID, a.ID)
		}
		if err := rccs[pos].Validate(); err != nil {
			return nil, err
		}
		s.creations = append(s.creations, pos)
		s.settlements = append(s.settlements, pos)
	}
	sort.SliceStable(s.creations, func(i, j int) bool {
		return rccs[s.creations[i]].Created < rccs[s.creations[j]].Created
	})
	sort.SliceStable(s.settlements, func(i, j int) bool {
		return rccs[s.settlements[i]].Settled < rccs[s.settlements[j]].Settled
	})
	s.Reset()
	return s, nil
}

// Reset rewinds the sweep to before all events.
func (s *StatStructure) Reset() {
	s.ci, s.si = 0, 0
	s.pos = math.MinInt64
	for k := range s.groups {
		delete(s.groups, k)
	}
}

// key computes the group cell of an RCC.
func key(r *domain.RCC) GroupKey {
	return GroupKey{Type: r.Type, Subsystem: swlin.Code(r.SWLIN).Subsystem()}
}

func (s *StatStructure) group(k GroupKey) *GroupStats {
	g := s.groups[k]
	if g == nil {
		g = &GroupStats{}
		s.groups[k] = g
	}
	return g
}

// AdvanceTo moves the sweep to logical time ts (percent of planned
// duration). It returns an error on attempts to move backwards — callers
// wanting a rewind must Reset first.
func (s *StatStructure) AdvanceTo(ts float64) error {
	day := int64(s.avail.PhysicalTime(ts))
	if day < s.pos {
		return fmt.Errorf("statusq: cannot sweep backwards from %d to %d", s.pos, day)
	}
	// Apply creations with Created <= day: the RCC becomes active.
	for s.ci < len(s.creations) {
		r := &s.rccs[s.creations[s.ci]]
		if int64(r.Created) > day {
			break
		}
		g := s.group(key(r))
		g.ActiveCount++
		g.ActiveSumAmount += r.Amount
		s.ci++
	}
	// Apply settlements with Settled <= day: active -> settled.
	for s.si < len(s.settlements) {
		r := &s.rccs[s.settlements[s.si]]
		if int64(r.Settled) > day {
			break
		}
		// Created <= Settled is validated at construction, so every RCC
		// settling here has already been counted active above.
		g := s.group(key(r))
		g.ActiveCount--
		g.ActiveSumAmount -= r.Amount
		g.SettledCount++
		g.SettledSumAmount += r.Amount
		g.SettledSumDuration += float64(r.Duration())
		s.si++
	}
	s.pos = day
	return nil
}

// ApplyRCC folds one freshly ingested RCC into the structure in O(delta):
// its events are spliced into the date-sorted event orders and, when they
// fall inside the already-swept region, folded immediately — in the exact
// position a from-scratch structure advanced to the same sweep position
// would fold them (last, since the new RCC takes the largest position).
// Returns ErrCannotApply, leaving the structure unchanged, when an event
// predates ones already applied; the caller must rebuild.
func (s *StatStructure) ApplyRCC(r domain.RCC) error {
	if r.AvailID != s.avail.ID {
		return fmt.Errorf("statusq: rcc %d belongs to avail %d, structure is for %d", r.ID, r.AvailID, s.avail.ID)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	applyCreate := int64(r.Created) <= s.pos
	applySettle := int64(r.Settled) <= s.pos
	if applyCreate && s.ci > 0 && r.Created < s.rccs[s.creations[s.ci-1]].Created {
		return ErrCannotApply
	}
	if applySettle && s.si > 0 && r.Settled < s.rccs[s.settlements[s.si-1]].Settled {
		return ErrCannotApply
	}
	// A from-scratch sweep folds r's creation before every settlement of its
	// group, but an in-place apply can only fold it after the settlements
	// already applied — a float reordering of ActiveSumAmount. Reject when
	// the group has applied settlements so success stays bitwise-exact.
	if applyCreate {
		if g := s.groups[key(&r)]; g != nil && g.SettledCount > 0 {
			return ErrCannotApply
		}
	}
	p := len(s.rccs)
	s.rccs = append(s.rccs, r)
	s.creations = insertEventSorted(s.creations, p,
		func(pos int) int64 { return int64(s.rccs[pos].Created) }, int64(r.Created))
	s.settlements = insertEventSorted(s.settlements, p,
		func(pos int) int64 { return int64(s.rccs[pos].Settled) }, int64(r.Settled))
	// Fold in the same creation-then-settlement order AdvanceTo uses, so
	// the float accumulators see the identical operation sequence.
	if applyCreate {
		g := s.group(key(&r))
		g.ActiveCount++
		g.ActiveSumAmount += r.Amount
		s.ci++
	}
	if applySettle {
		g := s.group(key(&r))
		g.ActiveCount--
		g.ActiveSumAmount -= r.Amount
		g.SettledCount++
		g.SettledSumAmount += r.Amount
		g.SettledSumDuration += float64(r.Duration())
		s.si++
	}
	return nil
}

// Group returns a copy of the stats for one cell (zero stats if absent).
func (s *StatStructure) Group(k GroupKey) GroupStats {
	if g := s.groups[k]; g != nil {
		return *g
	}
	return GroupStats{}
}

// Totals sums the stats across cells matching the optional type and
// subsystem filters (nil = all). This evaluates the additive Status Query
// aggregates (counts, dollar and duration sums) from the incremental state.
// Cells fold in canonical (type ascending, subsystem ascending) order, not
// map order, so equal group states always yield bitwise-equal float sums.
func (s *StatStructure) Totals(typ *domain.RCCType, subsystem *int) GroupStats {
	var out GroupStats
	for t := 0; t < domain.NumRCCTypes; t++ {
		if typ != nil && domain.RCCType(t) != *typ {
			continue
		}
		for sub := 0; sub < NumSubsystems; sub++ {
			if subsystem != nil && sub != *subsystem {
				continue
			}
			g := s.groups[GroupKey{Type: domain.RCCType(t), Subsystem: sub}]
			if g == nil {
				continue
			}
			out.ActiveCount += g.ActiveCount
			out.SettledCount += g.SettledCount
			out.ActiveSumAmount += g.ActiveSumAmount
			out.SettledSumAmount += g.SettledSumAmount
			out.SettledSumDuration += g.SettledSumDuration
		}
	}
	return out
}
