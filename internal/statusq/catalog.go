package statusq

import (
	"errors"
	"fmt"
	"sort"

	"domd/internal/domain"
)

// ErrUnknownAvail is the sentinel wrapped by every catalog operation that
// references an avail id absent from the table (referential integrity, as
// the NMD enforces). Servers map it to 404; test with errors.Is.
var ErrUnknownAvail = errors.New("unknown avail")

// Catalog holds one Status Query engine per avail of a whole avails table,
// the "A" of Algorithm 1, so fleet-wide services answer repeated DoMD
// queries without re-validating or re-sorting RCC history per request.
//
// Every engine is built by NewCatalog and lives as long as the catalog:
// an ingested RCC is folded into its avail's engine in place
// (Engine.ApplyRCC, the paper's §4.3 incremental computation), never
// rebuilt. Neither the avail table nor the avail → engine map changes
// after construction, so lookups take no catalog lock and every method is
// safe for concurrent use; each engine guards its own RCCs. An engine
// lookup that starts after an ingest returns sees the new RCC.
type Catalog struct {
	avails  map[int]*domain.Avail // immutable after NewCatalog
	engines map[int]*Engine       // one per avail; immutable after NewCatalog
}

// NewCatalog validates the avails table and the RCCs, then builds one
// engine per avail. An invalid avail or RCC, a duplicate avail id, or an
// RCC referencing an unknown avail (referential integrity, as the NMD
// enforces) fails the whole table, naming the offending record.
func NewCatalog(avails []domain.Avail, rccs []domain.RCC) (*Catalog, error) {
	c, byAvail, err := indexTables(avails, rccs)
	if err != nil {
		return nil, err
	}
	if err := c.buildEngines(byAvail); err != nil {
		return nil, err
	}
	return c, nil
}

// indexTables validates the avails and groups the RCCs by avail, in table
// order. The returned catalog has no engines yet; buildEngines adds them
// once every RCC (base and, on a durable open, restored) is grouped.
func indexTables(avails []domain.Avail, rccs []domain.RCC) (*Catalog, map[int][]domain.RCC, error) {
	c := &Catalog{
		avails:  make(map[int]*domain.Avail, len(avails)),
		engines: make(map[int]*Engine, len(avails)),
	}
	for i := range avails {
		a := &avails[i]
		if err := a.Validate(); err != nil {
			return nil, nil, err
		}
		if _, dup := c.avails[a.ID]; dup {
			return nil, nil, fmt.Errorf("statusq: duplicate avail id %d", a.ID)
		}
		c.avails[a.ID] = a
	}
	// Size each avail's slice exactly, so the grouping allocates once per
	// avail; restored RCCs append past it.
	counts := make(map[int]int, len(avails))
	for i := range rccs {
		r := &rccs[i]
		if _, ok := c.avails[r.AvailID]; !ok {
			return nil, nil, fmt.Errorf("statusq: rcc %d references %w %d", r.ID, ErrUnknownAvail, r.AvailID)
		}
		counts[r.AvailID]++
	}
	byAvail := make(map[int][]domain.RCC, len(counts))
	for _, r := range rccs {
		if byAvail[r.AvailID] == nil {
			byAvail[r.AvailID] = make([]domain.RCC, 0, counts[r.AvailID])
		}
		byAvail[r.AvailID] = append(byAvail[r.AvailID], r)
	}
	return c, byAvail, nil
}

// admit reports why r cannot join the catalog: it is invalid, or its avail
// is unknown. These are the checks addRCC makes through the engine lookup
// and ApplyRCC, for restore, which groups RCCs before the engines exist.
func (c *Catalog) admit(r *domain.RCC) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, ok := c.avails[r.AvailID]; !ok {
		return fmt.Errorf("statusq: rcc %d references %w %d", r.ID, ErrUnknownAvail, r.AvailID)
	}
	return nil
}

// buildEngines builds every avail's engine over its grouped RCCs, which
// the engines then own. Avails go in id order, so a table with several
// bad RCCs always names the same one.
func (c *Catalog) buildEngines(byAvail map[int][]domain.RCC) error {
	for _, id := range c.AvailIDs() {
		eng, err := NewEngine(c.avails[id], byAvail[id])
		if err != nil {
			return fmt.Errorf("statusq: avail %d: %w", id, err)
		}
		c.engines[id] = eng
		mEngineBuilds.Inc()
	}
	return nil
}

// Avail returns the avail record by id.
func (c *Catalog) Avail(id int) (*domain.Avail, bool) {
	a, ok := c.avails[id]
	return a, ok
}

// AvailIDs lists all avail ids in ascending order.
func (c *Catalog) AvailIDs() []int {
	ids := make([]int, 0, len(c.avails))
	for id := range c.avails {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// OngoingIDs lists ids of avails still executing, ascending. It derives
// from AvailIDs rather than sweeping the map directly, so the order is
// deterministic by construction (no map-iteration randomness to undo).
func (c *Catalog) OngoingIDs() []int {
	ids := []int{}
	for _, id := range c.AvailIDs() {
		if c.avails[id].Status == domain.StatusOngoing {
			ids = append(ids, id)
		}
	}
	return ids
}

// EngineAsOf returns the avail's engine and the history revision its
// answers are as-of: the number of RCCs folded in at the lookup. A sweep
// taken later may include RCCs ingested since. A catalog's engines never
// go stale, so stale is always false here; ShardedCatalog forces it for a
// failed shard. An unknown avail wraps ErrUnknownAvail.
func (c *Catalog) EngineAsOf(id int) (eng *Engine, asOf int64, stale bool, err error) {
	eng, ok := c.engines[id]
	if !ok {
		return nil, 0, false, fmt.Errorf("statusq: %w %d", ErrUnknownAvail, id)
	}
	return eng, int64(eng.NumRCCs()), false, nil
}

// addRCC folds a newly created RCC (e.g. an approved contract change) into
// its avail's engine in place (Engine.ApplyRCC). The engine's answers are
// bitwise-identical to a from-scratch build over the extended history, and
// on error it is unchanged. DurableCatalog.Ingest is its one caller, so
// every served write is logged first.
func (c *Catalog) addRCC(r domain.RCC) error {
	eng, ok := c.engines[r.AvailID]
	if !ok {
		return fmt.Errorf("statusq: rcc %d references %w %d", r.ID, ErrUnknownAvail, r.AvailID)
	}
	if err := eng.ApplyRCC(r); err != nil {
		return err
	}
	mDeltaApplies.Inc()
	return nil
}
