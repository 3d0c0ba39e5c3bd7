package statusq

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"domd/internal/domain"
	"domd/internal/faultinject"
	"domd/internal/index"
	"domd/internal/obs"
)

// ErrUnknownAvail is the sentinel wrapped by every catalog operation that
// references an avail id absent from the table (referential integrity, as
// the NMD enforces). Servers map it to 404; test with errors.Is.
var ErrUnknownAvail = errors.New("unknown avail")

// FailEngineBuild is the faultinject site fired at the top of every
// engine construction; arming it makes builds fail without touching the
// RCC history, which is how the chaos suite drives degraded-mode serving.
const FailEngineBuild = "statusq.engine.build"

// FailDeltaApply is the faultinject site fired just before an ingested RCC
// would be delta-applied into a live cached engine. Arming it with an error
// forces the fallback path (invalidate + rebuild on next query), which is
// how tests pin the pre-incremental behaviour; arming it with a panic
// models a crash between the durable log append and the in-memory apply.
const FailDeltaApply = "statusq.engine.deltaapply"

// Catalog manages Status Query engines for a whole avails table — the "A"
// of Algorithm 1. It owns one Engine per avail (built lazily or eagerly) so
// fleet-wide services answer repeated DoMD queries without re-indexing RCC
// history on every request.
//
// Concurrency contract: every method is safe for concurrent use. The avail
// table is immutable after construction, so lookups (Avail, AvailIDs,
// OngoingIDs) are lock-free. RCC histories and the engine cache are
// guarded by an RWMutex; engine construction is single-flight per avail, so
// N concurrent first queries build one engine, not N. AddRCC appends to the
// history and, when the avail has a live built engine, folds the new RCC
// into it in O(delta) (Engine.ApplyRCC) instead of invalidating it; only
// when no engine is cached, a build is in flight or failed, or the fold
// is refused or faulted does it fall back to invalidation and a full
// rebuild on the next query. Queries racing an AddRCC may still be answered
// from the pre-append snapshot, but any Engine call that starts after
// AddRCC returns observes the new RCC.
//
// Degraded mode: the catalog remembers the last successfully built engine
// per avail. When a rebuild fails (bad history, injected fault), EngineAsOf
// keeps answering from that engine, flagged stale, instead of erroring —
// and the failed slot is dropped so the next call retries the build.
type Catalog struct {
	kind   index.Kind
	avails map[int]*domain.Avail // immutable after NewCatalog

	mu       sync.RWMutex // guards rccs, engines, and lastGood
	rccs     map[int][]domain.RCC
	engines  map[int]*engineSlot
	lastGood map[int]*engineSlot

	builds         atomic.Int64
	deltaApplies   atomic.Int64
	deltaFallbacks atomic.Int64
}

// engineSlot is the single-flight construction cell for one avail's engine.
// The slot snapshots the RCC history at reservation time; sync.Once
// guarantees exactly one NewEngine call per slot no matter how many
// goroutines race on the first query. A delta-applying AddRCC advances the
// slot's rev in place; a falling-back AddRCC replaces the slot wholesale,
// so a stale slot keeps serving its consistent snapshot until dropped.
type engineSlot struct {
	once  sync.Once
	avail *domain.Avail
	rccs  []domain.RCC
	// rev is the RCC-history length folded into the slot's engine — the
	// revision its answers are as-of. It starts at the snapshot length and
	// advances by one per successful delta apply.
	rev atomic.Int64
	// done flips once the single-flight build has finished (either way),
	// making eng/err safe to read without entering the build.
	done atomic.Bool
	eng  *Engine
	err  error
}

func (s *engineSlot) build(c *Catalog) {
	s.once.Do(func() {
		c.builds.Add(1)
		mEngineBuilds.Inc()
		sw := obs.StartTimer()
		defer s.done.Store(true)
		if err := faultinject.Fire(FailEngineBuild); err != nil {
			s.err = fmt.Errorf("statusq: build engine for avail %d: %w", s.avail.ID, err)
			mEngineBuildFailures.Inc()
			return
		}
		s.eng, s.err = NewEngine(s.avail, s.rccs, c.kind)
		mEngineBuildSeconds.ObserveSince(sw)
		if s.err != nil {
			mEngineBuildFailures.Inc()
		}
	})
}

// NewCatalog indexes the avails table. RCCs referencing unknown avails are
// rejected (referential integrity, as the NMD enforces).
func NewCatalog(avails []domain.Avail, rccs []domain.RCC, kind index.Kind) (*Catalog, error) {
	if _, err := index.New(kind); err != nil {
		return nil, err
	}
	c := &Catalog{
		kind:     kind,
		avails:   make(map[int]*domain.Avail, len(avails)),
		rccs:     make(map[int][]domain.RCC),
		engines:  make(map[int]*engineSlot),
		lastGood: make(map[int]*engineSlot),
	}
	for i := range avails {
		a := &avails[i]
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if _, dup := c.avails[a.ID]; dup {
			return nil, fmt.Errorf("statusq: duplicate avail id %d", a.ID)
		}
		c.avails[a.ID] = a
	}
	for _, r := range rccs {
		if _, ok := c.avails[r.AvailID]; !ok {
			return nil, fmt.Errorf("statusq: rcc %d references %w %d", r.ID, ErrUnknownAvail, r.AvailID)
		}
		c.rccs[r.AvailID] = append(c.rccs[r.AvailID], r)
	}
	return c, nil
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

// RCCs returns the avail's RCC history (shared slice; do not mutate).
func (c *Catalog) RCCs(id int) []domain.RCC {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.rccs[id]
}

// slotFor returns the avail's engine slot, building it single-flight on
// first use. After the build it maintains the degraded-mode bookkeeping:
// a successful slot becomes the avail's last-good engine; a failed slot
// is dropped from the cache so the next call retries instead of pinning
// the failure until the next AddRCC.
func (c *Catalog) slotFor(id int) (*engineSlot, error) {
	c.mu.RLock()
	slot := c.engines[id]
	c.mu.RUnlock()
	if slot != nil {
		mEngineCacheHits.Inc()
	}
	if slot == nil {
		a, ok := c.avails[id]
		if !ok {
			return nil, fmt.Errorf("statusq: %w %d", ErrUnknownAvail, id)
		}
		c.mu.Lock()
		slot = c.engines[id]
		if slot == nil {
			// Snapshot the history: AddRCC only ever appends past the
			// snapshot's length (or reallocates), so the engine's view
			// stays consistent without holding the lock during the build.
			slot = &engineSlot{avail: a, rccs: c.rccs[id]}
			slot.rev.Store(int64(len(c.rccs[id])))
			c.engines[id] = slot
		}
		c.mu.Unlock()
	}
	slot.build(c)
	c.mu.RLock()
	settled := (slot.err == nil && c.lastGood[id] == slot) ||
		(slot.err != nil && c.engines[id] != slot)
	c.mu.RUnlock()
	if !settled {
		c.mu.Lock()
		if slot.err == nil {
			c.lastGood[id] = slot
		} else if c.engines[id] == slot {
			delete(c.engines, id)
		}
		c.mu.Unlock()
	}
	return slot, nil
}

// Engine returns (building on first use) the avail's Status Query engine.
// Construction is single-flight: concurrent callers for the same avail
// share one build, and the losers block until it finishes. A build
// failure is returned as-is; degraded serving paths that prefer a stale
// answer over an error use EngineAsOf.
func (c *Catalog) Engine(id int) (*Engine, error) {
	slot, err := c.slotFor(id)
	if err != nil {
		return nil, err
	}
	return slot.eng, slot.err
}

// EngineAsOf is the degraded-mode variant of Engine: it returns the
// avail's current engine plus the history revision (the number of RCCs
// folded in) the engine's answers are as-of. When the current build
// fails but an earlier build succeeded, it falls back to that last good
// engine with stale=true instead of returning the error; the failed
// build is retried on the next call. stale is also true when the engine
// predates RCCs appended since it was built (a racing AddRCC).
func (c *Catalog) EngineAsOf(id int) (eng *Engine, asOf int64, stale bool, err error) {
	slot, err := c.slotFor(id)
	if err != nil {
		return nil, 0, false, err
	}
	c.mu.RLock()
	cur := int64(len(c.rccs[id]))
	lg := c.lastGood[id]
	c.mu.RUnlock()
	if slot.err != nil {
		if lg != nil {
			mStaleServes.Inc()
			return lg.eng, lg.rev.Load(), true, nil
		}
		return nil, 0, false, slot.err
	}
	rev := slot.rev.Load()
	if rev < cur {
		mStaleServes.Inc()
	}
	return slot.eng, rev, rev < cur, nil
}

// EngineBuilds reports how many engine constructions this catalog has
// performed — the observable that serving paths reuse cached engines
// instead of re-indexing per request. The same increments feed the
// process-wide domd_engine_builds_total counter in obs.Default (which
// aggregates across catalogs and is what GET /metrics serves); this
// method remains the per-catalog view.
func (c *Catalog) EngineBuilds() int64 { return c.builds.Load() }

// Eval answers a Status Query for one avail at logical time ts.
func (c *Catalog) Eval(id int, ts float64, q Query) (float64, error) {
	e, err := c.Engine(id)
	if err != nil {
		return 0, err
	}
	return e.Eval(ts, q)
}

// DeltaApplies reports how many ingested RCCs this catalog folded into a
// live engine in O(delta); DeltaFallbacks counts the ingests that
// invalidated instead. The same increments feed the process-wide
// domd_engine_delta_* counters on GET /metrics.
func (c *Catalog) DeltaApplies() int64 { return c.deltaApplies.Load() }

// DeltaFallbacks reports how many AddRCC calls fell back to invalidating
// the cached engine (no cache, build in flight or failed, engine behind
// the history, or an armed failpoint).
func (c *Catalog) DeltaFallbacks() int64 { return c.deltaFallbacks.Load() }

// AddRCC appends a newly created RCC (e.g. an approved contract change) to
// its avail — the mutation path a deployed SMDII back end needs as RCCs
// stream in. When the avail has a live built engine, the RCC is folded
// into it in place in O(delta) (Engine.ApplyRCC), so the engine stays warm
// across ingests and the next query pays no rebuild; the engine's answers
// are bitwise-identical to a from-scratch rebuild over the extended
// history. Otherwise the cached engine is invalidated and the next Engine
// call rebuilds; in-flight queries holding the old engine keep their
// consistent pre-append snapshot either way.
func (c *Catalog) AddRCC(r domain.RCC) error {
	if err := r.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := r.AvailID
	if _, ok := c.avails[id]; !ok {
		return fmt.Errorf("statusq: rcc %d references %w %d", r.ID, ErrUnknownAvail, id)
	}
	// Decide delta eligibility before appending: the slot must hold a
	// successfully built engine that is exactly up to date with the
	// history, or folding r would skip (or double-apply) earlier RCCs.
	slot := c.engines[id]
	reason := ""
	switch {
	case slot == nil:
		reason = "nocache"
	case !slot.done.Load():
		reason = "building"
	case slot.err != nil:
		reason = "failed"
	case slot.rev.Load() != int64(len(c.rccs[id])):
		reason = "behind"
	}
	if reason == "" {
		// Fired before the append: an armed error forces the fallback, an
		// armed panic models a crash between the durable log append and
		// the in-memory apply (the record is replayed on restart).
		if err := faultinject.Fire(FailDeltaApply); err != nil {
			reason = "failpoint"
		}
	}
	c.rccs[id] = append(c.rccs[id], r)
	if reason == "" {
		if err := slot.eng.ApplyRCC(r); err != nil {
			// The engine may be partially updated; drop it from both the
			// cache and the last-good table so it can never serve again.
			delete(c.engines, id)
			if c.lastGood[id] == slot {
				delete(c.lastGood, id)
			}
			c.deltaFallbacks.Add(1)
			mDeltaFallbacks.With("error").Inc()
			return nil
		}
		slot.rev.Add(1)
		c.deltaApplies.Add(1)
		mDeltaApplies.Inc()
		return nil
	}
	// Invalidate the cached engine but keep lastGood: if the rebuild over
	// the extended history fails, EngineAsOf still has a consistent
	// (pre-append) engine to serve, marked stale.
	delete(c.engines, id)
	c.deltaFallbacks.Add(1)
	mDeltaFallbacks.With(reason).Inc()
	return nil
}
