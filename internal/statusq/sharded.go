package statusq

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/obs"
	"domd/internal/wal"
)

// ringReplicas is the number of virtual points each shard places on the
// consistent-hash ring. 128 keeps the largest/smallest shard's arc share
// within a few percent of each other while the ring stays small enough
// to rebuild on every open.
const ringReplicas = 128

// topologyFile is the metadata file written at the WAL root that pins
// the shard layout. Records are routed to per-shard WAL directories by
// avail id, so reopening the same root with a different shard count
// would silently orphan durable records; OpenSharded refuses instead.
const topologyFile = "topology.json"

// shardTopology is the persisted shard layout of a WAL root. Replicas
// is the consistent-hash ring's virtual-node count; WALReplicas is the
// per-shard WAL replica count (0 in topologies written before
// replication existed, read as 1).
type shardTopology struct {
	Version     int `json:"version"`
	Shards      int `json:"shards"`
	Replicas    int `json:"replicas"`
	WALReplicas int `json:"wal_replicas,omitempty"`
}

// ringPoint is one virtual node: a shard's position on the hash ring.
type ringPoint struct {
	hash  uint32
	shard int
}

// shardRing maps avail ids to shards by consistent hashing: each shard
// owns ringReplicas points on a uint32 ring, and an id belongs to the
// shard owning the first point at or after the id's hash (wrapping).
// The mapping depends only on (shards, replicas), never on process
// state, so it is stable across restarts — a requirement for per-shard
// WAL directories to reattach to their records.
type shardRing struct {
	points []ringPoint
}

func newShardRing(shards, replicas int) *shardRing {
	r := &shardRing{points: make([]ringPoint, 0, shards*replicas)}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			// The high bit domain-separates point inputs from avail-id
			// inputs: without it, shard 0's points are the raw values
			// 0..replicas-1, and any avail id in that range would hash
			// exactly onto its own ring point — pinning every small id
			// to shard 0.
			r.points = append(r.points, ringPoint{hash: ringHash(1<<63 | uint64(s)<<32 | uint64(v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on shard id so the ring is a deterministic function
		// of (shards, replicas) even on hash collisions.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// shardOf routes one avail id. Any int routes somewhere — unknown
// avails are rejected by the owning shard, mirroring the single-catalog
// contract.
func (r *shardRing) shardOf(id int) int {
	h := ringHash(uint64(id))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// ringHash maps a 64-bit input onto the uint32 ring through the
// splitmix64 finalizer — a full-avalanche bijection, so the small dense
// integer spaces fed to it (avail ids, shard/replica indices) spread
// uniformly instead of clustering the way byte-wise string hashes do on
// short sequential decimals.
func ringHash(x uint64) uint32 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return uint32(x >> 32)
}

// ShardRestore is one shard's slice of a sharded restore report.
type ShardRestore struct {
	// Shard is the shard index (also the WAL subdirectory suffix).
	Shard int
	// Dir is the shard's WAL directory.
	Dir string
	// Avails is how many avails the ring assigned to this shard.
	Avails int
	// Info is the shard's own restore report.
	Info RestoreInfo
}

// ShardedRestoreInfo aggregates the per-shard restore reports produced
// by OpenSharded, in shard order.
type ShardedRestoreInfo struct {
	// Shards holds one report per shard, indexed by shard id.
	Shards []ShardRestore
}

// Totals sums the per-shard restore counts into one RestoreInfo. The
// embedded Recovery sums replayed record counts and ORs the torn-tail
// flags; per-shard sequence numbers are only meaningful per shard and
// are left zero.
func (s *ShardedRestoreInfo) Totals() RestoreInfo {
	var t RestoreInfo
	for _, sh := range s.Shards {
		t.Restored += sh.Info.Restored
		t.Duplicates += sh.Info.Duplicates
		t.Skipped += sh.Info.Skipped
		t.Recovery.Records += sh.Info.Recovery.Records
		if sh.Info.Recovery.TornTail {
			t.Recovery.TornTail = true
		}
	}
	return t
}

// ShardedCatalog partitions a DurableCatalog into N ≥ 1 shards keyed
// by avail id via consistent hashing; it is the one catalog `domd
// serve` builds, with one shard by default. Each shard owns its own
// WAL directory, engine cache, idempotency-key index, and compaction
// cycle, so ingest acknowledgments on different shards never serialize
// on a shared lock or a shared fsync. The router implements the same query
// surface as *Catalog and the server's Ingester contract, so the
// serving handlers are unchanged: point lookups route to the owning
// shard and fleet scans merge every shard's ids into one
// deterministically ordered (ascending) sweep.
//
// Per-shard semantics are exactly the single-catalog semantics:
// log-before-ack, exactly-once under idempotency keys, stale/asOf
// provenance from the shard's own engine cache. Cross-shard, a failing
// shard degrades only its own avails — the others keep serving fresh.
type ShardedCatalog struct {
	ring   *shardRing
	shards []*DurableCatalog
	dirs   []string

	// ingests/lookups are the per-shard metric counters, resolved once
	// at open so the hot paths never take the registry lock.
	ingests []*obs.Counter
	lookups []*obs.Counter

	// health/breakers are the per-shard health state machines and
	// circuit breakers driving the router's retry/fail-fast envelope;
	// healthG are their resolved gauges.
	health   []*healthTracker
	breakers []*breaker
	healthG  []*obs.Gauge

	// jitter seeds retry-backoff jitter: a counter hashed through
	// splitmix instead of global math/rand, keeping statusq free of
	// ambient randomness.
	jitter atomic.Uint64
}

// OpenSharded builds an N-shard sharded catalog over the base tables,
// laying per-shard WALs out as <root>/shard-0000, <root>/shard-0001, …
// and restoring each shard from its own snapshot + log. The shard
// layout is pinned in <root>/topology.json; reopening a root with a
// different shard count fails rather than silently orphaning records
// (re-sharding an existing root is not supported), and so does opening
// a root that holds a single-catalog WAL of its own (see pinTopology).
// Every shard gets its own copy of opts (WAL fsync policy, compaction
// cadence, dedup budget). One shard takes the base tables as they are;
// only N > 1 partitions them into per-shard copies.
func OpenSharded(root string, shards int, avails []domain.Avail, rccs []domain.RCC, kind index.Kind, opts DurableOptions) (*ShardedCatalog, *ShardedRestoreInfo, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("statusq: shard count %d < 1", shards)
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, fmt.Errorf("statusq: create WAL root: %w", err)
	}
	if err := pinTopology(root, shards, opts.Replicas); err != nil {
		return nil, nil, err
	}
	ring := newShardRing(shards, ringReplicas)

	shardAvails := [][]domain.Avail{avails}
	shardRCCs := [][]domain.RCC{rccs}
	if shards > 1 {
		shardAvails = make([][]domain.Avail, shards)
		for _, a := range avails {
			s := ring.shardOf(a.ID)
			shardAvails[s] = append(shardAvails[s], a)
		}
		shardRCCs = make([][]domain.RCC, shards)
		for _, r := range rccs {
			s := ring.shardOf(r.AvailID)
			shardRCCs[s] = append(shardRCCs[s], r)
		}
	}

	sc := &ShardedCatalog{
		ring:     ring,
		shards:   make([]*DurableCatalog, shards),
		dirs:     make([]string, shards),
		ingests:  make([]*obs.Counter, shards),
		lookups:  make([]*obs.Counter, shards),
		health:   make([]*healthTracker, shards),
		breakers: make([]*breaker, shards),
		healthG:  make([]*obs.Gauge, shards),
	}
	info := &ShardedRestoreInfo{Shards: make([]ShardRestore, shards)}
	for i := 0; i < shards; i++ {
		dir := shardDir(root, i)
		d, ri, err := OpenDurable(dir, shardAvails[i], shardRCCs[i], kind, opts)
		if err != nil {
			for j := 0; j < i; j++ {
				closeBestEffort(sc.shards[j].log)
			}
			return nil, nil, fmt.Errorf("statusq: open shard %d: %w", i, err)
		}
		sc.shards[i] = d
		sc.dirs[i] = dir
		label := strconv.Itoa(i)
		sc.ingests[i] = mShardIngests.With(label)
		sc.lookups[i] = mShardEngineLookups.With(label)
		sc.health[i] = &healthTracker{}
		sc.breakers[i] = &breaker{}
		sc.healthG[i] = mShardHealth.With(label)
		mShardAvails.With(label).Set(int64(len(shardAvails[i])))
		info.Shards[i] = ShardRestore{Shard: i, Dir: dir, Avails: len(shardAvails[i]), Info: *ri}
	}
	return sc, info, nil
}

// shardDir is shard i's WAL directory under root.
func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", i))
}

// pinTopology creates or verifies the root's topology metadata,
// including the per-shard WAL replica count: reopening a root with a
// different replica count would abandon (or invent) replica
// directories, so it fails like a shard-count change does. A root with
// no topology but a single-catalog WAL of its own (what `domd serve
// -wal-dir` wrote before every server was sharded) is refused and left
// untouched: a tier opened over it would route every record to
// shard-0000 and orphan the root's acknowledged records.
func pinTopology(root string, shards, walReplicas int) error {
	if walReplicas < 1 {
		walReplicas = 1
	}
	path := filepath.Join(root, topologyFile)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var top shardTopology
		if derr := json.Unmarshal(raw, &top); derr != nil {
			return fmt.Errorf("statusq: decode %s: %w", path, derr)
		}
		if top.WALReplicas < 1 {
			top.WALReplicas = 1 // pre-replication topology: single log per shard
		}
		if top.Shards != shards || top.Replicas != ringReplicas {
			return fmt.Errorf("statusq: WAL root %s is laid out for %d shards (ring replicas %d), got -shards %d (replicas %d): re-sharding an existing root is not supported",
				root, top.Shards, top.Replicas, shards, ringReplicas)
		}
		if top.WALReplicas != walReplicas {
			return fmt.Errorf("statusq: WAL root %s is laid out with %d WAL replicas per shard, got -repl %d: changing replication of an existing root is not supported",
				root, top.WALReplicas, walReplicas)
		}
		return nil
	case os.IsNotExist(err):
		if hasSingleLog(root) {
			// At one shard the ring sends every avail to shard 0, and
			// shard-0000 is a complete single-catalog WAL directory.
			return fmt.Errorf("statusq: WAL root %s holds a single-catalog WAL and no %s; opening it sharded would orphan its records. Migrate it by moving wal.log and snapshot.wal (whichever exist) into %s, then reopen with -shards 1 -repl 1",
				root, topologyFile, shardDir(root, 0))
		}
		raw, merr := json.Marshal(shardTopology{Version: 1, Shards: shards, Replicas: ringReplicas, WALReplicas: walReplicas})
		if merr != nil {
			return fmt.Errorf("statusq: encode topology: %w", merr)
		}
		if werr := wal.WriteFileAtomic(path, raw); werr != nil {
			return fmt.Errorf("statusq: pin topology: %w", werr)
		}
		return nil
	default:
		return fmt.Errorf("statusq: read %s: %w", path, err)
	}
}

// ShardCount reports the number of shards.
func (s *ShardedCatalog) ShardCount() int { return len(s.shards) }

// ShardOf reports which shard owns an avail id. Exported so tests can
// target (or avoid) a specific shard.
func (s *ShardedCatalog) ShardOf(id int) int { return s.ring.shardOf(id) }

// ShardDir reports shard i's WAL directory.
func (s *ShardedCatalog) ShardDir(i int) string { return s.dirs[i] }

// shardFor routes an avail id to its owning shard.
func (s *ShardedCatalog) shardFor(id int) *DurableCatalog {
	return s.shards[s.ring.shardOf(id)]
}

// Avail routes a point lookup to the owning shard.
func (s *ShardedCatalog) Avail(id int) (*domain.Avail, bool) {
	return s.shardFor(id).Avail(id)
}

// AvailIDs merges every shard's (already sorted) id list into one
// ascending list — the deterministic cross-shard ordering the fleet
// surface relies on.
func (s *ShardedCatalog) AvailIDs() []int {
	return s.mergedIDs((*DurableCatalog).AvailIDs)
}

// OngoingIDs merges every shard's ongoing avails in ascending id order.
func (s *ShardedCatalog) OngoingIDs() []int {
	return s.mergedIDs((*DurableCatalog).OngoingIDs)
}

// mergedIDs gathers ids shard by shard (shard order is a slice sweep,
// never a map range) and sorts the union ascending.
func (s *ShardedCatalog) mergedIDs(get func(*DurableCatalog) []int) []int {
	ids := []int{}
	for _, sh := range s.shards {
		ids = append(ids, get(sh)...)
	}
	sort.Ints(ids)
	return ids
}

// Engine routes to the owning shard's engine cache.
func (s *ShardedCatalog) Engine(id int) (*Engine, error) {
	s.lookups[s.ring.shardOf(id)].Inc()
	return s.shardFor(id).Engine(id)
}

// EngineAsOf routes to the owning shard, preserving the single-catalog
// stale/asOf provenance contract per shard — with one router-level
// addition: answers from a shard in the failed health state are forced
// stale=true, because a shard that cannot durably accept writes is by
// definition serving a frozen view (the circuit breaker's
// stale-serving mode).
func (s *ShardedCatalog) EngineAsOf(id int) (eng *Engine, asOf int64, stale bool, err error) {
	shard := s.ring.shardOf(id)
	s.lookups[shard].Inc()
	eng, asOf, stale, err = s.shards[shard].EngineAsOf(id)
	if err == nil && !stale && s.HealthOf(shard) == ShardFailed {
		stale = true
		mStaleServes.Inc()
	}
	return eng, asOf, stale, err
}

// Eval routes one Status Query evaluation to the owning shard.
func (s *ShardedCatalog) Eval(id int, ts float64, q Query) (float64, error) {
	return s.shardFor(id).Eval(id, ts, q)
}

const (
	// ingestRetries is the number of times the router re-attempts a
	// transient shard storage failure before surfacing it.
	ingestRetries = 2
	// ingestRetryBase is the first retry's backoff; each further retry
	// doubles it, jittered into [base/2, base].
	ingestRetryBase = 2 * time.Millisecond
)

// Ingest routes one RCC to the owning shard's durable ingest path,
// wrapped in the router's resilience envelope: transient storage
// failures are retried with jittered exponential backoff, consecutive
// failures trip the shard's circuit breaker (fail-fast with periodic
// probes), and every outcome drives the shard's health state machine.
// The per-shard log-before-ack and idempotency contracts are exactly
// DurableCatalog.Ingest's; shards never share a WAL or an ingest lock,
// and a retried append that already reached disk is collapsed by the
// idempotency key exactly as a client retry would be.
func (s *ShardedCatalog) Ingest(key string, r domain.RCC) (dup bool, err error) {
	shard := s.ring.shardOf(r.AvailID)
	s.ingests[shard].Inc()
	// Reject bad requests before touching the breaker or the shard:
	// validation failures are the client's problem, not health signals.
	if verr := r.Validate(); verr != nil {
		return false, verr
	}
	if !s.breakers[shard].allow() {
		return false, fmt.Errorf("statusq: shard %d: %w", shard, ErrShardUnavailable)
	}
	dup, err = s.shards[shard].Ingest(key, r)
	for attempt := 0; err != nil && ingestRetryable(err) && attempt < ingestRetries; attempt++ {
		mShardIngestRetries.Inc()
		time.Sleep(s.backoff(attempt))
		dup, err = s.shards[shard].Ingest(key, r)
	}
	if err == nil || !ingestRetryable(err) {
		// Success, or a request-level rejection (unknown avail, closed
		// catalog): the shard's storage is not implicated.
		s.breakers[shard].note(true)
		s.health[shard].noteIngest(true)
	} else {
		s.breakers[shard].note(false)
		s.health[shard].noteIngest(false)
	}
	s.healthG[shard].Set(int64(s.HealthOf(shard)))
	return dup, err
}

// ingestRetryable distinguishes transient storage failures (worth a
// retry, and a health signal) from request-level rejections that no
// retry can fix.
func ingestRetryable(err error) bool {
	return err != nil && !errors.Is(err, ErrUnknownAvail) && !errors.Is(err, ErrNotReady)
}

// backoff computes the attempt'th retry delay: exponential from
// ingestRetryBase, jittered into [d/2, d] by a splitmix-hashed counter
// (no ambient randomness in statusq).
func (s *ShardedCatalog) backoff(attempt int) time.Duration {
	d := ingestRetryBase << attempt
	frac := float64(ringHash(s.jitter.Add(1))) / float64(1<<32)
	return d/2 + time.Duration(frac*float64(d/2))
}

// Ready reports readiness of the whole tier: every shard must be able
// to acknowledge ingests. The first unready shard is named.
func (s *ShardedCatalog) Ready() error {
	for i, sh := range s.shards {
		if err := sh.Ready(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close closes every shard's WAL. All shards are attempted; failures
// are joined.
func (s *ShardedCatalog) Close() error {
	var errs []error
	for i, sh := range s.shards {
		if err := sh.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// IngestedCount sums the applied delta across shards.
func (s *ShardedCatalog) IngestedCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.IngestedCount()
	}
	return n
}

// HealthOf reports shard i's current health: the failure-streak state
// machine folded with the shard's live replica status, so a quorum loss
// is visible even before the next ingest attempt.
func (s *ShardedCatalog) HealthOf(i int) ShardHealth {
	repl, replicated := s.shards[i].ReplHealth()
	h := s.health[i].state(repl, replicated)
	s.healthG[i].Set(int64(h))
	return h
}

// HealthForAvail reports the health of the shard owning an avail id —
// the hook /fleet uses to annotate rows from degraded shards.
func (s *ShardedCatalog) HealthForAvail(id int) ShardHealth {
	return s.HealthOf(s.ring.shardOf(id))
}

// ShardHealths reports every shard's health, replica census, and
// replication lag, in shard order — the /readyz per-shard body.
func (s *ShardedCatalog) ShardHealths() []ShardHealthStatus {
	out := make([]ShardHealthStatus, len(s.shards))
	for i := range s.shards {
		repl, replicated := s.shards[i].ReplHealth()
		st := ShardHealthStatus{
			Shard:       i,
			State:       s.HealthOf(i),
			Replicas:    1,
			Live:        1,
			BreakerOpen: s.breakers[i].isOpen(),
		}
		if replicated {
			st.Replicas = repl.Replicas
			st.Live = repl.Live
			st.Lag = repl.Lag
			st.Promotable = repl.QuorumOK
		}
		if !replicated && st.State == ShardFailed {
			st.Live = 0
		}
		out[i] = st
	}
	return out
}
