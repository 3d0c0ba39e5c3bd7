package statusq

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"domd/internal/domain"
	"domd/internal/faultinject"
	"domd/internal/index"
	"domd/internal/wal"
)

// FailDurableApply is the faultinject site fired between the WAL append
// and the in-memory apply of an ingested RCC — the crash window a
// kill-mid-ingest test targets. A hook that panics here simulates the
// process dying with the record durable but not yet applied; replay at
// the next OpenDurable must surface it.
const FailDurableApply = "statusq.durable.apply"

// walEntry is the WAL record and snapshot element for one ingested RCC.
// The base tables (avails, historical RCCs) are reloaded from their CSVs
// at startup; the WAL persists only the delta ingested at runtime.
type walEntry struct {
	// Key is the idempotency key the record was ingested under ("" when
	// the client supplied none, which disables dedup for that record).
	Key string     `json:"key,omitempty"`
	RCC domain.RCC `json:"rcc"`
}

// walState is the snapshot payload: every applied delta entry, in
// acknowledgment order.
type walState struct {
	Entries []walEntry `json:"entries"`
}

// DefaultDedupCap is the idempotency-key budget applied when
// DurableOptions.DedupCap is zero: roughly 65k keys, a few MiB of
// strings at typical key lengths, per catalog (per shard when sharded).
const DefaultDedupCap = 1 << 16

// durableLog is the durability surface Ingest acknowledges through —
// either a single write-ahead log (*wal.Log) or a quorum-acked replica
// set (*wal.ReplicatedLog). Append-before-ack semantics are identical;
// the replicated form simply requires a quorum of disks instead of one.
type durableLog interface {
	Append(payload []byte) (seq uint64, err error)
	Snapshot(payload []byte) error
	Close() error
}

// replProbe is the read-only replication status surface a replicated
// log exposes (nil on a single-log catalog). Split from durableLog so
// the health plumbing cannot accidentally become a second append path.
type replProbe interface {
	Status() []wal.ReplicaStatus
	Lag() uint64
	QuorumLive() bool
}

// DurableOptions tune a DurableCatalog.
type DurableOptions struct {
	// WAL configures the underlying log, most importantly the fsync
	// policy (wal.SyncAlways for crash-proof acknowledgments).
	WAL wal.Options
	// Replicas is the number of WAL replica directories per catalog
	// (per shard when sharded); values <= 1 mean a single unreplicated
	// log. With N > 1, appends fan out to <dir>/replica-00 ..
	// <dir>/replica-0(N-1) and acknowledge at ReplQuorum.
	Replicas int
	// ReplQuorum is the replica acks required before Ingest
	// acknowledges; 0 means majority.
	ReplQuorum int
	// ReplMaxLag bounds the in-memory catch-up window per replica set;
	// 0 means wal.DefaultReplMaxLag.
	ReplMaxLag int
	// CompactEvery writes a snapshot and truncates the log after this
	// many ingested records since the last snapshot; <= 0 disables
	// auto-compaction (Compact can still be called manually).
	CompactEvery int
	// DedupCap bounds the in-memory idempotency-key index so sustained
	// unique-key traffic is not a slow memory leak. When more than
	// DedupCap keys are live, the oldest snapshot-covered keys are
	// evicted in acknowledgment order. Keys whose records still sit in
	// the un-snapshotted log suffix are never evicted, so exactly-once
	// holds for every key still in the WAL window; an evicted (ancient,
	// already-snapshotted) key retried later is accepted as a fresh
	// record — the documented idempotency window is
	// min(DedupCap acknowledgments, age of the last snapshot).
	// 0 applies DefaultDedupCap; negative disables the bound.
	DedupCap int
}

// dedupCap resolves the configured idempotency-key budget.
func (o DurableOptions) dedupCap() int {
	switch {
	case o.DedupCap < 0:
		return 0 // unbounded
	case o.DedupCap == 0:
		return DefaultDedupCap
	default:
		return o.DedupCap
	}
}

// RestoreInfo reports what OpenDurable reconstructed on top of the base
// tables.
type RestoreInfo struct {
	// Recovery is the raw WAL-level recovery report (snapshot sequence,
	// replayed records, torn-tail cut). Under replication it is the
	// authoritative replica's report.
	Recovery wal.RecoveryInfo
	// Repl reports how a replicated WAL reconciled its replica set on
	// open (nil on a single-log catalog).
	Repl *wal.ReplRecovery
	// Restored counts delta RCCs re-applied from snapshot + log.
	Restored int
	// Duplicates counts replayed entries skipped because their
	// idempotency key had already been applied.
	Duplicates int
	// Skipped counts replayed entries that no longer apply to the base
	// tables (unknown avail after a table edit, failed validation). They
	// are dropped with a count rather than failing startup: refusing to
	// serve the whole fleet over one orphaned record is the worse
	// failure mode.
	Skipped int
}

// DurableCatalog is a Catalog whose ingestion path is write-ahead
// logged: Ingest acknowledges an RCC only after it is on the log (per
// the configured fsync policy), and OpenDurable restores every
// acknowledged RCC from snapshot + log replay after a crash or restart.
// Read and query methods are the embedded Catalog's.
type DurableCatalog struct {
	*Catalog
	log  durableLog
	repl replProbe // non-nil iff the log is replicated
	opts DurableOptions

	// open flips false on Close; Ready gates /readyz on it.
	open atomic.Bool

	mu   sync.Mutex // guards seen, keyq, snapKeys, applied, sinceSnap, and compactErr
	seen map[string]bool
	// keyq holds the live idempotency keys in acknowledgment order; its
	// prefix of snapKeys entries is covered by the last snapshot and
	// therefore evictable once the index exceeds the DedupCap budget.
	// Keys after that prefix belong to the un-snapshotted log suffix
	// and are pinned (see DurableOptions.DedupCap).
	keyq      []string
	snapKeys  int
	applied   []walEntry
	sinceSnap int
	// compactErr is the most recent auto-compaction failure (nil when
	// the last one succeeded). Compaction failures do not fail Ingest —
	// the record is already durable — but operators can surface them.
	compactErr error
}

// OpenDurable builds a catalog over the base tables, then restores the
// ingested delta from the WAL in dir (snapshot first, then log replay),
// creating the log if absent. Replayed duplicates (by idempotency key)
// and entries orphaned by base-table edits are skipped and counted in
// RestoreInfo.
func OpenDurable(dir string, avails []domain.Avail, rccs []domain.RCC, kind index.Kind, opts DurableOptions) (*DurableCatalog, *RestoreInfo, error) {
	cat, err := NewCatalog(avails, rccs, kind)
	if err != nil {
		return nil, nil, err
	}
	if err := checkReplLayout(dir, opts.Replicas); err != nil {
		return nil, nil, err
	}
	var (
		log  durableLog
		repl replProbe
		rec  *wal.Recovered
		rep  *wal.ReplRecovery
	)
	if opts.Replicas > 1 {
		rl, r, rp, rerr := wal.OpenReplicated(wal.ReplicaDirs(dir, opts.Replicas), wal.ReplicatedOptions{
			Quorum: opts.ReplQuorum,
			MaxLag: opts.ReplMaxLag,
			Name:   filepath.Base(dir),
			Log:    opts.WAL,
		})
		if rerr != nil {
			return nil, nil, rerr
		}
		log, repl, rec, rep = rl, rl, r, rp
	} else {
		l, r, oerr := wal.Open(dir, opts.WAL)
		if oerr != nil {
			return nil, nil, oerr
		}
		log, rec = l, r
	}
	d := &DurableCatalog{
		Catalog: cat,
		log:     log,
		repl:    repl,
		opts:    opts,
		seen:    make(map[string]bool),
	}
	info := &RestoreInfo{Recovery: rec.Info, Repl: rep}

	var entries []walEntry
	if rec.Snapshot != nil {
		var st walState
		if err := json.Unmarshal(rec.Snapshot, &st); err != nil {
			closeBestEffort(log)
			return nil, nil, fmt.Errorf("statusq: decode WAL snapshot: %w", err)
		}
		entries = st.Entries
	}
	snapCount := len(entries)
	for _, raw := range rec.Entries {
		e, err := decodeWALEntry(raw)
		if err != nil {
			// The CRC already vouched for the bytes, so this is a format
			// mismatch (version skew), not disk damage: refuse to guess.
			closeBestEffort(log)
			return nil, nil, fmt.Errorf("statusq: decode WAL record: %w", err)
		}
		entries = append(entries, e)
	}
	// Replay dedups through the same bounded index live ingestion uses,
	// evicting as it goes. That reproduces the live process's decisions
	// exactly: crash-window duplicate records sit close together on the
	// log and still collapse to one apply, while a re-accepted evicted
	// key (two records with the same key, by construction separated by
	// at least DedupCap unique keys) is correctly applied twice — an
	// acknowledged record never disappears across a restart.
	for i, e := range entries {
		if e.Key != "" && d.seen[e.Key] {
			info.Duplicates++
			mIngestRestored.With("duplicate").Inc()
			continue
		}
		if err := cat.AddRCC(e.RCC); err != nil {
			info.Skipped++
			mIngestRestored.With("orphaned").Inc()
			continue
		}
		if e.Key != "" {
			d.seen[e.Key] = true
			d.keyq = append(d.keyq, e.Key)
			if i < snapCount {
				d.snapKeys++
			}
			d.evictExcess()
		}
		d.applied = append(d.applied, e)
		info.Restored++
		mIngestRestored.With("applied").Inc()
	}
	d.open.Store(true)
	return d, info, nil
}

// evictExcess trims the idempotency-key index down to the configured
// budget, oldest acknowledgment first, never dipping past the
// snapshot-covered prefix (keys still in the un-snapshotted log suffix
// stay dedupable until a compaction folds them into a snapshot).
// Callers hold d.mu (or, in OpenDurable, exclusive ownership).
func (d *DurableCatalog) evictExcess() {
	budget := d.opts.dedupCap()
	if budget <= 0 {
		return
	}
	for len(d.seen) > budget && d.snapKeys > 0 {
		delete(d.seen, d.keyq[0])
		d.keyq = d.keyq[1:]
		d.snapKeys--
		mDedupEvictions.Inc()
	}
	// Reclaim the queue's backing array once eviction has walked far
	// enough into it that more than half the capacity is dead prefix.
	if cap(d.keyq) > 64 && len(d.keyq)*2 < cap(d.keyq) {
		d.keyq = append(make([]string, 0, len(d.keyq)), d.keyq...)
	}
}

// DedupTracked reports the number of idempotency keys currently held in
// the bounded dedup index — the quantity DedupCap caps.
func (d *DurableCatalog) DedupTracked() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.seen)
}

// closeBestEffort closes a log whose contents we are abandoning anyway.
func closeBestEffort(log durableLog) {
	log.Close() //lint:ignore droppederr best-effort close on an already-failing open path
}

// checkReplLayout refuses to open a WAL directory whose on-disk layout
// disagrees with the requested replica count: a single-log directory
// reopened with -repl would silently abandon wal.log, and a replicated
// directory reopened without -repl would abandon every replica. Changing
// the replica count of a populated root is an operator migration, not a
// flag flip.
func checkReplLayout(dir string, replicas int) error {
	replicated := fileExists(filepath.Join(dir, "replica-00"))
	if replicas > 1 && hasSingleLog(dir) {
		return fmt.Errorf("statusq: WAL dir %s holds an unreplicated log; enabling replication on it would orphan its records (migrate to a fresh root)", dir)
	}
	if replicas <= 1 && replicated {
		return fmt.Errorf("statusq: WAL dir %s holds a replicated log; opening it unreplicated would orphan its replicas (pass the original -repl)", dir)
	}
	return nil
}

// hasSingleLog reports whether dir holds an unreplicated WAL of its own.
func hasSingleLog(dir string) bool {
	return fileExists(filepath.Join(dir, "wal.log")) || fileExists(filepath.Join(dir, "snapshot.wal"))
}

// fileExists reports whether path exists (file or directory).
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// ErrNotReady is returned by Ready once the durable catalog is closed.
var ErrNotReady = errors.New("statusq: durable catalog is closed")

// Ready reports whether the catalog can acknowledge ingestion: restore
// completed (OpenDurable returned) and the WAL is open. This is the
// /readyz gate, distinct from process liveness.
func (d *DurableCatalog) Ready() error {
	if !d.open.Load() {
		return ErrNotReady
	}
	return nil
}

// LastCompactError returns the most recent auto-compaction failure, or
// nil. A failing compaction leaves serving and durability intact (the
// log just keeps growing), so it is reported out-of-band instead of
// failing Ingest.
func (d *DurableCatalog) LastCompactError() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactErr
}

// Ingest validates, durably logs, and applies one RCC. The contract:
//
//   - A nil error means the record is on the WAL (per the fsync policy)
//     and visible to subsequent Engine/Eval calls — acknowledged.
//   - dup=true means the idempotency key was already applied; the call
//     is a no-op acknowledgment of the earlier ingest.
//   - A non-nil error means the record must NOT be considered ingested;
//     nothing was acknowledged. (A crash between append and apply can
//     still surface the record after restart — WAL replay is
//     at-least-once, which idempotency keys make exactly-once.)
//
// An empty key disables deduplication for this record.
func (d *DurableCatalog) Ingest(key string, r domain.RCC) (dup bool, err error) {
	if err := r.Validate(); err != nil {
		return false, err
	}
	if _, ok := d.Avail(r.AvailID); !ok {
		return false, fmt.Errorf("statusq: rcc %d references %w %d", r.ID, ErrUnknownAvail, r.AvailID)
	}
	if err := d.Ready(); err != nil {
		return false, err
	}
	payload := encodeWALEntry(walEntry{Key: key, RCC: r})

	d.mu.Lock()
	defer d.mu.Unlock()
	if key != "" && d.seen[key] {
		mIngestDuplicates.Inc()
		return true, nil
	}
	if _, err := d.log.Append(payload); err != nil {
		// Not acknowledged: the client must retry (the server maps this
		// to 503). If the OS got the bytes down anyway, replay surfaces
		// the record and the retry's idempotency key dedups it.
		mIngestFailures.Inc()
		return false, err
	}
	// Crash window: durable but not yet applied. A kill here (the armed
	// hook panics) is recovered by replay at the next OpenDurable.
	if err := faultinject.Fire(FailDurableApply); err != nil {
		mIngestFailures.Inc()
		return false, fmt.Errorf("statusq: apply ingested rcc %d: %w", r.ID, err)
	}
	if err := d.Catalog.AddRCC(r); err != nil {
		mIngestFailures.Inc()
		return false, err
	}
	if key != "" {
		d.seen[key] = true
		d.keyq = append(d.keyq, key)
		d.evictExcess()
	}
	d.applied = append(d.applied, walEntry{Key: key, RCC: r})
	d.sinceSnap++
	mIngestAcks.Inc()
	if d.opts.CompactEvery > 0 && d.sinceSnap >= d.opts.CompactEvery {
		// Auto-compaction failure must not fail the already-durable
		// ingest; record it for LastCompactError instead. The applied
		// slice corresponds exactly to the log's sequence here because
		// the ingest lock is held.
		if payload, merr := json.Marshal(walState{Entries: d.applied}); merr != nil {
			d.compactErr = fmt.Errorf("statusq: encode WAL snapshot: %w", merr)
		} else if serr := d.log.Snapshot(payload); serr != nil {
			d.compactErr = serr
		} else {
			d.compactErr = nil
			d.sinceSnap = 0
			// Every live key is now snapshot-covered, which unpins the
			// whole queue for capacity eviction.
			d.snapKeys = len(d.keyq)
			d.evictExcess()
		}
	}
	return false, nil
}

// Compact writes a snapshot of the ingested delta and truncates the
// log — bounding replay time after long uptimes. Safe to call at any
// time; concurrent Ingests serialize around it.
func (d *DurableCatalog) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	payload, err := json.Marshal(walState{Entries: d.applied})
	if err != nil {
		return fmt.Errorf("statusq: encode WAL snapshot: %w", err)
	}
	if err := d.log.Snapshot(payload); err != nil {
		return err
	}
	d.sinceSnap = 0
	d.snapKeys = len(d.keyq)
	d.evictExcess()
	return nil
}

// AddRCC shadows the embedded Catalog's mutation path: on a durable
// catalog every write must go through Ingest, or it would vanish on
// restart. It always fails.
func (d *DurableCatalog) AddRCC(r domain.RCC) error {
	return fmt.Errorf("statusq: direct AddRCC on a durable catalog (rcc %d); use Ingest", r.ID)
}

// IngestedCount reports how many delta RCCs are applied (restored +
// ingested this run) — an observability hook for tests and /readyz
// payloads.
func (d *DurableCatalog) IngestedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.applied)
}

// Close flushes and closes the WAL; subsequent Ingests fail and Ready
// reports not-ready. Queries keep working from memory.
func (d *DurableCatalog) Close() error {
	if !d.open.CompareAndSwap(true, false) {
		return nil
	}
	return d.log.Close()
}

// ReplHealth summarizes a replicated catalog's replica set.
type ReplHealth struct {
	// Replicas is the configured replica count.
	Replicas int
	// Live, Lagging, and Failed count replicas in each state.
	Live    int
	Lagging int
	Failed  int
	// Lag is the records the most-behind non-failed replica is missing.
	Lag uint64
	// QuorumOK reports whether enough replicas are live to acknowledge
	// an append right now.
	QuorumOK bool
}

// ReplHealth reports the replica set's state; ok is false on an
// unreplicated catalog.
func (d *DurableCatalog) ReplHealth() (h ReplHealth, ok bool) {
	if d.repl == nil {
		return ReplHealth{}, false
	}
	for _, st := range d.repl.Status() {
		h.Replicas++
		switch st.State {
		case wal.ReplLive:
			h.Live++
		case wal.ReplLagging:
			h.Lagging++
		default:
			h.Failed++
		}
	}
	h.Lag = d.repl.Lag()
	h.QuorumOK = d.repl.QuorumLive()
	return h, true
}
