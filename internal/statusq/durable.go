package statusq

import (
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

// walEntry is the WAL record for one ingested RCC (see walcodec.go).
// The base tables (avails, historical RCCs) are reloaded from their CSVs
// at startup; the WAL persists only the delta ingested at runtime.
type walEntry struct {
	// Key is the idempotency key the record was ingested under ("" when
	// the client supplied none, which disables dedup for that record).
	Key string
	RCC domain.RCC
}

// DefaultDedupCap is the idempotency-key budget applied when
// DurableOptions.DedupCap is zero: roughly 65k keys, a few MiB of
// strings at typical key lengths, per catalog (per shard when sharded).
const DefaultDedupCap = 1 << 16

// DurableOptions tune a DurableCatalog.
type DurableOptions struct {
	// WAL configures the underlying log, most importantly the fsync
	// policy (wal.SyncAlways for crash-proof acknowledgments).
	WAL wal.Options
	// Replicas is the number of WAL replica directories per catalog
	// (per shard when sharded). Values <= 1 mean a one-replica set that
	// lives in the catalog directory itself; with N > 1, appends fan out
	// to <dir>/replica-00 .. <dir>/replica-0(N-1) and acknowledge at a
	// majority (N/2+1).
	Replicas int
	// CompactEvery is ignored: the log is never compacted, because it is
	// the whole ingested history. The field stays only because the
	// domdbench tracer sets it; the benchmark change that moves the
	// tracer onto OpenSharded (ROADMAP item 12) drops it.
	CompactEvery int
	// DedupCap bounds the in-memory idempotency-key index so sustained
	// unique-key traffic is not a slow memory leak: the index holds
	// exactly the last DedupCap acknowledged keys, evicting the oldest
	// first. A key retried within that window deduplicates; an evicted
	// key retried later is accepted as a fresh record. Replay applies the
	// same cap to the same records in the same order, so it reproduces
	// every live dedup decision. 0 applies DefaultDedupCap; negative
	// disables the bound.
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
	// Recovery is the raw WAL-level recovery report (replayed records,
	// torn-tail cut). Under replication it is the
	// authoritative replica's report.
	Recovery wal.RecoveryInfo
	// Repl reports how the WAL reconciled its replica set on open (a
	// one-replica catalog has one row and nothing to repair).
	Repl *wal.ReplRecovery
	// Restored counts delta RCCs re-applied from the log.
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
// acknowledged RCC from log replay after a crash or restart.
// Read and query methods are the embedded Catalog's.
type DurableCatalog struct {
	*Catalog
	log  *wal.ReplicatedLog
	opts DurableOptions

	// open flips false on Close; Ready gates /readyz on it.
	open atomic.Bool

	mu   sync.Mutex // guards seen, keyq, and ingested
	seen map[string]bool
	// keyq holds the live idempotency keys in acknowledgment order, the
	// oldest first out once the index exceeds the DedupCap budget.
	keyq []string
	// ingested counts the applied delta entries.
	ingested int
}

// OpenDurable builds a catalog over the base tables plus the ingested
// delta restored by replaying the WAL in dir, creating the log if
// absent. A directory holding a WAL in the format of earlier builds is
// refused; OpenSharded upgrades such a root. Replayed duplicates (by idempotency key)
// and entries that no longer apply (orphaned by base-table edits, or
// invalid) are skipped and counted in RestoreInfo.
//
// kind is ignored: serving engines hold no time index. The parameter stays
// only because the domdbench tracer links this signature; the benchmark
// change that moves the tracer onto OpenSharded (ROADMAP item 12) drops it.
func OpenDurable(dir string, avails []domain.Avail, rccs []domain.RCC, kind index.Kind, opts DurableOptions) (*DurableCatalog, *RestoreInfo, error) {
	return openDurable(dir, avails, rccs, opts)
}

// openDurable is OpenDurable without the ignored index kind.
func openDurable(dir string, avails []domain.Avail, rccs []domain.RCC, opts DurableOptions) (*DurableCatalog, *RestoreInfo, error) {
	cat, byAvail, err := indexTables(avails, rccs)
	if err != nil {
		return nil, nil, err
	}
	if err := checkReplLayout(dir, opts.Replicas); err != nil {
		return nil, nil, err
	}
	dirs := wal.ReplicaDirs(dir, opts.Replicas)
	for _, rd := range dirs {
		if holdsLegacy(rd) {
			return nil, nil, fmt.Errorf("statusq: WAL dir %s holds a log in the on-disk format of earlier builds; open its root with OpenSharded (domd serve), which upgrades it once", rd)
		}
	}
	log, rec, rep, err := wal.OpenReplicated(dirs, wal.ReplicatedOptions{
		Name: filepath.Base(dir),
		Log:  opts.WAL,
	})
	if err != nil {
		return nil, nil, err
	}
	d := &DurableCatalog{
		Catalog: cat,
		log:     log,
		opts:    opts,
		seen:    make(map[string]bool),
	}
	info := &RestoreInfo{Recovery: rec.Info, Repl: rep}

	// Replay dedups through the same bounded index live ingestion uses,
	// evicting as it goes. That reproduces the live process's decisions
	// exactly: crash-window duplicate records sit close together on the
	// log and still collapse to one apply, while a re-accepted evicted
	// key (two records with the same key, by construction separated by
	// at least DedupCap unique keys) is correctly applied twice — an
	// acknowledged record never disappears across a restart. Restored
	// RCCs join their avail's base RCCs before the engines are built, so
	// restore costs one event-order sort per avail, not one ApplyRCC per
	// record; ApplyRCC's bitwise equivalence to a rebuild makes the two
	// the same engine.
	for _, raw := range rec.Entries {
		e, err := decodeWALEntry(raw)
		if err != nil {
			// The CRC already vouched for the payload, so a decode failure
			// is a format mismatch (version skew), not disk damage: refuse
			// to guess.
			closeBestEffort(log)
			return nil, nil, fmt.Errorf("statusq: decode WAL record: %w", err)
		}
		if e.Key != "" && d.seen[e.Key] {
			info.Duplicates++
			continue
		}
		if err := cat.admit(&e.RCC); err != nil {
			info.Skipped++
			continue
		}
		byAvail[e.RCC.AvailID] = append(byAvail[e.RCC.AvailID], e.RCC)
		if e.Key != "" {
			d.remember(e.Key)
		}
		info.Restored++
	}
	d.ingested = info.Restored
	mIngestRestored.With("applied").Add(int64(info.Restored))
	mIngestRestored.With("duplicate").Add(int64(info.Duplicates))
	mIngestRestored.With("orphaned").Add(int64(info.Skipped))
	if err := cat.buildEngines(byAvail); err != nil {
		closeBestEffort(log)
		return nil, nil, err
	}
	d.open.Store(true)
	return d, info, nil
}

// remember adds an acknowledged key to the idempotency-key index and
// trims the index to the configured budget, oldest acknowledgment
// first. Callers hold d.mu (or, in OpenDurable, exclusive ownership).
func (d *DurableCatalog) remember(key string) {
	d.seen[key] = true
	d.keyq = append(d.keyq, key)
	if budget := d.opts.dedupCap(); budget > 0 && len(d.keyq) > budget {
		delete(d.seen, d.keyq[0])
		d.keyq = d.keyq[1:]
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
func closeBestEffort(log *wal.ReplicatedLog) {
	log.Close() //lint:ignore droppederr best-effort close on an already-failing open path
}

// checkReplLayout refuses to open a WAL directory whose on-disk layout
// disagrees with the requested replica count: a single-log directory
// reopened with -repl would silently abandon its log, and a replicated
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

// hasSingleLog reports whether dir holds an unreplicated WAL of its own,
// in the current format or that of earlier builds.
func hasSingleLog(dir string) bool {
	return fileExists(filepath.Join(dir, wal.LogFile)) || holdsLegacy(dir)
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

// Ingest validates, durably logs, and applies one RCC. The contract:
//
//   - A nil error means the record is on the WAL (per the fsync policy)
//     and visible to subsequent EngineAsOf lookups — acknowledged.
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
	if err := d.Catalog.addRCC(r); err != nil {
		mIngestFailures.Inc()
		return false, err
	}
	if key != "" {
		d.remember(key)
	}
	d.ingested++
	mIngestAcks.Inc()
	return false, nil
}

// IngestedCount reports how many delta RCCs are applied (restored +
// ingested this run) — an observability hook for tests and /readyz
// payloads.
func (d *DurableCatalog) IngestedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ingested
}

// Close flushes and closes the WAL; subsequent Ingests fail and Ready
// reports not-ready. Queries keep working from memory.
func (d *DurableCatalog) Close() error {
	if !d.open.CompareAndSwap(true, false) {
		return nil
	}
	return d.log.Close()
}

// ReplHealth reports the replica set's state; ok is false on a
// one-replica catalog, whose health ingest outcomes alone decide. That
// case returns without touching the log: the router reads health on
// every query, and the log's lock is held across each append's fsync.
func (d *DurableCatalog) ReplHealth() (h wal.ReplHealth, ok bool) {
	if d.opts.Replicas <= 1 {
		return wal.ReplHealth{}, false
	}
	return d.log.Health(), true
}
