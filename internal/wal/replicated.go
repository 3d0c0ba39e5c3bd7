// Replicated write-ahead logging: a ReplicatedLog fans every Append out
// to N replica log directories and acknowledges only at quorum, so a
// single-disk fault no longer makes a shard unwritable (or, after a
// crash, unrecoverable). Each replica is an ordinary Log — same CRC
// framing, same torn-tail cut machinery — which keeps every replica
// directory independently openable and auditable with existing tooling.
// A set of one directory is how an unreplicated shard logs: quorum 1,
// the same fault, rewind and catch-up path as a larger set.
//
// # Replica states
//
// A replica is live (caught up; participates in quorum), lagging
// (missed appends; catch-up re-appends them from the primary's log
// however far behind it is), or failed (unopenable, un-rewindable, or
// behind the primary's snapshot; only a snapshot or a reopen revives
// it). An append fault rewinds the replica's log back to its last
// acknowledged watermark — the faulted tail's durability is unknown, so
// catch-up must extend a known-good prefix — and demotes it to lagging.
//
// # Reopen repair
//
// OpenReplicated opens every replica, adopts the one with the highest
// recovered sequence as authoritative, and reconciles the rest: replicas
// whose missing suffix lies within the authoritative log are caught up
// by plain appends; replicas with divergent overlapping payloads or gaps
// reaching into the authoritative snapshot are rebuilt wholesale from
// it. The authoritative replica's recovered state is what the caller
// replays, so an acknowledged record (quorum-durable by definition)
// survives the loss of any minority of replicas.
package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"domd/internal/faultinject"
	"domd/internal/obs"
)

// FailReplicaAppend is the failpoint site prefix for per-replica append
// faults; the full site name is directory-scoped via ReplicaFailpoint so
// chaos suites can kill one replica of one shard.
const FailReplicaAppend = "wal.replica.append"

// ReplicaFailpoint returns the failpoint site name for appends to the
// replica rooted at dir: "wal.replica.append:<dir>".
func ReplicaFailpoint(dir string) string {
	return FailReplicaAppend + ":" + dir
}

// ReplState is a replica's position in the live → lagging → failed
// ladder.
type ReplState int

const (
	// ReplLive means the replica is caught up and participates in quorum.
	ReplLive ReplState = iota
	// ReplLagging means the replica missed appends; catch-up is
	// converging it back to live from the primary's log.
	ReplLagging
	// ReplFailed means the replica is beyond catch-up (unopenable,
	// un-rewindable, or missing records the primary's log no longer
	// holds); a snapshot or reopen revives it.
	ReplFailed
)

// String names the state for logs and status rows.
func (s ReplState) String() string {
	switch s {
	case ReplLive:
		return "live"
	case ReplLagging:
		return "lagging"
	case ReplFailed:
		return "failed"
	default:
		return fmt.Sprintf("ReplState(%d)", int(s))
	}
}

// ReplicatedOptions tune a ReplicatedLog.
type ReplicatedOptions struct {
	// Quorum is the number of replica acks required before Append
	// acknowledges; 0 means majority (n/2+1).
	Quorum int
	// Name labels this replica set's lag gauge; defaults to the first
	// replica directory.
	Name string
	// Log tunes each underlying replica Log (sync policy etc).
	Log Options
}

// replica is one member of the set. Its state and watermark fields are
// protected by the owning ReplicatedLog's mutex.
type replica struct {
	dir       string
	failpoint string    // ReplicaFailpoint(dir), built once
	log       *Log      // nil when the directory failed to open
	state     ReplState // position in the live/lagging/failed ladder
	watermark uint64    // last sequence durably acknowledged by this replica
}

// ReplicaStatus is one replica's row in a Status report.
type ReplicaStatus struct {
	// Dir is the replica's log directory.
	Dir string
	// State is the replica's current health state.
	State ReplState
	// Watermark is the last sequence the replica durably acknowledged.
	Watermark uint64
	// Primary marks the acting primary replica.
	Primary bool
}

// ReplicatedLog fans appends out to a set of replica Logs and
// acknowledges at quorum. All methods are safe for concurrent use.
type ReplicatedLog struct {
	quorum int

	mu       sync.Mutex // guards replicas, primary, seq, closed
	replicas []*replica
	primary  int    // index of the acting primary replica
	seq      uint64 // last sequence any replica acknowledged
	closed   bool

	kick       chan struct{} // nudges the catch-up worker; closed on Close
	workerDone chan struct{}
	lagGauge   *obs.Gauge
}

// ReplRepair reports what OpenReplicated did to one replica.
type ReplRepair struct {
	// Dir is the replica's log directory.
	Dir string
	// CaughtUp is the number of records re-appended from the
	// authoritative replica's recovered tail.
	CaughtUp int
	// Rebuilt is true when the replica was reset and rebuilt wholesale
	// from the authoritative snapshot (divergent or gapped tail).
	Rebuilt bool
	// Failed is true when the replica could not be opened or repaired.
	Failed bool
	// Info is the replica's own raw recovery report.
	Info RecoveryInfo
}

// ReplRecovery reports how OpenReplicated reconciled the set.
type ReplRecovery struct {
	// Authoritative is the index (into the dirs argument) of the replica
	// whose recovered state was adopted.
	Authoritative int
	// Replicas has one repair report per directory, in argument order.
	Replicas []ReplRepair
}

// errReplicaDown marks replicas skipped during fan-out because they were
// not live.
var errReplicaDown = errors.New("wal: replica not live")

// ErrQuorumLost is wrapped by Append errors when fewer than quorum
// replicas acknowledged; the record must not be acknowledged upstream.
var ErrQuorumLost = errors.New("wal: quorum not reached")

// OpenReplicated opens a replica set over dirs (dirs[0] is the initial
// primary), repairs divergent tails against the most-caught-up replica,
// and returns the authoritative recovered state for the caller to
// replay. Individual replica failures (unopenable directories,
// unrepairable tails) are reported in ReplRecovery, not returned as
// errors; only a set with no openable replica at all fails.
func OpenReplicated(dirs []string, opts ReplicatedOptions) (*ReplicatedLog, *Recovered, *ReplRecovery, error) {
	n := len(dirs)
	if n < 1 {
		return nil, nil, nil, fmt.Errorf("wal: replicated open: no replica directories")
	}
	if opts.Quorum == 0 {
		opts.Quorum = n/2 + 1
	}
	if opts.Quorum < 1 || opts.Quorum > n {
		return nil, nil, nil, fmt.Errorf("wal: replicated open: quorum %d out of range [1,%d]", opts.Quorum, n)
	}
	if opts.Name == "" {
		opts.Name = dirs[0]
	}

	repair := &ReplRecovery{Replicas: make([]ReplRepair, n)}
	logs := make([]*Log, n)
	recs := make([]*Recovered, n)
	var openErrs []error
	for i, dir := range dirs {
		repair.Replicas[i].Dir = dir
		log, rec, err := Open(dir, opts.Log)
		if err != nil {
			repair.Replicas[i].Failed = true
			openErrs = append(openErrs, err)
			continue
		}
		logs[i], recs[i] = log, rec
		repair.Replicas[i].Info = rec.Info
	}

	auth := -1
	for i, log := range logs {
		if log == nil {
			continue
		}
		if auth < 0 || log.Seq() > logs[auth].Seq() {
			auth = i
		}
	}
	if auth < 0 {
		return nil, nil, nil, fmt.Errorf("wal: replicated open: no replica in %v is openable: %w", dirs, errors.Join(openErrs...))
	}
	repair.Authoritative = auth
	authLog, authRec := logs[auth], recs[auth]
	authSeq := authLog.Seq()
	authSnapSeq := authRec.Info.SnapshotSeq

	// The authoritative log's own bookkeeping must be self-consistent:
	// its recovered entries are contiguous from the snapshot, so seq ==
	// snapshot seq + entry count. A mismatch means a non-contiguous
	// history we cannot use as a repair source.
	if authSeq != authSnapSeq+uint64(len(authRec.Entries)) {
		return nil, nil, nil, fmt.Errorf(
			"wal: replicated open: authoritative replica %s is inconsistent (seq %d, snapshot %d, %d entries)",
			dirs[auth], authSeq, authSnapSeq, len(authRec.Entries))
	}

	for i := range dirs {
		if i == auth || logs[i] == nil {
			continue
		}
		if err := repairReplica(logs[i], recs[i], authLog, authRec, &repair.Replicas[i]); err != nil {
			repair.Replicas[i].Failed = true
		}
	}

	rl := &ReplicatedLog{
		quorum:     opts.Quorum,
		replicas:   make([]*replica, n),
		primary:    auth,
		seq:        authSeq,
		kick:       make(chan struct{}, 1),
		workerDone: make(chan struct{}),
		lagGauge:   mReplLag.With(opts.Name),
	}
	for i, dir := range dirs {
		r := &replica{dir: dir, failpoint: ReplicaFailpoint(dir), log: logs[i], watermark: authSeq}
		if logs[i] == nil || repair.Replicas[i].Failed {
			r.state = ReplFailed
			r.watermark = 0
		}
		rl.replicas[i] = r
	}
	if rl.replicas[auth].state != ReplLive {
		// Cannot happen (auth opened and is never repaired), but keep the
		// invariant explicit: the primary must be live.
		rl.replicas[auth].state = ReplLive
	}
	go rl.catchupWorker()
	return rl, authRec, repair, nil
}

// repairReplica reconciles one behind-or-divergent replica against the
// authoritative log, either by appending the missing suffix or by
// rebuilding it wholesale from the authoritative snapshot.
func repairReplica(log *Log, rec *Recovered, authLog *Log, authRec *Recovered, rep *ReplRepair) error {
	authSeq := authLog.Seq()
	authSnapSeq := authRec.Info.SnapshotSeq
	seq := log.Seq()
	snapSeq := rec.Info.SnapshotSeq

	// Incremental catch-up is possible only when the replica's history is
	// self-consistent, does not run past the authoritative sequence, and
	// its gap does not reach into the authoritative snapshot (whose
	// individual records are gone). Otherwise rebuild wholesale.
	rebuild := seq != snapSeq+uint64(len(rec.Entries)) || seq > authSeq || seq < authSnapSeq
	if !rebuild {
		// Compare the overlap the two recovered tails share: any payload
		// mismatch at the same sequence is divergence (e.g. this replica
		// holds a write the rest of the set never acknowledged).
		for s := max(snapSeq, authSnapSeq) + 1; s <= seq; s++ {
			if string(rec.Entries[s-snapSeq-1]) != string(authRec.Entries[s-authSnapSeq-1]) {
				rebuild = true
				break
			}
		}
	}

	if rebuild {
		rep.Rebuilt = true
		if authRec.Snapshot != nil || authSnapSeq > 0 {
			if err := log.SnapshotAt(authRec.Snapshot, authSnapSeq); err != nil {
				return err
			}
		} else if err := log.Reset(); err != nil {
			return err
		}
		seq = authSnapSeq
	}
	n, err := appendRecords(log, authRec.Entries[seq-authSnapSeq:])
	rep.CaughtUp += n
	return err
}

// appendRecords appends payloads to log in order and returns how many
// landed before the first error. It is the one loop that re-feeds a
// replica, both in reopen repair and in live catch-up.
func appendRecords(log *Log, payloads [][]byte) (int, error) {
	for i, p := range payloads {
		if _, err := log.Append(p); err != nil {
			return i, err
		}
	}
	return len(payloads), nil
}

// Append fans payload out to every live replica and acknowledges once
// quorum replicas have it durably (per the sync policy). On a quorum
// failure the error wraps ErrQuorumLost and the caller must not
// acknowledge — though a minority of replicas may hold the record, so
// replay-side dedup keeps delivery exactly-once. A fault on one replica
// demotes it (live → lagging → failed) without failing the append, and
// a fault on the acting primary promotes the most-caught-up live
// replica.
func (l *ReplicatedLog) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.liveCount() < l.quorum {
		// Not enough live replicas to possibly ack: try to revive
		// laggards inline before fanning out, so a transient full outage
		// self-heals on the next append after the fault clears.
		l.catchupLocked()
	}

	seq := l.seq + 1
	acks := 0
	errs := make([]error, len(l.replicas))
	for i, r := range l.replicas {
		if r.state != ReplLive {
			errs[i] = errReplicaDown
			continue
		}
		err := faultinject.Fire(r.failpoint)
		if err == nil {
			_, err = r.log.Append(payload)
		}
		errs[i] = err
		if err == nil {
			acks++
		}
	}

	for i, r := range l.replicas {
		if errs[i] == nil {
			r.watermark = seq
			continue
		}
		if errors.Is(errs[i], errReplicaDown) {
			continue
		}
		// The faulted tail's durability is unknown: rewind to the last
		// acknowledged watermark so catch-up extends a known-good prefix.
		mReplReplicaFaults.Inc()
		if rerr := r.log.Rewind(r.watermark); rerr != nil {
			r.state = ReplFailed
			continue
		}
		r.state = ReplLagging
	}

	if acks == 0 {
		// No replica consumed the sequence; the set's sequence does not
		// advance and the record does not exist anywhere.
		mReplQuorumFailures.Inc()
		l.updateLagLocked()
		return 0, fmt.Errorf("wal: append: 0/%d replicas acked (need %d): %w: %w",
			len(l.replicas), l.quorum, ErrQuorumLost, firstFault(errs))
	}

	l.seq = seq

	if l.replicas[l.primary].state != ReplLive {
		l.promoteLocked()
	}
	if l.anyLagging() {
		l.kickLocked()
	}
	l.updateLagLocked()

	if acks < l.quorum {
		mReplQuorumFailures.Inc()
		return 0, fmt.Errorf("wal: append: %d/%d replicas acked (need %d): %w: %w",
			acks, len(l.replicas), l.quorum, ErrQuorumLost, firstFault(errs))
	}
	return seq, nil
}

// firstFault returns the first real (non-skip) error in errs, for
// wrapping into a quorum failure; falls back to the first error.
func firstFault(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, errReplicaDown) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// liveCount counts live replicas. Callers hold l.mu.
func (l *ReplicatedLog) liveCount() int {
	n := 0
	for _, r := range l.replicas {
		if r.state == ReplLive {
			n++
		}
	}
	return n
}

// anyLagging reports whether any replica is lagging. Callers hold l.mu.
func (l *ReplicatedLog) anyLagging() bool {
	for _, r := range l.replicas {
		if r.state == ReplLagging {
			return true
		}
	}
	return false
}

// promoteLocked moves the primary role to the most-caught-up live
// replica. Callers hold l.mu.
func (l *ReplicatedLog) promoteLocked() {
	best := -1
	for i, r := range l.replicas {
		if r.state != ReplLive {
			continue
		}
		if best < 0 || r.watermark > l.replicas[best].watermark {
			best = i
		}
	}
	if best >= 0 && best != l.primary {
		l.primary = best
		mReplFailovers.Inc()
	}
}

// kickLocked nudges the catch-up worker without blocking. Callers hold
// l.mu.
func (l *ReplicatedLog) kickLocked() {
	if l.closed {
		return
	}
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// catchupWorker drains kick signals, converging lagging replicas in the
// background so the append path never pays for catch-up I/O.
func (l *ReplicatedLog) catchupWorker() {
	defer close(l.workerDone)
	for range l.kick {
		l.mu.Lock()
		l.catchupLocked()
		l.mu.Unlock()
	}
}

// catchupLocked converges every lagging replica. One whose watermark is
// the set's sequence lost nothing and goes live without touching a disk
// (the fault path of a one-replica set); the others are re-fed the
// records they lack from the primary's log by feedLocked. Callers hold
// l.mu.
func (l *ReplicatedLog) catchupLocked() {
	for _, r := range l.replicas {
		if r.state != ReplLagging || l.closed {
			continue
		}
		if r.watermark < l.seq {
			l.feedLocked(r)
		}
		if r.state == ReplLagging && r.watermark == l.seq {
			r.state = ReplLive
		}
	}
	l.updateLagLocked()
}

// feedLocked appends to lagging replica r the records after its
// watermark, read from the primary's log. A fault rewinds r and leaves
// it lagging for the next kick; a rewind failure fails it, and so does a
// primary log that no longer holds every record r lacks (they were
// folded into a snapshot, which only a snapshot or reopen repair can
// hand over). Callers hold l.mu.
func (l *ReplicatedLog) feedLocked(r *replica) {
	need := l.seq - r.watermark
	err := faultinject.Fire(r.failpoint)
	if err == nil {
		var missing [][]byte
		missing, err = l.replicas[l.primary].log.RecordsAfter(r.watermark)
		if err != nil || uint64(len(missing)) < need {
			r.state = ReplFailed
			return
		}
		var n int
		n, err = appendRecords(r.log, missing[:need])
		r.watermark += uint64(n)
		mReplCatchupRecords.Add(int64(n))
	}
	if err != nil {
		mReplReplicaFaults.Inc()
		if rerr := r.log.Rewind(r.watermark); rerr != nil {
			r.state = ReplFailed
		}
	}
}

// updateLagLocked refreshes the per-set lag gauge. Callers hold l.mu.
func (l *ReplicatedLog) updateLagLocked() {
	l.lagGauge.Set(int64(l.lagLocked()))
}

// lagLocked returns the records the most-behind non-failed replica is
// missing. Callers hold l.mu.
func (l *ReplicatedLog) lagLocked() uint64 {
	var lag uint64
	for _, r := range l.replicas {
		if r.state == ReplFailed {
			continue
		}
		if d := l.seq - r.watermark; d > lag {
			lag = d
		}
	}
	return lag
}

// Snapshot atomically replaces every replica's snapshot with payload
// (which must fold in every record up to the current sequence) and
// truncates their logs. Lagging and failed replicas are revived
// wholesale via SnapshotAt — the snapshot subsumes everything they
// missed — so compaction doubles as the recovery path for replicas
// catch-up cannot feed. An error is returned when fewer than quorum
// replicas completed, but every replica that did complete is compacted.
func (l *ReplicatedLog) Snapshot(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	acks := 0
	errs := make([]error, len(l.replicas))
	for i, r := range l.replicas {
		if r.log == nil {
			errs[i] = errReplicaDown
			continue
		}
		var err error
		if r.state == ReplLive && r.watermark == l.seq {
			err = r.log.Snapshot(payload)
		} else {
			err = r.log.SnapshotAt(payload, l.seq)
		}
		errs[i] = err
		if err == nil {
			acks++
		}
	}
	for i, r := range l.replicas {
		if r.log == nil {
			continue
		}
		if errs[i] == nil {
			r.state = ReplLive
			r.watermark = l.seq
			continue
		}
		mReplReplicaFaults.Inc()
		// A caught-up replica still holds every record in its log (the
		// snapshot is made durable before the log is touched), so it
		// stays live; if the fault broke its log, the next append faults
		// and rewinds it. A replica this snapshot was to revive is
		// failed: the primary's log no longer holds what it lacks.
		if r.state != ReplLive || r.watermark != l.seq {
			r.state = ReplFailed
		}
	}
	if l.replicas[l.primary].state != ReplLive {
		l.promoteLocked()
	}
	l.updateLagLocked()
	if acks < l.quorum {
		return fmt.Errorf("wal: snapshot: %d/%d replicas compacted (need %d): %w: %w",
			acks, len(l.replicas), l.quorum, ErrQuorumLost, firstFault(errs))
	}
	return nil
}

// Seq returns the last acknowledged sequence number.
func (l *ReplicatedLog) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Status reports every replica's state, watermark, and primary role, in
// directory order.
func (l *ReplicatedLog) Status() []ReplicaStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ReplicaStatus, len(l.replicas))
	for i, r := range l.replicas {
		out[i] = ReplicaStatus{
			Dir:       r.dir,
			State:     r.state,
			Watermark: r.watermark,
			Primary:   i == l.primary,
		}
	}
	return out
}

// Lag returns the records the most-behind non-failed replica is missing;
// 0 means every participating replica is caught up.
func (l *ReplicatedLog) Lag() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lagLocked()
}

// QuorumLive reports whether enough replicas are live to acknowledge an
// append right now.
func (l *ReplicatedLog) QuorumLive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.liveCount() >= l.quorum
}

// Close stops the catch-up worker and closes every replica log. Further
// operations return ErrClosed.
func (l *ReplicatedLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	l.closed = true
	l.mu.Unlock()
	close(l.kick)
	<-l.workerDone

	l.mu.Lock()
	defer l.mu.Unlock()
	var errs []error
	for _, r := range l.replicas {
		if r.log == nil {
			continue
		}
		if err := r.log.Close(); err != nil && !errors.Is(err, ErrClosed) {
			errs = append(errs, fmt.Errorf("%s: %w", r.dir, err))
		}
	}
	return errors.Join(errs...)
}

// ReplicaDirs lays out n replica directories under root: root/replica-00
// .. root/replica-NN. It is the canonical on-disk layout for a
// replicated durability domain.
func ReplicaDirs(root string, n int) []string {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("replica-%02d", i))
	}
	return dirs
}
