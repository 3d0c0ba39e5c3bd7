// Replicated write-ahead logging: a ReplicatedLog fans every Append out
// to N replica log directories and acknowledges only at quorum, so a
// single-disk fault no longer makes a shard unwritable (or, after a
// crash, unrecoverable). Each replica is an ordinary Log — same binary
// frames, same torn-tail cut machinery — which keeps every replica
// directory independently openable and auditable with existing tooling.
// The quorum is always a majority (n/2+1), so any two quorums share a
// replica. A set of one directory is how an unreplicated shard logs:
// quorum 1, the same fault, rewind and catch-up path as a larger set.
//
// # Replica states
//
// A replica is live (holds the set's whole sequence; participates in
// quorum), lagging (missed appends; catch-up re-appends them from the
// primary's log however far behind it is, one batch per hold of the
// set's lock, so appends interleave with a long re-feed), or failed
// (unopenable, or its log could neither be rewound nor reset; only a
// reopen revives it). An append fault rewinds the replica's log back to
// the set's sequence — the faulted tail's durability is unknown, so
// catch-up must extend a known-good prefix — and demotes it to lagging.
// An append that misses quorum is undone: every replica that took it is
// rewound the same way, so the set's sequence is its acknowledged
// sequence and a refused record exists nowhere. A replica whose log
// cannot be rewound is reset instead and re-fed the whole history by the
// same catch-up.
//
// # Reopen repair
//
// OpenReplicated opens every replica, adopts the one with the highest
// recovered sequence as authoritative, and reconciles the rest: replicas
// whose missing suffix lies within the authoritative log are caught up
// by plain appends; replicas with divergent overlapping payloads, or
// running past it, are reset and re-fed from it. The authoritative
// replica's recovered state is what the caller replays, so an
// acknowledged record (quorum-durable by definition) survives the loss of
// any minority of replicas.
package wal

import (
	"bytes"
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
	// ReplFailed means the replica is beyond catch-up (unopenable, or
	// its log could neither be rewound nor reset); a reopen revives it.
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

// ReplHealth is one reading of a replica set's health, taken at one
// moment.
type ReplHealth struct {
	// Replicas is the size of the set.
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

// ReplicatedLog fans appends out to a set of replica Logs and
// acknowledges at a majority quorum. All methods are safe for concurrent
// use.
type ReplicatedLog struct {
	quorum int // n/2+1

	mu       sync.Mutex // guards replicas, primary, seq, closed
	replicas []*replica
	primary  int    // index of the acting primary replica
	seq      uint64 // last acknowledged sequence; every live replica holds it
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
	// Rebuilt is true when the replica was reset and re-fed from the
	// authoritative log (divergent tail).
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

	for i := range dirs {
		if i == auth || logs[i] == nil {
			continue
		}
		if err := repairReplica(logs[i], recs[i], authRec, &repair.Replicas[i]); err != nil {
			repair.Replicas[i].Failed = true
		}
	}

	rl := &ReplicatedLog{
		quorum:     n/2 + 1,
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
	go rl.catchupWorker()
	return rl, authRec, repair, nil
}

// repairReplica reconciles one behind-or-divergent replica against the
// authoritative log, either by appending the missing suffix or by
// resetting it and re-feeding the whole authoritative log.
func repairReplica(log *Log, rec, authRec *Recovered, rep *ReplRepair) error {
	// Incremental catch-up is possible only when the replica does not run
	// past the authoritative log and every record the two share is the
	// same: a payload mismatch at the same sequence is divergence (e.g.
	// this replica holds a write the rest of the set never acknowledged).
	seq := len(rec.Entries)
	rebuild := seq > len(authRec.Entries)
	for s := 0; !rebuild && s < seq; s++ {
		rebuild = !bytes.Equal(rec.Entries[s], authRec.Entries[s])
	}
	if rebuild {
		rep.Rebuilt = true
		if err := log.Reset(); err != nil {
			return err
		}
		seq = 0
	}
	n, err := appendRecords(log, authRec.Entries[seq:])
	rep.CaughtUp += n
	return err
}

// appendRecords appends payloads to log in order, catchupBatch records
// per write and fsync, and returns how many landed before the first
// error. It is the one loop that re-feeds a replica, both in reopen
// repair and in live catch-up.
func appendRecords(log *Log, payloads [][]byte) (int, error) {
	for i := 0; i < len(payloads); i += catchupBatch {
		if _, err := log.Append(payloads[i:min(i+catchupBatch, len(payloads))]...); err != nil {
			return i, err
		}
	}
	return len(payloads), nil
}

// Append fans payload out to every live replica and acknowledges once
// a quorum of replicas have it durably (per the sync policy). Below
// quorum the append is undone: every replica that took the record is
// rewound with the faulted ones, the set's sequence does not advance,
// and the error wraps ErrQuorumLost, so the caller must not acknowledge
// and no replica keeps the record. (Only a crash between the fan-out and
// the undo can leave it on a minority; replay-side dedup keeps delivery
// exactly-once.) A fault on one replica demotes it (live → lagging →
// failed), and a fault on the acting primary promotes the first replica
// that holds the set's whole sequence, as every live one does.
func (l *ReplicatedLog) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.liveCount() < l.quorum {
		// Not enough live replicas to possibly ack: try to revive
		// laggards inline before fanning out, so a transient outage
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
		switch {
		case errors.Is(errs[i], errReplicaDown):
			continue
		case errs[i] == nil && acks >= l.quorum:
			r.watermark = seq
			continue
		case errs[i] != nil:
			mReplReplicaFaults.Inc()
			r.state = ReplLagging
		}
		// A faulted tail's durability is unknown, and a record below
		// quorum must not exist: rewind to the set's sequence, which
		// every replica that was live holds, so catch-up extends a
		// known-good prefix. One that cannot be rewound is failed until
		// rebuilt below.
		if err := r.log.Rewind(l.seq); err != nil {
			r.state = ReplFailed
		}
	}
	if acks >= l.quorum {
		l.seq = seq
	}

	if !l.holdsSeqLocked(l.replicas[l.primary]) {
		l.promoteLocked()
	}
	for i, r := range l.replicas {
		if r.state == ReplFailed && !errors.Is(errs[i], errReplicaDown) {
			l.rebuildLocked(r)
		}
	}
	if l.updateLagLocked() > 0 {
		l.kickLocked()
	}

	if acks < l.quorum {
		mReplQuorumFailures.Inc()
		return 0, fmt.Errorf("wal: append: %d/%d replicas acked (need %d), undone: %w: %w",
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

// holdsSeqLocked reports whether r's log holds the set's whole
// sequence: every live replica's does, and so does that of a lagging one
// a fault or an undo left at it. Callers hold l.mu.
func (l *ReplicatedLog) holdsSeqLocked(r *replica) bool {
	return r.state != ReplFailed && r.watermark == l.seq
}

// promoteLocked moves the primary role, which catch-up reads from, off a
// replica that does not hold the set's whole sequence to the first one
// that does. Callers hold l.mu.
func (l *ReplicatedLog) promoteLocked() {
	for i, r := range l.replicas {
		if l.holdsSeqLocked(r) {
			l.primary = i
			mReplFailovers.Inc()
			return
		}
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

// catchupLocked moves every lagging replica one step toward live. One
// whose watermark is the set's sequence lost nothing and goes live
// without touching a disk (a fault or an undo below quorum leaves it
// there); the others are re-fed one batch of the records they lack from
// the primary's log by feedLocked. While a replica still lags after a
// batch that made progress, the worker is kicked again, so a long
// re-feed releases l.mu between batches and appends interleave with it.
// Callers hold l.mu.
func (l *ReplicatedLog) catchupLocked() {
	more := false
	for _, r := range l.replicas {
		if r.state != ReplLagging || l.closed {
			continue
		}
		if r.watermark < l.seq && l.feedLocked(r) && r.watermark < l.seq {
			more = true
		}
		if r.state == ReplLagging && r.watermark == l.seq {
			r.state = ReplLive
		}
	}
	if more {
		l.kickLocked()
	}
	l.updateLagLocked()
}

// catchupBatch bounds the records one catch-up step reads, writes and
// fsyncs at a time, and so how long it holds l.mu: re-feeding a reset
// replica the whole history costs a batch of memory per step, not a copy
// of the log, and one fsync per batch, not per record.
const catchupBatch = 1024

// feedLocked appends to lagging replica r the next batch (at most
// catchupBatch) of the records after its watermark, read from the
// primary's log, and reports whether r made progress. A fault rewinds r
// and leaves it lagging for the next kick; one that cannot be rewound is
// rebuilt, and a primary log that cannot feed r fails it. Callers hold
// l.mu.
func (l *ReplicatedLog) feedLocked(r *replica) bool {
	err := faultinject.Fire(r.failpoint)
	if err == nil {
		var batch [][]byte
		batch, err = l.replicas[l.primary].log.RecordsAfter(r.watermark, catchupBatch)
		if err != nil || len(batch) == 0 {
			r.state = ReplFailed
			return false
		}
		var n int
		n, err = appendRecords(r.log, batch)
		r.watermark += uint64(n)
		mReplCatchupRecords.Add(int64(n))
	}
	if err != nil {
		mReplReplicaFaults.Inc()
		if rerr := r.log.Rewind(r.watermark); rerr != nil {
			l.rebuildLocked(r)
		}
		return false
	}
	return true
}

// rebuildLocked resets replica r and leaves it lagging at sequence 0,
// so catch-up re-feeds it the whole history from the primary's log. It
// fails r instead when the primary is r itself or does not hold every
// acknowledged record (resetting r could then lose acknowledged data),
// or when the reset fails. Callers hold l.mu.
func (l *ReplicatedLog) rebuildLocked(r *replica) {
	p := l.replicas[l.primary]
	r.state = ReplFailed
	if p == r || !l.holdsSeqLocked(p) {
		return
	}
	if err := r.log.Reset(); err == nil {
		r.state, r.watermark = ReplLagging, 0
	}
}

// updateLagLocked refreshes the per-set lag gauge and returns the lag.
// Callers hold l.mu.
func (l *ReplicatedLog) updateLagLocked() uint64 {
	lag := l.lagLocked()
	l.lagGauge.Set(int64(lag))
	return lag
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

// Health reads the set's state counts, lag and quorum check under one
// hold of its lock, so a reading never mixes two moments.
func (l *ReplicatedLog) Health() ReplHealth {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := ReplHealth{Replicas: len(l.replicas), Lag: l.lagLocked()}
	for _, r := range l.replicas {
		switch r.state {
		case ReplLive:
			h.Live++
		case ReplLagging:
			h.Lagging++
		default:
			h.Failed++
		}
	}
	h.QuorumOK = h.Live >= l.quorum
	return h
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
// .. root/replica-NN, the canonical on-disk layout for a replicated
// durability domain; a set of one (n <= 1) is root itself.
func ReplicaDirs(root string, n int) []string {
	if n <= 1 {
		return []string{root}
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("replica-%02d", i))
	}
	return dirs
}
