// Package wal implements the write-ahead log that makes RCC ingestion
// durable: an append-only, CRC-framed, line-oriented log plus an
// atomically replaced snapshot, so a serving process can acknowledge an
// ingested record only after it is on disk and can rebuild its state
// after a crash by loading the snapshot and replaying the log suffix.
// The durable catalog appends through a ReplicatedLog over one replica
// directory or several; each replica is a Log.
//
// # On-disk format
//
// The log (wal.log) is a sequence of newline-terminated records:
//
//	<crc32c hex8> <seq decimal> <payload>\n
//
// where payload is an opaque single-line blob (statusq writes packed,
// base64-wrapped records) and the CRC covers "<seq> <payload>". The
// snapshot (snapshot.wal) is a single record in the same framing whose
// seq is the last log sequence the snapshot folds in; it is written to a
// temp file, fsynced, and renamed into place, so a crash never leaves a
// half-written snapshot visible. Replay loads the snapshot (if any),
// then applies log records with seq greater than the snapshot's.
//
// # Torn tails
//
// A crash mid-append can leave a torn final record: a line without a
// trailing newline, with a short frame, or with a CRC mismatch. Open
// recovers the longest valid prefix, physically truncates the file back
// to it, and reports the cut (offset and bytes dropped) in RecoveryInfo
// rather than failing — losing an unacknowledged suffix is the contract;
// refusing to start is not. A corrupt snapshot, by contrast, is a real
// error: its write was atomic, so damage there is not a crash artifact.
//
// # Durability
//
// SyncAlways fsyncs after every append — an Append that returned nil is
// on disk and may be acknowledged. SyncNever leaves flushing to the OS.
// Snapshots are always fsynced regardless of policy.
package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"domd/internal/faultinject"
	"domd/internal/obs"
)

// Failpoint site names threaded through the hot path (see package
// faultinject). Production behavior is identical when disarmed.
const (
	// FailAppendWrite fires before an append's write syscall.
	FailAppendWrite = "wal.append.write"
	// FailAppendSync fires before an append's fsync.
	FailAppendSync = "wal.append.sync"
	// FailSnapshotWrite fires before a snapshot's temp-file write.
	FailSnapshotWrite = "wal.snapshot.write"
)

const (
	logName  = "wal.log"
	snapName = "snapshot.wal"
)

// castagnoli is the CRC-32C table; Castagnoli detects short bursts
// better than IEEE and is hardware-accelerated on common platforms.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when Append fsyncs the log file.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every append: a nil Append error means the
	// record is durable. This is the only policy under which an
	// acknowledgment survives power loss.
	SyncAlways SyncPolicy = iota
	// SyncNever never fsyncs appends; the OS flushes when it pleases.
	SyncNever
)

// String names the policy for logs and flags.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the flag forms "always" and "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always or never)", s)
}

// Options tune a Log.
type Options struct {
	// Policy selects the fsync cadence; the zero value is SyncAlways.
	Policy SyncPolicy
}

// RecoveryInfo reports what Open reconstructed.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence folded into the loaded snapshot
	// (0 when no snapshot existed).
	SnapshotSeq uint64
	// Records is the number of log records replayed past the snapshot.
	Records int
	// TornTail is true when the log ended in a torn or corrupt record
	// that Open cut off.
	TornTail bool
	// TornOffset is the byte offset the log was truncated back to, and
	// TornBytes the number of bytes discarded, when TornTail is set.
	TornOffset int64
	TornBytes  int64
}

// Recovered is the state Open reconstructed: the snapshot payload (nil
// when none) and the replayable log payloads after it, oldest first.
type Recovered struct {
	Snapshot []byte
	Entries  [][]byte
	Info     RecoveryInfo
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Log is an open write-ahead log rooted at one directory. All methods
// are safe for concurrent use; appends are serialized, so log order is
// acknowledgment order.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex // guards f, seq, snapSeq, and closed
	f       *os.File
	seq     uint64 // last sequence appended (or recovered)
	snapSeq uint64 // sequence the snapshot folds in; the log holds only later records
	closed  bool
}

// Open opens (creating if absent) the log in dir and replays existing
// state: snapshot first, then every intact log record past it. A torn
// or corrupt log tail is cut off and reported via Recovered.Info, not
// returned as an error. The caller owns applying Recovered before
// appending new records.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	rec := &Recovered{}

	snap, snapSeq, err := readSnapshot(filepath.Join(dir, snapName))
	if err != nil {
		return nil, nil, err
	}
	rec.Snapshot = snap
	rec.Info.SnapshotSeq = snapSeq

	logPath := filepath.Join(dir, logName)
	lastSeq, err := replayLog(logPath, snapSeq, rec)
	if err != nil {
		return nil, nil, err
	}
	if lastSeq < snapSeq {
		lastSeq = snapSeq
	}

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	return &Log{dir: dir, opts: opts, f: f, seq: lastSeq, snapSeq: snapSeq}, rec, nil
}

// frame renders one record line; the CRC covers everything after it.
func frame(seq uint64, payload []byte) ([]byte, error) {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, fmt.Errorf("wal: payload contains a newline (records are line-framed)")
	}
	body := strconv.AppendUint(nil, seq, 10)
	body = append(body, ' ')
	body = append(body, payload...)
	line := make([]byte, 0, 9+len(body)+1)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(body, castagnoli))
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// parseFrame decodes one line (without its trailing newline) back into
// (seq, payload), verifying the CRC.
func parseFrame(line []byte) (uint64, []byte, error) {
	if len(line) < 11 { // 8 crc + space + >=1 seq digit + space
		return 0, nil, fmt.Errorf("wal: short record frame (%d bytes)", len(line))
	}
	if line[8] != ' ' {
		return 0, nil, fmt.Errorf("wal: malformed record frame")
	}
	crcWant, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: bad CRC field: %w", err)
	}
	body := line[9:]
	if crc32.Checksum(body, castagnoli) != uint32(crcWant) {
		return 0, nil, fmt.Errorf("wal: CRC mismatch")
	}
	sp := bytes.IndexByte(body, ' ')
	if sp < 0 {
		return 0, nil, fmt.Errorf("wal: record missing sequence field")
	}
	seq, err := strconv.ParseUint(string(body[:sp]), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: bad sequence field: %w", err)
	}
	return seq, body[sp+1:], nil
}

// replayLog scans the log, appending payloads with seq > snapSeq to rec
// and truncating a torn tail in place. It returns the last valid seq.
func replayLog(path string, snapSeq uint64, rec *Recovered) (uint64, error) {
	var last uint64
	end, torn, err := scanLog(path, func(seq uint64, payload []byte) bool {
		last = seq
		if seq > snapSeq {
			rec.Entries = append(rec.Entries, payload)
			rec.Info.Records++
		}
		return true
	})
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: replay: %w", err)
	}
	if torn {
		// Any bytes after the valid prefix are unacknowledged crash
		// debris by the append-before-ack contract.
		cut(path, end, rec)
	}
	return last, nil
}

// scanLog is the one reader of the log's framing. It reads the log at
// path oldest first and calls fn with each intact record's sequence and
// payload (the caller's to keep). The scan ends at the end of the file,
// at the first torn frame (no trailing newline) or corrupt one, or at
// the first record fn returns false for. It returns the byte offset
// just past the last record fn accepted, and whether a torn or corrupt
// frame ended the scan. It never modifies the file.
func scanLog(path string, fn func(seq uint64, payload []byte) bool) (end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close() //lint:ignore droppederr read-only scan; nothing to lose on close
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return end, len(line) > 0, nil
		}
		if err != nil {
			return 0, false, err
		}
		seq, payload, perr := parseFrame(line[:len(line)-1])
		if perr != nil {
			return end, true, nil
		}
		if !fn(seq, payload) {
			return end, false, nil
		}
		end += int64(len(line))
	}
}

// cut records a torn tail and physically truncates the log back to the
// last intact record so future appends extend a clean file. Truncation
// failure is deliberately non-fatal: replay already holds the valid
// prefix, and the next Open will re-cut. A truncation that did happen is
// made durable — the file's new size is fsynced and then the parent
// directory, mirroring the snapshot temp+rename dir-fsync discipline —
// so a crash *during recovery* cannot resurrect the damaged suffix.
func cut(path string, offset int64, rec *Recovered) {
	rec.Info.TornTail = true
	rec.Info.TornOffset = offset
	if fi, err := os.Stat(path); err == nil {
		rec.Info.TornBytes = fi.Size() - offset
	}
	mTornTailCuts.Inc()
	if err := os.Truncate(path, offset); err != nil {
		return // best-effort cleanup; next Open re-cuts at the same boundary
	}
	if f, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
		f.Sync()  //lint:ignore droppederr best-effort durability of the cut; next Open re-cuts if it was lost
		f.Close() //lint:ignore droppederr read-side handle; nothing to lose on close
	}
	syncDir(filepath.Dir(path)) //lint:ignore droppederr best-effort durability of the cut; next Open re-cuts if it was lost
}

// readSnapshot loads and verifies the snapshot file. A missing snapshot
// is (nil, 0, nil); a corrupt one is an error, because snapshots are
// written atomically and damage implies real corruption.
func readSnapshot(path string) ([]byte, uint64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: read snapshot: %w", err)
	}
	line := bytes.TrimSuffix(b, []byte("\n"))
	seq, payload, err := parseFrame(line)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: snapshot %s is corrupt (%v); refusing to guess at durable state", path, err)
	}
	return payload, seq, nil
}

// Append writes one record and, per the sync policy, fsyncs it. When
// Append returns nil under SyncAlways the record is durable; callers
// must not acknowledge ingestion before then. On error nothing may be
// assumed about the record and the caller must not acknowledge.
func (l *Log) Append(payload []byte) (seq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	line, err := frame(l.seq+1, payload)
	if err != nil {
		return 0, err
	}
	if err := faultinject.Fire(FailAppendWrite); err != nil {
		mAppendFailures.Inc()
		return 0, fmt.Errorf("wal: append write: %w", err)
	}
	if _, err := l.f.Write(line); err != nil {
		mAppendFailures.Inc()
		return 0, fmt.Errorf("wal: append write: %w", err)
	}
	l.seq++
	if l.opts.Policy == SyncAlways {
		if err := faultinject.Fire(FailAppendSync); err != nil {
			// The write reached the file but its durability is unknown;
			// the caller must refuse to acknowledge. Replay will surface
			// the record iff the OS got it down.
			mAppendFailures.Inc()
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		sw := obs.StartTimer()
		if err := datasync(l.f); err != nil {
			mAppendFailures.Inc()
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
		mSyncs.Inc()
		mSyncSeconds.ObserveSince(sw)
	}
	mAppends.Inc()
	return l.seq, nil
}

// Seq returns the last appended (or recovered) sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Snapshot atomically replaces the snapshot with payload, which must
// fold in every record up to and including the current sequence, then
// truncates the log — compaction. The snapshot is durable (written to a
// temp file, fsynced, renamed, directory fsynced) before the log is
// touched; a crash between the two steps merely leaves log records the
// next replay skips by sequence number.
func (l *Log) Snapshot(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(payload, l.seq)
}

// SnapshotAt atomically replaces the snapshot with payload framed at the
// explicit sequence seq and truncates the log, leaving the log positioned
// so the next Append is seq+1. It is the wholesale-revival primitive for
// replication: a lagging or diverged replica adopts the authoritative
// snapshot in one atomic step regardless of its own tail. Callers own the
// claim that payload folds in every record up to and including seq.
func (l *Log) SnapshotAt(payload []byte, seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(payload, seq)
}

// snapshotLocked writes a snapshot framed at seq and truncates the log.
// Callers hold l.mu.
func (l *Log) snapshotLocked(payload []byte, seq uint64) (err error) {
	defer func() {
		if err != nil {
			mCompactionFailures.Inc()
		}
	}()
	if l.closed {
		return ErrClosed
	}
	line, err := frame(seq, payload)
	if err != nil {
		return err
	}
	if err := faultinject.Fire(FailSnapshotWrite); err != nil {
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(l.dir, snapName), line); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// Snapshot is durable: drop the folded-in log records. Reopen with
	// O_TRUNC rather than truncating the shared descriptor so the append
	// offset resets consistently.
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(l.dir, logName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	l.f = f
	l.seq = seq
	l.snapSeq = seq
	mCompactions.Inc()
	return nil
}

// Rewind truncates the log so its last record is sequence `to`, discarding
// any later records, and repositions the next Append at to+1. It exists
// for replication: after a failed replica append the tail's durability is
// unknown, so the replica is rewound to its last acknowledged watermark
// before catch-up extends a known-good prefix. Rewinding to the current
// sequence still truncates: a short write leaves part of a frame after
// record `to` without advancing the sequence, and the next append must
// not land behind it. Rewinding past the start of the log (into
// snapshot-covered territory) or forward past the current sequence is an
// error.
func (l *Log) Rewind(to uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if to > l.seq {
		return fmt.Errorf("wal: rewind forward (have seq %d, want %d)", l.seq, to)
	}
	if to < l.snapSeq {
		return fmt.Errorf("wal: rewind: log starts after the snapshot at seq %d, cannot rewind to %d", l.snapSeq, to)
	}
	path := filepath.Join(l.dir, logName)
	// The cut goes just past record `to`; a torn or corrupt tail after
	// it is debris the truncate drops too.
	offset, _, err := scanLog(path, func(seq uint64, _ []byte) bool { return seq <= to })
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: rewind: log file missing")
	}
	if err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	if err := os.Truncate(path, offset); err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:ignore droppederr best-effort close on an already-failing path
		return fmt.Errorf("wal: rewind: %w", err)
	}
	l.f = f
	l.seq = to
	return nil
}

// RecordsAfter returns the payloads of the records sequenced after
// `after`, oldest first, read from the log file on disk. It is
// read-only: a torn or corrupt tail ends the read and stays in place for
// the next Open to cut. Records at or before the snapshot's sequence are
// gone from the log, so an `after` below it is an error. Replication
// reads a lagging replica's missing records this way from the primary.
func (l *Log) RecordsAfter(after uint64) ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if after < l.snapSeq {
		return nil, fmt.Errorf("wal: read: records after %d are folded into the snapshot at seq %d", after, l.snapSeq)
	}
	var out [][]byte
	_, _, err := scanLog(filepath.Join(l.dir, logName), func(seq uint64, payload []byte) bool {
		if seq > after {
			out = append(out, payload)
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	return out, nil
}

// Reset discards the snapshot and every log record, returning the log to
// the empty state with sequence 0. It is the last-resort replica rebuild
// path when the authoritative replica has no snapshot to adopt.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := os.Remove(filepath.Join(l.dir, snapName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(l.dir, logName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close() //lint:ignore droppederr best-effort close on an already-failing path
		return err
	}
	l.f = f
	l.seq = 0
	l.snapSeq = 0
	return nil
}

// WriteFileAtomic durably replaces path with b: it writes path+".tmp",
// fsyncs it, renames it over path and fsyncs the parent directory, so a
// crash leaves the old file or the new one, never a torn or empty one.
// Snapshots are written this way, and so is any metadata a caller pins
// next to a log.
func WriteFileAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close() //lint:ignore droppederr best-effort close on an already-failing path
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:ignore droppederr best-effort close on an already-failing path
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close() //lint:ignore droppederr best-effort close on an already-failing path
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return d.Close()
}

// Close closes the log; every append it acknowledged under SyncAlways is
// already on disk. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.closed = true
	return l.f.Close()
}
