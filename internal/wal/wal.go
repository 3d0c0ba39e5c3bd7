// Package wal implements the write-ahead log that makes RCC ingestion
// durable: an append-only, CRC-framed, line-oriented log, so a serving
// process can acknowledge an ingested record only after it is on disk and
// can rebuild its state after a crash by replaying the log. Nothing
// ingested is ever deleted, so the log is never rewritten: it is the
// whole ingested history. The durable catalog appends through a
// ReplicatedLog over one replica directory or several; each replica is a
// Log.
//
// # On-disk format
//
// The log (wal.log) is a sequence of newline-terminated records:
//
//	<crc32c hex8> <seq decimal> <payload>\n
//
// where payload is an opaque single-line blob (statusq writes packed,
// base64-wrapped records) and the CRC covers "<seq> <payload>".
// Sequences run 1, 2, 3, ... with no gaps. Replay reads the file in one
// pass and keeps, per record, the offset just past it (8 B), so Rewind
// and RecordsAfter seek straight to a record instead of rescanning.
//
// Roots written by earlier builds may also hold a snapshot
// (snapshot.wal): a single record in the same framing whose seq is the
// last log sequence it folds in; the log then holds only later records.
// Replay loads it first and still opens such roots. Snapshot and
// SnapshotAt write one (temp file, fsync, rename), but only to repair a
// replica of such a root and for the domdbench tracer's probe; nothing
// on the serving path compacts.
//
// # Torn tails
//
// A crash mid-append can leave a torn final record: a line without a
// trailing newline, with a short frame, or with a CRC mismatch. Open
// recovers the longest valid prefix, physically truncates the file back
// to it, and reports the cut (offset and bytes dropped) in RecoveryInfo
// rather than failing — losing an unacknowledged suffix is the contract;
// refusing to start is not. An intact record out of sequence and a
// corrupt snapshot, by contrast, are real errors: no crash leaves either,
// so Open refuses the log rather than cut acknowledged records.
//
// # Durability
//
// SyncAlways fsyncs after every append — an Append that returned nil is
// on disk and may be acknowledged. SyncNever leaves flushing to the OS.
// Snapshots are always fsynced regardless of policy.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
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
	// SnapshotSeq is the sequence folded into a legacy snapshot (0 when
	// the root has none).
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

// Recovered is the state Open reconstructed: the legacy snapshot payload
// (nil when none) and the replayable log payloads after it, oldest first.
// The payloads share one buffer, the log file as read.
type Recovered struct {
	Snapshot []byte
	Entries  [][]byte
	Info     RecoveryInfo
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// errBeforeSnapshot is wrapped by RecordsAfter and Rewind errors when the
// records asked for are folded into a legacy snapshot and gone from the
// log.
var errBeforeSnapshot = errors.New("wal: records folded into the snapshot")

// Log is an open write-ahead log rooted at one directory. All methods
// are safe for concurrent use; appends are serialized, so log order is
// acknowledgment order.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex // guards f, seq, snapSeq, ends, and closed
	f       *os.File
	seq     uint64 // last sequence appended (or recovered)
	snapSeq uint64 // sequence a legacy snapshot folds in; the log holds only later records
	// ends[k] is the offset in wal.log just past record snapSeq+k, so
	// ends[0] is 0 and the log's valid length is ends[seq-snapSeq].
	ends   []int64
	closed bool
}

// Open opens (creating if absent) the log in dir and replays existing
// state: a legacy snapshot first, then every intact log record past it.
// A torn or corrupt log tail is cut off and reported via Recovered.Info,
// not returned as an error. The caller owns applying Recovered before
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
	ends, err := replayLog(logPath, snapSeq, rec)
	if err != nil {
		return nil, nil, err
	}

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	return &Log{dir: dir, opts: opts, f: f, seq: snapSeq + uint64(len(rec.Entries)), snapSeq: snapSeq, ends: ends}, rec, nil
}

// frameCap bounds the length of payload's frame.
func frameCap(payload []byte) int { return 9 + 20 + 1 + len(payload) + 1 }

// appendFrame appends the record line for (seq, payload) to dst; the CRC
// covers everything after it.
func appendFrame(dst []byte, seq uint64, payload []byte) ([]byte, error) {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, fmt.Errorf("wal: payload contains a newline (records are line-framed)")
	}
	start := len(dst)
	dst = append(dst, "00000000 "...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(dst[start+9:], castagnoli))
	hex.Encode(dst[start:], crc[:])
	return append(dst, '\n'), nil
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

// scanFrames is the one reader of the log's framing. It walks the frames
// at the start of b, which holds log bytes beginning at a record
// boundary, and returns the offset just past the last frame it accepts.
// Frames at or below sequence base are accepted and skipped until the
// first later one (records a legacy snapshot already folds in, which a
// crash between its rename and the log's truncation leaves behind);
// after that only the next sequence is accepted, and fn gets each such
// record's payload, a subslice of b, and the offset just past it. The
// walk ends at the end of b or at the first torn (unterminated) or
// corrupt frame. An intact frame out of sequence is an error: no crash
// leaves one, so it is damage, and the records after it are not debris
// to cut.
func scanFrames(b []byte, base uint64, fn func(payload []byte, end int)) (int, error) {
	next, off := base+1, 0
	for {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			return off, nil
		}
		seq, payload, err := parseFrame(b[off : off+nl])
		if err != nil {
			return off, nil
		}
		switch {
		case seq == next:
			next++
			fn(payload, off+nl+1)
		case seq > base || next > base+1:
			return off, fmt.Errorf("wal: intact record at offset %d has sequence %d, want %d", off, seq, next)
		}
		off += nl + 1
	}
}

// replayLog reads the log at path in one pass, appends the payloads of
// the records after snapSeq to rec (subslices of the one buffer read, so
// replay allocates nothing per record), and truncates a torn tail in
// place. It returns the log's offset table (see Log.ends). A log with an
// intact record out of sequence is refused, and left as it is.
func replayLog(path string, snapSeq uint64, rec *Recovered) ([]int64, error) {
	ends := []int64{0}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ends, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: replay: %w", err)
	}
	valid, err := scanFrames(b, snapSeq, func(payload []byte, end int) {
		rec.Entries = append(rec.Entries, payload)
		ends = append(ends, int64(end))
	})
	if err != nil {
		return nil, fmt.Errorf("wal: replay %s: %w; refusing to guess at durable state", path, err)
	}
	rec.Info.Records = len(rec.Entries)
	if valid < len(b) {
		// Any bytes after the valid prefix are unacknowledged crash
		// debris by the append-before-ack contract.
		cut(path, int64(valid), int64(len(b)-valid), rec)
	}
	return ends, nil
}

// cut records a torn tail and physically truncates the log back to the
// last intact record so future appends extend a clean file. Truncation
// failure is deliberately non-fatal: replay already holds the valid
// prefix, and the next Open will re-cut. A truncation that did happen is
// made durable — the file's new size is fsynced and then the parent
// directory, mirroring the snapshot temp+rename dir-fsync discipline —
// so a crash *during recovery* cannot resurrect the damaged suffix.
func cut(path string, offset, dropped int64, rec *Recovered) {
	rec.Info.TornTail = true
	rec.Info.TornOffset = offset
	rec.Info.TornBytes = dropped
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

// Append writes payloads as the next records with one write and, per
// the sync policy, one fsync, and returns the last one's sequence. When
// Append returns nil under SyncAlways the records are durable; callers
// must not acknowledge ingestion before then. On error nothing may be
// assumed about any of them and the caller must not acknowledge.
// Ingestion appends one record at a time; replication re-feeds a
// replica a batch per call.
func (l *Log) Append(payloads ...[]byte) (seq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	size := 0
	for _, p := range payloads {
		size += frameCap(p)
	}
	buf := make([]byte, 0, size)
	n := len(l.ends)
	for i, p := range payloads {
		var err error
		if buf, err = appendFrame(buf, l.seq+uint64(i)+1, p); err != nil {
			l.ends = l.ends[:n]
			return 0, err
		}
		l.ends = append(l.ends, l.ends[n-1]+int64(len(buf)))
	}
	if err := faultinject.Fire(FailAppendWrite); err != nil {
		l.ends = l.ends[:n]
		mAppendFailures.Inc()
		return 0, fmt.Errorf("wal: append write: %w", err)
	}
	if _, err := l.f.Write(buf); err != nil {
		l.ends = l.ends[:n]
		mAppendFailures.Inc()
		return 0, fmt.Errorf("wal: append write: %w", err)
	}
	l.seq += uint64(len(payloads))
	if l.opts.Policy == SyncAlways {
		if err := faultinject.Fire(FailAppendSync); err != nil {
			// The write reached the file but its durability is unknown;
			// the caller must refuse to acknowledge. Replay will surface
			// the records iff the OS got them down.
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
	mAppends.Add(int64(len(payloads)))
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
// truncates the log. Nothing on the serving path calls it: it stays for
// the domdbench tracer's snapshot probe and for tests that build a root
// the way earlier builds compacted it. The snapshot is durable (written
// to a temp file, fsynced, renamed, directory fsynced) before the log is
// touched; a crash between the two steps merely leaves log records the
// next replay skips by sequence number.
func (l *Log) Snapshot(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(payload, l.seq)
}

// SnapshotAt atomically replaces the snapshot with payload framed at the
// explicit sequence seq and truncates the log, leaving the log positioned
// so the next Append is seq+1. Replica repair uses it to hand a replica
// of a root written by earlier builds the authoritative replica's legacy
// snapshot before re-feeding it the log after it. Callers own the claim
// that payload folds in every record up to and including seq.
func (l *Log) SnapshotAt(payload []byte, seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(payload, seq)
}

// snapshotLocked writes a snapshot framed at seq and truncates the log.
// Callers hold l.mu.
func (l *Log) snapshotLocked(payload []byte, seq uint64) error {
	if l.closed {
		return ErrClosed
	}
	line, err := appendFrame(nil, seq, payload)
	if err != nil {
		return err
	}
	if err := faultinject.Fire(FailSnapshotWrite); err != nil {
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(l.dir, snapName), line); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// The snapshot is durable: drop the folded-in log records.
	if err := l.truncateLocked(seq); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	return nil
}

// truncateLocked empties wal.log and positions the log just past seq,
// reopening the file with O_TRUNC. The new descriptor is O_APPEND like
// the one Open makes, so after a later Rewind it still writes at the
// file's end. Callers hold l.mu.
func (l *Log) truncateLocked(seq uint64) error {
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(l.dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.seq, l.snapSeq, l.ends = seq, seq, []int64{0}
	return nil
}

// Rewind truncates the log so its last record is sequence `to`, discarding
// any later records, and repositions the next Append at to+1. It exists
// for replication: after a failed replica append the tail's durability is
// unknown, so the replica is rewound to its last acknowledged watermark
// before catch-up extends a known-good prefix. The cut offset comes from
// the log's offset table, not a scan. Rewinding to the current sequence
// still truncates: a short write leaves part of a frame after record
// `to` without advancing the sequence, and the next append must not land
// behind it. Rewinding past the start of the log (into a legacy
// snapshot) or forward past the current sequence is an error, and so is a
// log file that is gone from the directory.
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
		return fmt.Errorf("wal: rewind to %d: %w at seq %d", to, errBeforeSnapshot, l.snapSeq)
	}
	// Every append descriptor (Open's, truncateLocked's) is O_APPEND, so
	// it keeps writing at the truncated end; truncating by path fails if
	// the file is gone.
	if err := os.Truncate(filepath.Join(l.dir, logName), l.ends[to-l.snapSeq]); err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	l.ends = l.ends[:to-l.snapSeq+1]
	l.seq = to
	return nil
}

// RecordsAfter returns the payloads of at most n records sequenced after
// `after`, oldest first, read from the log file on disk at the offset
// the log's offset table gives for them. It is read-only, and reads
// nothing past the last appended record. Records at or before a legacy
// snapshot's sequence are gone from the log, so an `after` below it
// wraps errBeforeSnapshot. Replication re-feeds a lagging replica's
// missing records this way from the primary.
func (l *Log) RecordsAfter(after uint64, n int) ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if after < l.snapSeq {
		return nil, fmt.Errorf("wal: read after %d: %w at seq %d", after, errBeforeSnapshot, l.snapSeq)
	}
	upto := min(l.seq, after+uint64(max(n, 0)))
	if upto <= after {
		return nil, nil
	}
	lo, hi := l.ends[after-l.snapSeq], l.ends[upto-l.snapSeq]
	f, err := os.Open(filepath.Join(l.dir, logName))
	if err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	defer f.Close() //lint:ignore droppederr read-only handle; nothing to lose on close
	b := make([]byte, hi-lo)
	if _, err := f.ReadAt(b, lo); err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	out := make([][]byte, 0, upto-after)
	if valid, err := scanFrames(b, after, func(payload []byte, _ int) { out = append(out, payload) }); err != nil || valid != len(b) {
		return nil, fmt.Errorf("wal: read: records %d..%d are damaged on disk", after+1, upto)
	}
	return out, nil
}

// Reset discards the snapshot and every log record, returning the log to
// the empty state with sequence 0, so replication can re-feed a replica
// whose own log it cannot trust.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := os.Remove(filepath.Join(l.dir, snapName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if err := l.truncateLocked(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	return syncDir(l.dir)
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
