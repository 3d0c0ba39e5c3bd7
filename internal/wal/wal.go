// Package wal implements the write-ahead log that makes RCC ingestion
// durable: an append-only log of CRC-checked binary frames, so a serving
// process can acknowledge an ingested record only after it is on disk and
// can rebuild its state after a crash by replaying the log. Nothing
// ingested is ever deleted, so the log is never rewritten: it is the
// whole ingested history. The durable catalog appends through a
// ReplicatedLog over one replica directory or several; each replica is a
// Log.
//
// # On-disk format
//
// The log (LogFile, wal.bin) is a sequence of frames, each a 16-byte
// header followed by the payload, after LevelDB's log format
// (https://github.com/google/leveldb/blob/main/doc/log_format.md):
//
//	length uint32 LE | crc uint32 LE | seq uint64 LE | payload (length bytes)
//
// The CRC-32C covers the seq and the payload. The payload is opaque
// (statusq writes one packed record). Sequences run 1, 2, 3, ... with no
// gaps. Replay reads the file in one pass and keeps, per record, the
// offset just past it (8 B), so Rewind and RecordsAfter seek straight to
// a record instead of rescanning.
//
// A directory that still holds wal.log, the log file of earlier builds,
// is refused by Open rather than opened beside it: statusq upgrades such
// a root once, when it opens it (see docs/OPERATIONS.md).
//
// # Torn tails
//
// A crash mid-append can leave a torn final frame: a header or payload
// cut short by the end of the file, or a CRC mismatch (a zero-filled
// tail is one). Open recovers the longest valid prefix, physically
// truncates the file back to it, and reports the cut (offset and bytes
// dropped) in RecoveryInfo rather than failing — losing an
// unacknowledged suffix is the contract; refusing to start is not. An
// intact frame out of sequence, by contrast, is a real error: no crash
// leaves one, so Open refuses the log rather than cut acknowledged
// records.
//
// # Durability
//
// SyncAlways fsyncs after every append — an Append that returned nil is
// on disk and may be acknowledged. SyncNever leaves flushing to the OS.
// WriteLog and WriteFileAtomic always fsync.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
)

const (
	// LogFile is the name of the log in its directory.
	LogFile = "wal.bin"
	// oldLogName is the log file of earlier builds, whose format this
	// package does not read. Every directory those builds opened holds
	// one, so its presence marks a directory still to be upgraded.
	oldLogName = "wal.log"
	// probeName is where Snapshot writes; Open ignores it.
	probeName = "probe.snapshot"
	// headerSize is a frame's header: length, CRC, seq.
	headerSize = 16
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
	// Records is the number of log records replayed.
	Records int
	// TornTail is true when the log ended in a torn or corrupt record
	// that Open cut off.
	TornTail bool
	// TornOffset is the byte offset the log was truncated back to, and
	// TornBytes the number of bytes discarded, when TornTail is set.
	TornOffset int64
	TornBytes  int64
}

// Recovered is the state Open reconstructed: the replayable log
// payloads, oldest first. The payloads share one buffer, the log file as
// read.
type Recovered struct {
	Entries [][]byte
	Info    RecoveryInfo
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Log is an open write-ahead log rooted at one directory. All methods
// are safe for concurrent use; appends are serialized, so log order is
// acknowledgment order.
type Log struct {
	dir  string
	opts Options

	mu  sync.Mutex // guards f, seq, ends, and closed
	f   *os.File
	seq uint64 // last sequence appended (or recovered)
	// ends[k] is the offset in the log just past record k, so ends[0] is
	// 0 and the log's valid length is ends[seq].
	ends   []int64
	closed bool
}

// Open opens (creating if absent) the log in dir and replays every
// intact record. A torn or corrupt log tail is cut off and reported via
// Recovered.Info, not returned as an error. A directory holding the log
// file of an earlier build is refused, and no log is created beside it.
// The caller owns applying Recovered before appending new records.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, oldLogName)); err == nil {
		return nil, nil, fmt.Errorf("wal: %s holds %s, a log in an earlier on-disk format; it must be upgraded (domd serve upgrades a WAL root once, at open) before this build opens it", dir, oldLogName)
	}
	rec := &Recovered{}
	logPath := filepath.Join(dir, LogFile)
	ends, err := replayLog(logPath, rec)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	return &Log{dir: dir, opts: opts, f: f, seq: uint64(len(rec.Entries)), ends: ends}, rec, nil
}

// appendFrame appends the frame for (seq, payload) to dst.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, 0, 0, 0, 0) // the CRC, filled in below
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+8:], castagnoli))
	return dst
}

// encodeFrames frames payloads as records first, first+1, ... in one
// buffer. A payload is one record, well under the 4 GiB a frame's length
// field holds.
func encodeFrames(first uint64, payloads [][]byte) []byte {
	size := 0
	for _, p := range payloads {
		size += headerSize + len(p)
	}
	buf := make([]byte, 0, size)
	for i, p := range payloads {
		buf = appendFrame(buf, first+uint64(i), p)
	}
	return buf
}

// scanFrames is the one reader of the log's framing. It walks the frames
// at the start of b, which holds log bytes beginning at the frame of
// record after+1, and returns the offset just past the last frame it
// accepts; fn gets each accepted record's payload, a subslice of b, and
// the offset just past it. The walk ends at the end of b or at the first
// torn (cut short) or corrupt (CRC mismatch) frame. An intact frame out
// of sequence is an error: no crash leaves one, so it is damage, and the
// records after it are not debris to cut.
func scanFrames(b []byte, after uint64, fn func(payload []byte, end int)) (int, error) {
	next, off := after+1, 0
	for len(b)-off >= headerSize {
		n := uint64(binary.LittleEndian.Uint32(b[off:]))
		if n > uint64(len(b)-off-headerSize) {
			return off, nil
		}
		end := off + headerSize + int(n)
		if crc32.Checksum(b[off+8:end], castagnoli) != binary.LittleEndian.Uint32(b[off+4:]) {
			return off, nil
		}
		if seq := binary.LittleEndian.Uint64(b[off+8:]); seq != next {
			return off, fmt.Errorf("wal: intact record at offset %d has sequence %d, want %d", off, seq, next)
		}
		fn(b[off+headerSize:end], end)
		next++
		off = end
	}
	return off, nil
}

// replayLog reads the log at path in one pass, appends the payloads of
// its records to rec (subslices of the one buffer read, so replay
// allocates nothing per record), and truncates a torn tail in place. It
// returns the log's offset table (see Log.ends). A log with an intact
// record out of sequence is refused, and left as it is.
func replayLog(path string, rec *Recovered) ([]int64, error) {
	ends := []int64{0}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ends, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: replay: %w", err)
	}
	valid, err := scanFrames(b, 0, func(payload []byte, end int) {
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
// directory, mirroring WriteFileAtomic's dir-fsync discipline — so a
// crash *during recovery* cannot resurrect the damaged suffix.
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
	buf := encodeFrames(l.seq+1, payloads)
	if err := faultinject.Fire(FailAppendWrite); err != nil {
		mAppendFailures.Inc()
		return 0, fmt.Errorf("wal: append write: %w", err)
	}
	if _, err := l.f.Write(buf); err != nil {
		mAppendFailures.Inc()
		return 0, fmt.Errorf("wal: append write: %w", err)
	}
	end := l.ends[len(l.ends)-1]
	for _, p := range payloads {
		end += int64(headerSize + len(p))
		l.ends = append(l.ends, end)
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

// Snapshot durably writes payload beside the log, as WriteFileAtomic
// does, under a name Open ignores; the log itself is untouched. Nothing
// in domd calls it: it is the domdbench tracer's probe of a durable
// whole-state write.
func (l *Log) Snapshot(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := WriteFileAtomic(filepath.Join(l.dir, probeName), payload); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
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
// behind it. Rewinding forward past the current sequence is an error,
// and so is a log file that is gone from the directory.
func (l *Log) Rewind(to uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if to > l.seq {
		return fmt.Errorf("wal: rewind forward (have seq %d, want %d)", l.seq, to)
	}
	// Every append descriptor (Open's, Reset's) is O_APPEND, so it keeps
	// writing at the truncated end; truncating by path fails if the file
	// is gone.
	if err := os.Truncate(filepath.Join(l.dir, LogFile), l.ends[to]); err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rewind: %w", err)
	}
	l.ends = l.ends[:to+1]
	l.seq = to
	return nil
}

// RecordsAfter returns the payloads of at most n records sequenced after
// `after`, oldest first, read from the log file on disk at the offset
// the log's offset table gives for them. It is read-only, and reads
// nothing past the last appended record. Replication re-feeds a lagging
// replica's missing records this way from the primary.
func (l *Log) RecordsAfter(after uint64, n int) ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	upto := min(l.seq, after+uint64(max(n, 0)))
	if upto <= after {
		return nil, nil
	}
	lo, hi := l.ends[after], l.ends[upto]
	f, err := os.Open(filepath.Join(l.dir, LogFile))
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

// Reset discards every log record, returning the log to the empty state
// with sequence 0, so replication can re-feed a replica whose own log it
// cannot trust. The file is reopened with O_TRUNC and, like the one Open
// makes, O_APPEND, so after a later Rewind it still writes at the file's
// end.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(l.dir, LogFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	l.f, l.seq, l.ends = f, 0, []int64{0}
	return syncDir(l.dir)
}

// WriteLog durably writes payloads as the whole log in dir, records 1, 2,
// ..., creating dir if absent, through WriteFileAtomic, so a crash
// leaves the previous log file (or none) or the new one. statusq writes
// each replica's log this way when it upgrades a root written by earlier
// builds; no Log may be open on dir.
func WriteLog(dir string, payloads [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: write log: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, LogFile), encodeFrames(1, payloads)); err != nil {
		return fmt.Errorf("wal: write log: %w", err)
	}
	return nil
}

// WriteFileAtomic durably replaces path with b: it writes path+".tmp",
// fsyncs it, renames it over path and fsyncs the parent directory, so a
// crash leaves the old file or the new one, never a torn or empty one.
// WriteLog writes logs this way, and so is any metadata a caller pins
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
