package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// validPrefix is a fresh scan of b as a log with no snapshot. Its valid
// prefix, n bytes long, is the longest run of intact, newline-terminated
// frames sequenced 1, 2, 3, ... at its start (frames sequenced 0 before
// the first of them are skipped, as replay skips records a snapshot
// folds in). entries holds those records' payloads and ends[k] the
// offset just past record k (ends[0] is 0). damaged is set when the
// prefix ends at an intact frame out of sequence rather than a torn or
// corrupt one.
func validPrefix(b []byte) (n int, ends []int, entries [][]byte, damaged bool) {
	ends = []int{0}
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if len(line) == 0 || line[len(line)-1] != '\n' {
			break
		}
		seq, payload, err := parseFrame(line[:len(line)-1])
		if err != nil {
			break
		}
		if seq != uint64(len(entries)+1) && (seq != 0 || len(entries) > 0) {
			damaged = true
			break
		}
		n += len(line)
		if seq > 0 {
			entries = append(entries, payload)
			ends = append(ends, n)
		}
	}
	return n, ends, entries, damaged
}

// sameEntries reports whether a and b hold the same payloads in order.
func sameEntries(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzLogReplay writes any byte string as wal.log, with no snapshot, and
// checks torn-tail replay against a fresh scan of the same bytes: Open
// never panics; it refuses a log whose valid prefix ends at an intact
// frame out of sequence and leaves the file as it was; otherwise it cuts
// the file to exactly its valid prefix and reports the cut, and a second
// Open replays the same entries with nothing left to cut. It then checks the offset table Open built: for
// every k in [0, seq], RecordsAfter(k) reads exactly the records after k
// (whole, and one at a time) without changing the file, and Rewind(k)
// leaves the file cut just past record k, which a reopen replays as the
// first k records.
func FuzzLogReplay(f *testing.F) {
	good := func(seq uint64, payload string) []byte {
		line, err := appendFrame(nil, seq, []byte(payload))
		if err != nil {
			f.Fatal(err)
		}
		return line
	}
	two := append(good(1, "first"), good(2, "second")...)
	f.Add(two)
	f.Add(two[:len(two)-4]) // torn frame
	flipped := bytes.Clone(two)
	flipped[len(flipped)-3] ^= 0x20 // CRC mismatch on the last frame
	f.Add(flipped)
	f.Add(append(good(1, "first"), "garbage-without-newline"...)) // no newline
	f.Add(append(good(1, "first"), good(3, "gap")...))            // out of sequence
	f.Add(append(good(0, "folded"), two...))                      // stale frame before the records
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		prefix, ends, want, damaged := validPrefix(data)

		l, rec, err := Open(dir, Options{Policy: SyncNever})
		if damaged {
			if err == nil {
				l.Close() //lint:ignore droppederr the test fails either way
				t.Fatalf("Open accepted an intact frame out of sequence at offset %d", prefix)
			}
			if b, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(b, data) {
				t.Fatalf("refused Open changed the log (err=%v)", rerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		cut, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cut, data[:prefix]) {
			t.Fatalf("log holds %d bytes after Open, want the %d-byte valid prefix", len(cut), prefix)
		}
		if torn := prefix < len(data); rec.Info.TornTail != torn ||
			(torn && (rec.Info.TornOffset != int64(prefix) || rec.Info.TornBytes != int64(len(data)-prefix))) {
			t.Fatalf("recovery info %+v, want a cut at %d of %d bytes", rec.Info, prefix, len(data))
		}
		if !sameEntries(rec.Entries, want) || l.Seq() != uint64(len(want)) {
			t.Fatalf("Open replayed %q to seq %d, want %q", rec.Entries, l.Seq(), want)
		}
		for k := range want {
			read, err := l.RecordsAfter(uint64(k), len(want))
			if err != nil {
				t.Fatalf("RecordsAfter(%d): %v", k, err)
			}
			one, err := l.RecordsAfter(uint64(k), 1)
			if err != nil {
				t.Fatalf("RecordsAfter(%d, 1): %v", k, err)
			}
			if !sameEntries(read, want[k:]) || !sameEntries(one, want[k:k+1]) {
				t.Fatalf("RecordsAfter(%d) read %q and %q, want %q", k, read, one, want[k:])
			}
		}
		if read, err := l.RecordsAfter(uint64(len(want)), 1); err != nil || len(read) != 0 {
			t.Fatalf("RecordsAfter(seq) = %q, %v, want nothing", read, err)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, cut) {
			t.Fatalf("RecordsAfter changed the log (err=%v)", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, rec2, err := Open(dir, Options{Policy: SyncNever})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if rec2.Info.TornTail || !sameEntries(rec2.Entries, want) {
			t.Fatalf("second Open replayed %q (torn=%v), want %q", rec2.Entries, rec2.Info.TornTail, want)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}

		for k := range ends {
			if err := os.WriteFile(path, cut, 0o644); err != nil {
				t.Fatal(err)
			}
			l, _, err := Open(dir, Options{Policy: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Rewind(uint64(k)); err != nil {
				t.Fatalf("Rewind(%d): %v", k, err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, cut[:ends[k]]) {
				t.Fatalf("Rewind(%d) left %d bytes (err=%v), want %d", k, len(b), err, ends[k])
			}
			l, rec, err = Open(dir, Options{Policy: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Info.TornTail || !sameEntries(rec.Entries, want[:k]) {
				t.Fatalf("reopen after Rewind(%d) replayed %q (torn=%v), want %q", k, rec.Entries, rec.Info.TornTail, want[:k])
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
