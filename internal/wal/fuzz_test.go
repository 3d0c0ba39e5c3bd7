package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// validPrefix returns the length of the longest run of intact,
// newline-terminated frames at the start of b and the payloads of those
// with a sequence above 0 (what replay without a snapshot keeps).
func validPrefix(b []byte) (int, [][]byte) {
	n := 0
	var entries [][]byte
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if len(line) == 0 || line[len(line)-1] != '\n' {
			break
		}
		seq, payload, err := parseFrame(line[:len(line)-1])
		if err != nil {
			break
		}
		if seq > 0 {
			entries = append(entries, payload)
		}
		n += len(line)
	}
	return n, entries
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
// checks torn-tail replay: Open never fails or panics, cuts the file to
// exactly its valid prefix and reports the cut, a second Open replays the
// same entries with nothing left to cut, and RecordsAfter reads those
// same entries back without changing the file.
func FuzzLogReplay(f *testing.F) {
	good := func(seq uint64, payload string) []byte {
		line, err := frame(seq, []byte(payload))
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
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		prefix, want := validPrefix(data)

		l, rec, err := Open(dir, Options{Policy: SyncNever})
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
		if !sameEntries(rec.Entries, want) {
			t.Fatalf("Open replayed %q, want %q", rec.Entries, want)
		}
		read, err := l.RecordsAfter(0)
		if err != nil {
			t.Fatalf("RecordsAfter: %v", err)
		}
		if !sameEntries(read, want) {
			t.Fatalf("RecordsAfter read %q, want %q", read, want)
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
		defer l2.Close() //lint:ignore droppederr test cleanup
		if rec2.Info.TornTail || !sameEntries(rec2.Entries, want) {
			t.Fatalf("second Open replayed %q (torn=%v), want %q", rec2.Entries, rec2.Info.TornTail, want)
		}
	})
}
