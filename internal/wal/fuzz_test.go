package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// validPrefix is a fresh scan of b as a log, written apart from
// scanFrames. Its valid prefix, n bytes long, is the longest run of
// whole frames with matching CRCs, sequenced 1, 2, 3, ..., at its start.
// entries holds those records' payloads and ends[k] the offset just past
// record k (ends[0] is 0). damaged is set when the prefix ends at an
// intact frame out of sequence rather than a torn or corrupt one.
func validPrefix(b []byte) (n int, ends []int, entries [][]byte, damaged bool) {
	ends = []int{0}
	for len(b)-n >= 16 {
		size := uint64(binary.LittleEndian.Uint32(b[n:]))
		if size > uint64(len(b)-n-16) {
			break
		}
		frame := b[n : n+16+int(size)]
		if crc32.Checksum(frame[8:], crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(frame[4:]) {
			break
		}
		if binary.LittleEndian.Uint64(frame[8:]) != uint64(len(entries)+1) {
			damaged = true
			break
		}
		entries = append(entries, frame[16:])
		n += len(frame)
		ends = append(ends, n)
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

// FuzzLogReplay writes any byte string as the log and checks torn-tail
// replay against a fresh scan of the same bytes: Open never panics; it
// refuses a log whose valid prefix ends at an intact frame out of
// sequence and leaves the file as it was; otherwise it cuts the file to
// exactly its valid prefix and reports the cut, and a second Open
// replays the same entries with nothing left to cut. It then checks the
// offset table Open built: for every k in [0, seq], RecordsAfter(k)
// reads exactly the records after k (whole, and one at a time) without
// changing the file, and Rewind(k) leaves the file cut just past record
// k, which a reopen replays as the first k records.
func FuzzLogReplay(f *testing.F) {
	good := func(seq uint64, payload string) []byte { return appendFrame(nil, seq, []byte(payload)) }
	two := append(good(1, "first"), good(2, "second")...)
	f.Add(two)
	f.Add(two[:len(two)-4]) // torn frame
	flipped := bytes.Clone(two)
	flipped[len(flipped)-3] ^= 0x20 // CRC mismatch on the last frame
	f.Add(flipped)
	f.Add(append(good(1, "first"), "garbage-after-the-frame"...)) // not a frame
	f.Add(append(good(1, "first"), good(3, "gap")...))            // out of sequence
	f.Add(append(good(0, "folded"), two...))                      // a sequence before the first
	f.Add(append(bytes.Clone(two), make([]byte, 512)...))         // zero-filled tail
	pastEOF := good(3, "third")
	binary.LittleEndian.PutUint32(pastEOF, 64) // length field past EOF
	f.Add(append(bytes.Clone(two), pastEOF...))
	huge := good(3, "third")
	binary.LittleEndian.PutUint32(huge, math.MaxUint32) // a huge length
	f.Add(append(bytes.Clone(two), huge...))
	f.Add(good(1, "")) // an empty payload
	f.Add([]byte{})
	f.Fuzz(checkLogReplay)
}

// FuzzLogFrames builds logs from valid frames, so the CRC check that
// rejects almost every random mutation in FuzzLogReplay passes and the
// fuzzer reaches the out-of-sequence, multi-frame and torn-tail paths.
// Each byte of steps makes one frame (at most 64): its low three bits
// step the sequence (0-5 by one, 6 by two, a gap; 7 by none, a repeat)
// and its high five bits give the payload length, cut from payloads in
// turn. The log then loses its last cut % (len+1) bytes, and the byte
// at flip>>8 is XORed with flip's low byte. The log is checked as
// FuzzLogReplay checks one.
func FuzzLogFrames(f *testing.F) {
	f.Add([]byte{1, 1, 1}, []byte("payload"), uint16(0), uint32(0))
	f.Add([]byte{1, 0x41, 6, 1}, []byte("abc"), uint16(0), uint32(0))              // a gap
	f.Add([]byte{1, 0x11, 7}, []byte("xyz"), uint16(5), uint32(0))                 // a repeat, then torn
	f.Add([]byte{0x21, 0x29, 0x31}, []byte("abcdefgh"), uint16(0), uint32(0x1201)) // a flipped bit

	f.Fuzz(func(t *testing.T, steps, payloads []byte, cut uint16, flip uint32) {
		var data []byte
		var seq uint64
		next := 0
		for _, b := range steps[:min(len(steps), 64)] {
			switch b & 7 {
			case 6:
				seq += 2
			case 7:
			default:
				seq++
			}
			payload := make([]byte, b>>3)
			for i := range payload {
				if len(payloads) > 0 {
					payload[i] = payloads[next%len(payloads)]
					next++
				}
			}
			data = appendFrame(data, seq, payload)
		}
		data = data[:len(data)-int(cut)%(len(data)+1)]
		if len(data) > 0 {
			data[int(flip>>8)%len(data)] ^= byte(flip)
		}
		checkLogReplay(t, data)
	})
}

// checkLogReplay writes data as the log and checks torn-tail replay
// against validPrefix's scan of the same bytes, as FuzzLogReplay
// describes.
func checkLogReplay(t *testing.T, data []byte) {
	dir := t.TempDir()
	path := filepath.Join(dir, LogFile)
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
}
