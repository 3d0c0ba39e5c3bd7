package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"domd/internal/faultinject"
)

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, dir string, opts Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

// appendT appends payload, failing the test on error.
func appendT(t *testing.T, l *Log, payload string) uint64 {
	t.Helper()
	seq, err := l.Append([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func closeT(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenEmptyDir(t *testing.T) {
	l, rec := openT(t, t.TempDir(), Options{})
	defer closeT(t, l)
	if rec.Snapshot != nil || len(rec.Entries) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	if rec.Info.TornTail {
		t.Fatal("fresh dir reported a torn tail")
	}
	if l.Seq() != 0 {
		t.Fatalf("fresh seq = %d", l.Seq())
	}
}

func TestOpenEmptyLogFile(t *testing.T) {
	dir := t.TempDir()
	// A zero-byte wal.log (created, nothing flushed) must read as empty.
	if err := os.WriteFile(filepath.Join(dir, logName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir, Options{})
	defer closeT(t, l)
	if len(rec.Entries) != 0 || rec.Info.TornTail {
		t.Fatalf("empty log recovered %+v", rec.Info)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	want := []string{`{"a":1}`, `{"b":2}`, `{"c":3}`}
	for i, p := range want {
		if seq := appendT(t, l, p); seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	closeT(t, l)

	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if len(rec.Entries) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(rec.Entries), len(want))
	}
	for i, e := range rec.Entries {
		if string(e) != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e, want[i])
		}
	}
	if l2.Seq() != 3 {
		t.Fatalf("recovered seq = %d", l2.Seq())
	}
	// Appends continue the sequence after recovery.
	if seq := appendT(t, l2, "x"); seq != 4 {
		t.Fatalf("post-recovery seq = %d, want 4", seq)
	}
}

// TestTornTailRecovery cuts the final record at every possible byte
// boundary and checks the prefix survives, the cut is reported, and the
// file is truncated back to a clean append point.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "first")
	appendT(t, l, "second")
	closeT(t, l)
	whole, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(whole, []byte("\n"))
	prefixLen := len(lines[0])

	for cutAt := prefixLen + 1; cutAt < len(whole); cutAt++ {
		t.Run(fmt.Sprintf("cut@%d", cutAt), func(t *testing.T) {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, logName), whole[:cutAt], 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec := openT(t, d, Options{})
			defer closeT(t, l)
			if len(rec.Entries) != 1 || string(rec.Entries[0]) != "first" {
				t.Fatalf("recovered %q, want just [first]", rec.Entries)
			}
			if !rec.Info.TornTail {
				t.Fatal("torn tail not reported")
			}
			if rec.Info.TornOffset != int64(prefixLen) {
				t.Fatalf("torn offset = %d, want %d", rec.Info.TornOffset, prefixLen)
			}
			if rec.Info.TornBytes != int64(cutAt-prefixLen) {
				t.Fatalf("torn bytes = %d, want %d", rec.Info.TornBytes, cutAt-prefixLen)
			}
			// The file must be truncated back to the intact prefix.
			st, err := os.Stat(filepath.Join(d, logName))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(prefixLen) {
				t.Fatalf("log size after recovery = %d, want %d", st.Size(), prefixLen)
			}
			// And appending must produce a fully valid log again
			// (appends are unbuffered, so no Close is needed before
			// an independent replay reads the file).
			appendT(t, l, "third")
			l2, rec2 := openT(t, d, Options{})
			defer closeT(t, l2)
			if len(rec2.Entries) != 2 || rec2.Info.TornTail {
				t.Fatalf("post-repair replay = %q torn=%v", rec2.Entries, rec2.Info.TornTail)
			}
		})
	}
}

func TestCorruptMidRecordCutsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "keep")
	appendT(t, l, "flip")
	appendT(t, l, "lost")
	closeT(t, l)
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	// Flip one payload byte of the middle record (CRC now mismatches).
	mid := len(lines[0]) + len(lines[1]) - 2
	b[mid] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if len(rec.Entries) != 1 || string(rec.Entries[0]) != "keep" {
		t.Fatalf("recovered %q, want the intact prefix [keep]", rec.Entries)
	}
	if !rec.Info.TornTail {
		t.Fatal("corrupt record not reported as a cut")
	}
}

func TestSnapshotCompactsAndReplays(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "a")
	appendT(t, l, "b")
	if err := l.Snapshot([]byte(`{"state":"ab"}`)); err != nil {
		t.Fatal(err)
	}
	appendT(t, l, "c")
	closeT(t, l)

	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if string(rec.Snapshot) != `{"state":"ab"}` {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if rec.Info.SnapshotSeq != 2 {
		t.Fatalf("snapshot seq = %d, want 2", rec.Info.SnapshotSeq)
	}
	if len(rec.Entries) != 1 || string(rec.Entries[0]) != "c" {
		t.Fatalf("post-snapshot entries = %q, want [c]", rec.Entries)
	}
	if l2.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", l2.Seq())
	}
}

// TestReplaySkipsRecordsFoldedIntoSnapshot simulates a crash between the
// snapshot rename and the log truncation: stale records whose seq <= the
// snapshot's must be skipped on replay.
func TestReplaySkipsRecordsFoldedIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "a")
	appendT(t, l, "b")
	closeT(t, l)
	logBytes, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := openT(t, dir, Options{})
	if err := l2.Snapshot([]byte("snap-ab")); err != nil {
		t.Fatal(err)
	}
	appendT(t, l2, "c")
	closeT(t, l2)
	// Re-prepend the pre-snapshot records, as if truncation never happened.
	after, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), append(logBytes, after...), 0o644); err != nil {
		t.Fatal(err)
	}
	l3, rec := openT(t, dir, Options{})
	defer closeT(t, l3)
	if string(rec.Snapshot) != "snap-ab" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Entries) != 1 || string(rec.Entries[0]) != "c" {
		t.Fatalf("entries = %q, want [c] (seqs 1-2 folded into snapshot)", rec.Entries)
	}
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "a")
	if err := l.Snapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	closeT(t, l)
	path := filepath.Join(dir, snapName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open over corrupt snapshot = %v, want corruption error", err)
	}
}

func TestPayloadNewlineRejected(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{})
	defer closeT(t, l)
	if _, err := l.Append([]byte("a\nb")); err == nil {
		t.Fatal("newline payload accepted")
	}
	if l.Seq() != 0 {
		t.Fatalf("rejected payload advanced seq to %d", l.Seq())
	}
}

func TestClosedLogRefusesOperations(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{})
	closeT(t, l)
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
	if err := l.Snapshot([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close = %v", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v", err)
	}
}

func TestSyncPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	for _, bad := range []string{"sometimes", "every"} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Fatalf("policy %q accepted", bad)
		}
	}
}

// TestInjectedWriteFaultFailsAppend pins the acknowledgment contract: a
// failed append must not advance the sequence, and replay must not
// surface the record.
func TestInjectedWriteFaultFailsAppend(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "good")
	errDisk := errors.New("disk on fire")
	faultinject.EnableTimes(FailAppendWrite, errDisk, 1)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, errDisk) {
		t.Fatalf("Append under write fault = %v", err)
	}
	if l.Seq() != 1 {
		t.Fatalf("failed append advanced seq to %d", l.Seq())
	}
	// The fault was transient; the log keeps working.
	appendT(t, l, "after")
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if len(rec.Entries) != 2 || string(rec.Entries[0]) != "good" || string(rec.Entries[1]) != "after" {
		t.Fatalf("replay = %q, want [good after]", rec.Entries)
	}
}

func TestInjectedSyncFaultFailsAppend(t *testing.T) {
	defer faultinject.Reset()
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncAlways})
	defer closeT(t, l)
	errDisk := errors.New("fsync lost")
	faultinject.EnableTimes(FailAppendSync, errDisk, 1)
	if _, err := l.Append([]byte("x")); !errors.Is(err, errDisk) {
		t.Fatalf("Append under fsync fault = %v", err)
	}
}

func TestInjectedSnapshotFaultLeavesLogIntact(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "a")
	faultinject.EnableTimes(FailSnapshotWrite, errors.New("no space"), 1)
	if err := l.Snapshot([]byte("state")); err == nil {
		t.Fatal("Snapshot under fault succeeded")
	}
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if rec.Snapshot != nil || len(rec.Entries) != 1 {
		t.Fatalf("failed snapshot disturbed state: %+v", rec)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNever})
	var wg sync.WaitGroup
	const G, N = 8, 50
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < N; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if len(rec.Entries) != G*N {
		t.Fatalf("replayed %d, want %d", len(rec.Entries), G*N)
	}
	if rec.Info.TornTail {
		t.Fatal("concurrent appends produced a torn log")
	}
}
