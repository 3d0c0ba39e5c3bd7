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
	if len(rec.Entries) != 0 {
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
	// A zero-byte log (created, nothing flushed) must read as empty.
	if err := os.WriteFile(filepath.Join(dir, LogFile), nil, 0o644); err != nil {
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
	// A one-byte first record starts the cuts at byte 18, which keeps the
	// subtest names (cut@18 on) stable across log formats.
	appendT(t, l, "1")
	appendT(t, l, "second")
	closeT(t, l)
	whole, err := os.ReadFile(filepath.Join(dir, LogFile))
	if err != nil {
		t.Fatal(err)
	}
	prefixLen := headerSize + len("1")

	for cutAt := prefixLen + 1; cutAt < len(whole); cutAt++ {
		t.Run(fmt.Sprintf("cut@%d", cutAt), func(t *testing.T) {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, LogFile), whole[:cutAt], 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec := openT(t, d, Options{})
			defer closeT(t, l)
			if len(rec.Entries) != 1 || string(rec.Entries[0]) != "1" {
				t.Fatalf("recovered %q, want just [1]", rec.Entries)
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
			st, err := os.Stat(filepath.Join(d, LogFile))
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
	path := filepath.Join(dir, LogFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record (CRC now mismatches).
	mid := 2*headerSize + len("keep") + len("flip") - 2
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

// TestSnapshotIsAProbe pins what is left of Snapshot: a durable write of
// its payload beside the log that leaves the log as it was and that Open
// ignores.
func TestSnapshotIsAProbe(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "a")
	appendT(t, l, "b")
	before, err := os.ReadFile(filepath.Join(dir, LogFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte(`{"state":"ab"}`)); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, probeName)); err != nil || string(got) != `{"state":"ab"}` {
		t.Fatalf("probe holds %q (err=%v)", got, err)
	}
	if after, err := os.ReadFile(filepath.Join(dir, LogFile)); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("Snapshot changed the log (err=%v)", err)
	}
	appendT(t, l, "c")
	closeT(t, l)

	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if len(rec.Entries) != 3 || string(rec.Entries[2]) != "c" || l2.Seq() != 3 {
		t.Fatalf("replay = %q at seq %d, want [a b c] at 3", rec.Entries, l2.Seq())
	}
}

// TestOpenRefusesOldLogFile pins that Open never starts a log beside the
// log file of an earlier build: the directory is refused and left as it
// was, and it opens once that file is gone (the upgrade removes it).
func TestOpenRefusesOldLogFile(t *testing.T) {
	dir := t.TempDir()
	old := []byte("0badc0de 1 BAAAA\n")
	if err := os.WriteFile(filepath.Join(dir, oldLogName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "upgraded") {
		t.Fatalf("Open beside %s = %v, want a refusal naming the upgrade", oldLogName, err)
	}
	if _, err := os.Stat(filepath.Join(dir, LogFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused Open created %s (err=%v)", LogFile, err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, oldLogName)); err != nil || !bytes.Equal(b, old) {
		t.Fatalf("refused Open changed %s (err=%v)", oldLogName, err)
	}
	if err := os.Remove(filepath.Join(dir, oldLogName)); err != nil {
		t.Fatal(err)
	}
	l, _ := openT(t, dir, Options{})
	closeT(t, l)
}

// TestPayloadAnyBytes pins that frames carry any payload bytes: empty,
// newlines, spaces and bytes that look like a frame header.
func TestPayloadAnyBytes(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	want := []string{"", "a\nb", "x y ", string(appendFrame(nil, 9, []byte("inner")))}
	for _, p := range want {
		appendT(t, l, p)
	}
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if len(rec.Entries) != len(want) || rec.Info.TornTail {
		t.Fatalf("replayed %q (torn=%v), want %q", rec.Entries, rec.Info.TornTail, want)
	}
	for i, e := range rec.Entries {
		if string(e) != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e, want[i])
		}
	}
}

// TestZeroFilledTailIsTorn appends the zeroed block a crash can leave
// after the last frame: Open cuts it as a torn tail rather than refuse.
func TestZeroFilledTailIsTorn(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "kept")
	closeT(t, l)
	f, err := os.OpenFile(filepath.Join(dir, LogFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if len(rec.Entries) != 1 || !rec.Info.TornTail || rec.Info.TornBytes != 4096 {
		t.Fatalf("replay = %q, info %+v, want [kept] and a 4096-byte cut", rec.Entries, rec.Info)
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

// TestInjectedSnapshotFaultLeavesLogIntact fails the snapshot probe's
// write (a directory stands where its file would be renamed to): the
// error is returned and the log keeps every record.
func TestInjectedSnapshotFaultLeavesLogIntact(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "a")
	if err := os.MkdirAll(filepath.Join(dir, probeName, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot([]byte("state")); err == nil {
		t.Fatal("Snapshot over a directory succeeded")
	}
	appendT(t, l, "b")
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if len(rec.Entries) != 2 || rec.Info.TornTail {
		t.Fatalf("failed snapshot disturbed the log: %+v", rec)
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
