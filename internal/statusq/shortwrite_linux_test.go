//go:build linux

package statusq

import (
	"flag"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"

	"domd/internal/wal"
)

// shortWriteChild marks the re-executed test binary that performs the
// ingests under a lowered file-size limit (see
// TestDurableShortWriteKeepsLaterAcks).
const shortWriteChild = "short-write-child"

// TestDurableShortWriteKeepsLaterAcks drives a real short write through
// a one-replica catalog: RLIMIT_FSIZE (with SIGXFSZ ignored) lets only
// part of one ingest's WAL frame reach disk. That ingest must fail, the
// next one must be acknowledged, and a reopen must replay every
// acknowledged record — the partial frame may not swallow the records
// appended after it. The limit is process-wide, so the ingests run in a
// child process.
func TestDurableShortWriteKeepsLaterAcks(t *testing.T) {
	if a := flag.Args(); len(a) == 2 && a[0] == shortWriteChild {
		shortWriteIngests(t, a[1])
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDurableShortWriteKeepsLaterAcks$", "-test.count=1", "--", shortWriteChild, dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("short-write child: %v\n%s", err, out)
	}

	d, info, _ := durableFixture(t, dir, DurableOptions{})
	defer d.Close()
	if info.Restored != 2 {
		t.Fatalf("restored %d records, want the 2 acknowledged ones (recovery %+v)", info.Restored, info.Recovery)
	}
	for _, key := range []string{"good", "after"} {
		if dup, err := d.Ingest(key, deltaRCC(t, d.Catalog, d.AvailIDs()[0], 99)); err != nil || !dup {
			t.Fatalf("acknowledged key %q after reopen: dup=%v err=%v, want dup", key, dup, err)
		}
	}
}

// shortWriteIngests is the child side: ingest one record, cap the file
// size a few bytes past the log's end so the next ingest's write comes
// up short, then lift the cap and ingest once more.
func shortWriteIngests(t *testing.T, dir string) {
	d, _, _ := durableFixture(t, dir, DurableOptions{})
	id := d.AvailIDs()[0]
	if _, err := d.Ingest("good", deltaRCC(t, d.Catalog, id, 0)); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, wal.LogFile))
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	capped := lim
	capped.Cur = uint64(st.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &capped); err != nil {
		t.Fatalf("lower RLIMIT_FSIZE: %v", err)
	}
	_, shortErr := d.Ingest("short", deltaRCC(t, d.Catalog, id, 1))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if shortErr == nil {
		t.Fatal("ingest whose write came up short was acknowledged")
	}
	if _, err := d.Ingest("after", deltaRCC(t, d.Catalog, id, 2)); err != nil {
		t.Fatalf("ingest after the short write: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
