package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"domd/internal/faultinject"
)

// openReplT opens a replica set over n dirs under root, failing the test
// on error.
func openReplT(t *testing.T, root string, n int, opts ReplicatedOptions) (*ReplicatedLog, *Recovered, *ReplRecovery) {
	t.Helper()
	rl, rec, rep, err := OpenReplicated(ReplicaDirs(root, n), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rl, rec, rep
}

// appendReplT appends payload to the set, failing the test on error.
func appendReplT(t *testing.T, rl *ReplicatedLog, payload string) uint64 {
	t.Helper()
	seq, err := rl.Append([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// waitConverged polls until every replica is live and caught up.
func waitConverged(t *testing.T, rl *ReplicatedLog) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		converged := true
		for _, st := range rl.Status() {
			if st.State != ReplLive {
				converged = false
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: %+v", rl.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// replicaLogEqual opens each dir read-only via Open and asserts every
// replica recovered identical entry streams.
func assertReplicasEqual(t *testing.T, dirs []string) {
	t.Helper()
	var want *Recovered
	for i, dir := range dirs {
		l, rec := openT(t, dir, Options{})
		closeT(t, l)
		if i == 0 {
			want = rec
			continue
		}
		if string(rec.Snapshot) != string(want.Snapshot) {
			t.Fatalf("replica %d snapshot diverges: %q vs %q", i, rec.Snapshot, want.Snapshot)
		}
		if len(rec.Entries) != len(want.Entries) {
			t.Fatalf("replica %d has %d entries, want %d", i, len(rec.Entries), len(want.Entries))
		}
		for j := range rec.Entries {
			if string(rec.Entries[j]) != string(want.Entries[j]) {
				t.Fatalf("replica %d entry %d diverges: %q vs %q", i, j, rec.Entries[j], want.Entries[j])
			}
		}
	}
}

func TestReplicatedQuorumAppend(t *testing.T) {
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, rec, _ := openReplT(t, root, 3, ReplicatedOptions{})
	if rec.Snapshot != nil || len(rec.Entries) != 0 {
		t.Fatalf("fresh set recovered %+v", rec)
	}
	for i := 0; i < 5; i++ {
		if seq := appendReplT(t, rl, fmt.Sprintf("rec-%d", i)); seq != uint64(i+1) {
			t.Fatalf("append %d returned seq %d", i, seq)
		}
	}
	for _, st := range rl.Status() {
		if st.State != ReplLive || st.Watermark != 5 {
			t.Fatalf("replica not caught up: %+v", st)
		}
	}
	if rl.Lag() != 0 {
		t.Fatalf("lag = %d, want 0", rl.Lag())
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
}

func TestReplicatedFollowerFaultCatchup(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{})
	appendReplT(t, rl, "a")

	// One transient fault on a follower: the append still acks (2/3) and
	// the follower is demoted to lagging, then caught up in the
	// background.
	faultinject.EnableTimes(ReplicaFailpoint(dirs[2]), errors.New("injected disk fault"), 1)
	appendReplT(t, rl, "b")
	appendReplT(t, rl, "c")
	waitConverged(t, rl)
	for _, st := range rl.Status() {
		if st.Watermark != 3 {
			t.Fatalf("watermark after catch-up: %+v", st)
		}
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
	// Reopen: converged set needs no repair.
	rl2, rec, rep := openReplT(t, root, 3, ReplicatedOptions{})
	defer rl2.Close() //lint:ignore droppederr test cleanup
	if len(rec.Entries) != 3 {
		t.Fatalf("recovered %d entries, want 3", len(rec.Entries))
	}
	for _, r := range rep.Replicas {
		if r.CaughtUp != 0 || r.Rebuilt || r.Failed {
			t.Fatalf("converged set needed repair: %+v", rep)
		}
	}
}

func TestReplicatedQuorumLostNoAck(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{})
	appendReplT(t, rl, "a")

	faultinject.Enable(ReplicaFailpoint(dirs[0]), errors.New("disk 0 down"))
	faultinject.Enable(ReplicaFailpoint(dirs[1]), errors.New("disk 1 down"))
	if _, err := rl.Append([]byte("b")); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("append with 2/3 replicas down: err = %v, want ErrQuorumLost", err)
	}
	if rl.QuorumLive() {
		t.Fatal("QuorumLive with two replicas faulted")
	}

	// Fault clears: the next append revives the laggards inline and acks.
	faultinject.Reset()
	appendReplT(t, rl, "c")
	waitConverged(t, rl)
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
}

func TestReplicatedPrimaryFailover(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{})
	appendReplT(t, rl, "a")
	if st := rl.Status(); !st[0].Primary {
		t.Fatalf("initial primary not replica 0: %+v", st)
	}

	// Persistent primary fault: appends keep acking on the followers and
	// the primary role moves to a live replica.
	faultinject.Enable(ReplicaFailpoint(dirs[0]), errors.New("primary disk gone"))
	appendReplT(t, rl, "b")
	st := rl.Status()
	if st[0].Primary || st[0].State == ReplLive {
		t.Fatalf("faulted replica still primary/live: %+v", st)
	}
	prim := -1
	for i := range st {
		if st[i].Primary {
			prim = i
		}
	}
	if prim <= 0 || st[prim].State != ReplLive || st[prim].Watermark != 2 {
		t.Fatalf("no healthy promoted primary: %+v", st)
	}
	rl.Close() //lint:ignore droppederr replica 0 is faulted; close errors are expected
}

// TestReplicatedLaggardCatchesUpFromPrimaryLog pins that live catch-up
// has no lag bound: a follower faulted for more than two compaction
// intervals' worth of appends stays lagging, never failed, and once the
// fault clears it is re-fed from the primary's log until every replica
// directory holds the same bytes, with no snapshot involved.
func TestReplicatedLaggardCatchesUpFromPrimaryLog(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{Log: Options{Policy: SyncNever}})
	appendReplT(t, rl, "before")
	faultinject.Enable(ReplicaFailpoint(dirs[2]), errors.New("slow disk"))
	const behind = 2*1024 + 100
	for i := 0; i < behind; i++ {
		appendReplT(t, rl, fmt.Sprintf("r%d", i))
		if st := rl.Status(); st[2].State != ReplLagging {
			t.Fatalf("after %d faulted appends the follower is %v, want lagging", i+1, st[2].State)
		}
	}
	if lag := rl.Lag(); lag != behind {
		t.Fatalf("lag = %d, want %d", lag, behind)
	}
	faultinject.Reset()
	appendReplT(t, rl, "after")
	waitConverged(t, rl)
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
	want, err := os.ReadFile(filepath.Join(dirs[0], logName))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := os.Stat(filepath.Join(dir, snapName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s has a snapshot (err=%v): catch-up compacted", dir, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s log differs from the primary's (%d vs %d bytes)", dir, len(got), len(want))
		}
	}
}

// legacySnapshot folds each replica's whole log into a snapshot holding
// payload, leaving the root the way builds that compacted the log did.
func legacySnapshot(t *testing.T, dirs []string, payload string) {
	t.Helper()
	for _, dir := range dirs {
		l, _ := openT(t, dir, Options{})
		if err := l.Snapshot([]byte(payload)); err != nil {
			t.Fatal(err)
		}
		closeT(t, l)
	}
}

// TestReplicatedCatchupRevivesUnrewindableReplica covers the replica a
// rewind cannot repair: a follower whose wal.log is gone when a fault
// hits it. It is reset and re-fed the whole history by catch-up, across
// more than one batch, until every replica is live at the set's sequence
// and holds the primary's bytes. On a root written by earlier builds it
// is first given the primary's legacy snapshot. The revived replica is
// then faulted again after its write reached the file, so its rewind
// shrinks the log the reset reopened, and it must still converge to the
// primary's bytes.
func TestReplicatedCatchupRevivesUnrewindableReplica(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			defer faultinject.Reset()
			root := t.TempDir()
			dirs := ReplicaDirs(root, 3)
			opts := ReplicatedOptions{Log: Options{Policy: SyncNever}}
			rl, _, _ := openReplT(t, root, 3, opts)
			appendReplT(t, rl, "r0")
			if legacy {
				if err := rl.Close(); err != nil {
					t.Fatal(err)
				}
				legacySnapshot(t, dirs, "folded")
				rl, _, _ = openReplT(t, root, 3, opts)
			}
			const n = catchupBatch + 500
			for i := 1; i < n; i++ {
				appendReplT(t, rl, fmt.Sprintf("r%d", i))
			}
			// The history is written without fsyncs; the faults below
			// run under SyncAlways, where a sync fault follows the write.
			if err := rl.Close(); err != nil {
				t.Fatal(err)
			}
			rl, _, _ = openReplT(t, root, 3, ReplicatedOptions{})
			if err := os.Remove(filepath.Join(dirs[2], logName)); err != nil {
				t.Fatal(err)
			}
			fed := mReplCatchupRecords.Value()
			faultinject.EnableTimes(ReplicaFailpoint(dirs[2]), errors.New("disk fault"), 1)
			appendReplT(t, rl, fmt.Sprintf("r%d", n))
			if st := rl.Status(); st[2].State == ReplFailed {
				t.Fatalf("un-rewindable replica failed instead of reset: %+v", st)
			}
			waitConverged(t, rl)
			st := rl.Status()
			for _, r := range st {
				if r.State != ReplLive || r.Watermark != n+1 {
					t.Fatalf("catch-up did not revive: %+v", st)
				}
			}
			want := int64(n + 1)
			if legacy {
				want-- // r0 came back inside the snapshot
			}
			if got := mReplCatchupRecords.Value() - fed; got != want {
				t.Fatalf("catch-up re-fed %d records, want %d", got, want)
			}

			// Fan-out runs in replica order, so the third sync is the
			// revived replica's.
			var syncs atomic.Int32
			faultinject.Arm(FailAppendSync, func() error {
				if syncs.Add(1) == 3 {
					return errors.New("sync fault")
				}
				return nil
			})
			appendReplT(t, rl, "second fault")
			faultinject.Disable(FailAppendSync)
			if st := rl.Status(); st[2].State == ReplFailed || syncs.Load() < 3 {
				t.Fatalf("second fault: %d syncs, status %+v", syncs.Load(), st)
			}
			waitConverged(t, rl)
			appendReplT(t, rl, "after")
			if err := rl.Close(); err != nil {
				t.Fatal(err)
			}
			assertReplicasEqual(t, dirs)
			l, rec := openT(t, dirs[2], Options{})
			closeT(t, l)
			if legacy != (string(rec.Snapshot) == "folded") || len(rec.Entries) != int(want)+2 || rec.Info.TornTail {
				t.Fatalf("revived replica state: snap=%q entries=%d torn=%v", rec.Snapshot, len(rec.Entries), rec.Info.TornTail)
			}
			for _, name := range []string{logName, snapName} {
				primary, _ := os.ReadFile(filepath.Join(dirs[0], name))
				revived, _ := os.ReadFile(filepath.Join(dirs[2], name))
				if !bytes.Equal(revived, primary) {
					t.Fatalf("revived %s differs from the primary's (%d vs %d bytes)", name, len(revived), len(primary))
				}
			}
		})
	}
}

func TestReplicatedRecoveryCatchesUpStaleReplica(t *testing.T) {
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{})
	for i := 0; i < 4; i++ {
		appendReplT(t, rl, fmt.Sprintf("r%d", i))
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a replica that crashed behind the others: rewind its log
	// by rewriting it with only the first 2 records.
	l, _ := openT(t, dirs[1], Options{})
	if err := l.Rewind(2); err != nil {
		t.Fatal(err)
	}
	closeT(t, l)

	rl2, rec2, rep := openReplT(t, root, 3, ReplicatedOptions{})
	if len(rec2.Entries) != 4 {
		t.Fatalf("recovered %d entries, want 4", len(rec2.Entries))
	}
	if rep.Replicas[1].CaughtUp != 2 || rep.Replicas[1].Rebuilt {
		t.Fatalf("stale replica repair: %+v", rep.Replicas[1])
	}
	if err := rl2.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
}

func TestReplicatedRecoveryRebuildsDivergedReplica(t *testing.T) {
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{})
	for i := 0; i < 3; i++ {
		appendReplT(t, rl, fmt.Sprintf("r%d", i))
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}

	// Forge divergence: replica 2's record 3 has different payload (a
	// write the rest of the set never saw — e.g. acked by this disk
	// alone before a crash).
	l, _ := openT(t, dirs[2], Options{})
	if err := l.Rewind(2); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("rogue")); err != nil {
		t.Fatal(err)
	}
	closeT(t, l)

	rl2, rec2, rep := openReplT(t, root, 3, ReplicatedOptions{})
	if len(rec2.Entries) != 3 || string(rec2.Entries[2]) != "r2" {
		t.Fatalf("recovered wrong tail: %q", rec2.Entries)
	}
	if !rep.Replicas[2].Rebuilt {
		t.Fatalf("diverged replica not rebuilt: %+v", rep.Replicas[2])
	}
	if err := rl2.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
}

func TestReplicatedRecoveryTornTailOnOneReplica(t *testing.T) {
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{})
	for i := 0; i < 3; i++ {
		appendReplT(t, rl, fmt.Sprintf("r%d", i))
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear replica 0's tail mid-record.
	path := filepath.Join(dirs[0], logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	rl2, rec2, rep := openReplT(t, root, 3, ReplicatedOptions{})
	if len(rec2.Entries) != 3 {
		t.Fatalf("recovered %d entries, want 3 (torn replica must not be authoritative)", len(rec2.Entries))
	}
	if !rep.Replicas[0].Info.TornTail || rep.Replicas[0].CaughtUp != 1 {
		t.Fatalf("torn replica repair: %+v", rep.Replicas[0])
	}
	if err := rl2.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
}

func TestReplicatedRecoveryLostReplicaDirRebuilds(t *testing.T) {
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{})
	for i := 0; i < 3; i++ {
		appendReplT(t, rl, fmt.Sprintf("r%d", i))
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	legacySnapshot(t, dirs, "base")
	rl, _, _ = openReplT(t, root, 3, ReplicatedOptions{})
	appendReplT(t, rl, "tail")
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	// Total loss of one replica directory.
	if err := removeReplicaDirs(dirs[1]); err != nil {
		t.Fatal(err)
	}

	rl2, rec2, rep := openReplT(t, root, 3, ReplicatedOptions{})
	if string(rec2.Snapshot) != "base" || len(rec2.Entries) != 1 {
		t.Fatalf("recovered snap=%q entries=%d", rec2.Snapshot, len(rec2.Entries))
	}
	if !rep.Replicas[1].Rebuilt {
		t.Fatalf("lost replica not rebuilt from snapshot: %+v", rep.Replicas[1])
	}
	if err := rl2.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
}

// removeReplicaDirs deletes whole replica directories, simulating the
// total loss of their disks.
func removeReplicaDirs(dirs ...string) error {
	var errs []error
	for _, dir := range dirs {
		if err := os.RemoveAll(dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func TestReplicatedOpenQuorumValidation(t *testing.T) {
	if _, _, _, err := OpenReplicated(nil, ReplicatedOptions{}); err == nil {
		t.Fatal("no dirs accepted")
	}
	if _, _, _, err := OpenReplicated(ReplicaDirs(t.TempDir(), 2), ReplicatedOptions{Quorum: 3}); err == nil {
		t.Fatal("quorum > replicas accepted")
	}
}

func TestRewind(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		appendT(t, l, fmt.Sprintf("r%d", i))
	}
	if err := l.Rewind(3); err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 3 {
		t.Fatalf("seq after rewind = %d", l.Seq())
	}
	appendT(t, l, "r3-take2")
	closeT(t, l)

	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	want := []string{"r0", "r1", "r2", "r3-take2"}
	if len(rec.Entries) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(rec.Entries), len(want))
	}
	for i, w := range want {
		if string(rec.Entries[i]) != w {
			t.Fatalf("entry %d = %q, want %q", i, rec.Entries[i], w)
		}
	}
	if err := l2.Rewind(9); err == nil {
		t.Fatal("forward rewind accepted")
	}
}

// TestRewindCutsPartialFrameAtSeq covers a short append write: part of
// a frame reached wal.log but the sequence never advanced. Rewind to the
// current sequence must still cut those bytes, or the next acknowledged
// record lands behind debris that replay's CRC check cuts off with it.
func TestRewindCutsPartialFrameAtSeq(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "good")
	line, err := appendFrame(nil, l.Seq()+1, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line[:len(line)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Rewind(l.Seq()); err != nil {
		t.Fatal(err)
	}
	appendT(t, l, "after")
	closeT(t, l)

	l2, rec := openT(t, dir, Options{})
	defer closeT(t, l2)
	if rec.Info.TornTail || len(rec.Entries) != 2 || string(rec.Entries[0]) != "good" || string(rec.Entries[1]) != "after" {
		t.Fatalf("replay = %q (torn=%v), want [good after]", rec.Entries, rec.Info.TornTail)
	}
}

func TestRewindIntoSnapshotFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		appendT(t, l, fmt.Sprintf("r%d", i))
	}
	if err := l.Snapshot([]byte("folded")); err != nil {
		t.Fatal(err)
	}
	// With the log empty there is no record to find the gap by; the
	// snapshot's sequence alone must refuse the rewind.
	if err := l.Rewind(1); err == nil {
		t.Fatal("rewind below the snapshot of an empty log accepted")
	}
	appendT(t, l, "r3")
	if err := l.Rewind(1); err == nil {
		t.Fatal("rewind into snapshot-covered territory accepted")
	}
	if err := l.Rewind(3); err != nil {
		t.Fatalf("rewind to snapshot boundary: %v", err)
	}
	closeT(t, l)
}

func TestSnapshotAtAndReset(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "a")
	if err := l.SnapshotAt([]byte("adopted"), 7); err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 7 {
		t.Fatalf("seq after SnapshotAt = %d", l.Seq())
	}
	appendT(t, l, "b")
	closeT(t, l)
	l2, rec := openT(t, dir, Options{})
	if string(rec.Snapshot) != "adopted" || rec.Info.SnapshotSeq != 7 || len(rec.Entries) != 1 {
		t.Fatalf("recovered %+v snap=%q", rec.Info, rec.Snapshot)
	}
	if err := l2.Reset(); err != nil {
		t.Fatal(err)
	}
	if l2.Seq() != 0 {
		t.Fatalf("seq after reset = %d", l2.Seq())
	}
	appendT(t, l2, "fresh")
	closeT(t, l2)
	l3, rec3 := openT(t, dir, Options{})
	defer closeT(t, l3)
	if rec3.Snapshot != nil || len(rec3.Entries) != 1 || string(rec3.Entries[0]) != "fresh" {
		t.Fatalf("reset state: snap=%q entries=%q", rec3.Snapshot, rec3.Entries)
	}
}

// TestRewindAfterResetAndSnapshotAt rewinds a log whose file Reset or
// SnapshotAt reopened. The rewind shrinks the file, so the next append
// must land at its new end: a descriptor that kept writing at its old
// offset would leave a hole that replay cuts off with every record after
// it.
func TestRewindAfterResetAndSnapshotAt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reset func(*Log) error
		base  uint64
	}{
		{"reset", (*Log).Reset, 0},
		{"snapshotAt", func(l *Log) error { return l.SnapshotAt([]byte("adopted"), 7) }, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{})
			appendT(t, l, "before")
			if err := tc.reset(l); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"a", "b", "c"} {
				appendT(t, l, p)
			}
			if err := l.Rewind(tc.base + 1); err != nil {
				t.Fatal(err)
			}
			appendT(t, l, "b2")
			appendT(t, l, "c2")
			closeT(t, l)

			l2, rec := openT(t, dir, Options{})
			defer closeT(t, l2)
			got := make([]string, len(rec.Entries))
			for i, e := range rec.Entries {
				got[i] = string(e)
			}
			if rec.Info.TornTail || fmt.Sprint(got) != "[a b2 c2]" || l2.Seq() != tc.base+3 {
				t.Fatalf("replay = %q to seq %d (torn=%v), want [a b2 c2] to seq %d", got, l2.Seq(), rec.Info.TornTail, tc.base+3)
			}
		})
	}
}

func TestTornTailCutIsDurable(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	appendT(t, l, "good")
	closeT(t, l)
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage-without-newline"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{})
	closeT(t, l2)
	if !rec.Info.TornTail {
		t.Fatal("torn tail not reported")
	}
	// The cut physically truncated and fsynced the file: on-disk size
	// must equal the reported valid prefix.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != rec.Info.TornOffset {
		t.Fatalf("file size %d after cut, want %d", fi.Size(), rec.Info.TornOffset)
	}
}

// BenchmarkReplicatedCatchup times one catch-up of a follower 1000
// records behind the rest of a 3-replica set whose log already holds at
// least a 100k-record history, under each fsync policy: catch-up seeks
// to the follower's watermark through the primary's offset table, so
// its cost tracks the lag, not the history. The history is written once
// per policy. Each iteration builds the lag directly, under the set's
// lock so the background worker cannot start the catch-up first: one
// batch append to each of the other two replicas, the follower demoted
// to lagging, as 1000 appends with the follower faulted would leave it
// (those would cost 2000 untimed fsyncs per iteration). Only
// catchupLocked is timed.
func BenchmarkReplicatedCatchup(b *testing.B) {
	const history, lag = 100_000, 1000
	payload := []byte("B" + string(bytes.Repeat([]byte("x"), 40)))
	var seed []byte
	for i := 1; i <= history; i++ {
		line, err := appendFrame(nil, uint64(i), payload)
		if err != nil {
			b.Fatal(err)
		}
		seed = append(seed, line...)
	}
	batch := make([][]byte, lag)
	for i := range batch {
		batch[i] = payload
	}
	for _, policy := range []SyncPolicy{SyncNever, SyncAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			dirs := ReplicaDirs(b.TempDir(), 3)
			for _, dir := range dirs {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, logName), seed, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			rl, _, _, err := OpenReplicated(dirs, ReplicatedOptions{Log: Options{Policy: policy}})
			if err != nil {
				b.Fatal(err)
			}
			defer rl.Close() //lint:ignore droppederr benchmark cleanup
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rl.mu.Lock()
				for _, r := range rl.replicas[:2] {
					if _, err := r.log.Append(batch...); err != nil {
						b.Fatal(err)
					}
					r.watermark += lag
				}
				rl.seq += lag
				rl.replicas[2].state = ReplLagging
				b.StartTimer()
				rl.catchupLocked()
				b.StopTimer()
				if st := rl.replicas[2]; st.state != ReplLive || st.watermark != rl.seq {
					b.Fatalf("follower after catch-up: %v at %d of %d", st.state, st.watermark, rl.seq)
				}
				rl.mu.Unlock()
			}
		})
	}
}
