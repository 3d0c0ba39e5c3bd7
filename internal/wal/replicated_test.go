package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

func TestReplicatedSnapshotRevivesLaggard(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	dirs := ReplicaDirs(root, 3)
	rl, _, _ := openReplT(t, root, 3, ReplicatedOptions{MaxLag: 2})
	faultinject.Enable(ReplicaFailpoint(dirs[2]), errors.New("slow disk"))
	for i := 0; i < 6; i++ {
		appendReplT(t, rl, fmt.Sprintf("r%d", i))
	}
	// Replica 2 fell out of the 2-record tail window: failed.
	if st := rl.Status(); st[2].State != ReplFailed {
		t.Fatalf("out-of-window replica not failed: %+v", st)
	}
	faultinject.Reset()
	if err := rl.Snapshot([]byte("folded")); err != nil {
		t.Fatal(err)
	}
	st := rl.Status()
	for _, r := range st {
		if r.State != ReplLive || r.Watermark != 6 {
			t.Fatalf("snapshot did not revive: %+v", st)
		}
	}
	appendReplT(t, rl, "after")
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	assertReplicasEqual(t, dirs)
	l, rec := openT(t, dirs[2], Options{})
	closeT(t, l)
	if string(rec.Snapshot) != "folded" || len(rec.Entries) != 1 {
		t.Fatalf("revived replica state: snap=%q entries=%d", rec.Snapshot, len(rec.Entries))
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
	if err := rl.Snapshot([]byte("base")); err != nil {
		t.Fatal(err)
	}
	appendReplT(t, rl, "tail")
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	// Total loss of one replica directory.
	if err := RemoveReplicaDirs(dirs[1]); err != nil {
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
	line, err := frame(l.Seq()+1, []byte("doomed"))
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
