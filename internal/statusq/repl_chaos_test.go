package statusq

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"domd/internal/faultinject"
	"domd/internal/wal"
)

// replicaDir returns shard s's n'th WAL replica directory.
func replicaDir(sc *ShardedCatalog, s, n int) string {
	return filepath.Join(sc.ShardDir(s), fmt.Sprintf("replica-%02d", n))
}

// waitReplConverged polls until shard s's replica set is fully live.
func waitReplConverged(t *testing.T, sc *ShardedCatalog, s int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, ok := sc.shards[s].ReplHealth()
		if !ok {
			t.Fatal("shard is not replicated")
		}
		if h.Live == h.Replicas && h.Lag == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d replicas never converged: %+v", s, h)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosReplKillPrimaryMidIngest is the headline failover proof: a
// persistent fault on (then total loss of) the primary replica's disk
// mid-ingest must lose zero acknowledged records — appends keep acking
// on the surviving quorum, and after a restart the set repairs from the
// most-caught-up replica.
func TestChaosReplKillPrimaryMidIngest(t *testing.T) {
	defer faultinject.Reset()
	root := t.TempDir()
	sc, _, ds := shardedFixture(t, root, 2, DurableOptions{Replicas: 3})
	ids := sc.AvailIDs()
	victim := sc.ShardOf(ids[0])

	acked := 0
	ingestOne := func(i int) {
		t.Helper()
		id := ids[i%len(ids)]
		r := deltaRCC(t, sc.shards[sc.ShardOf(id)].Catalog, id, i)
		if dup, err := sc.Ingest(fmt.Sprintf("kp%d", i), r); err != nil || dup {
			t.Fatalf("ingest %d: dup=%v err=%v", i, dup, err)
		}
		acked++
	}
	for i := 0; i < 10; i++ {
		ingestOne(i)
	}

	// Kill the victim shard's primary replica mid-stream: every
	// subsequent append to it faults, the followers keep the quorum, and
	// acknowledgments continue.
	faultinject.Enable(wal.ReplicaFailpoint(replicaDir(sc, victim, 0)), errors.New("primary disk dead"))
	for i := 10; i < 30; i++ {
		ingestOne(i)
	}
	if h := sc.HealthOf(victim); h == ShardFailed {
		t.Fatalf("victim shard failed despite quorum: %v", h)
	}
	want := evalFingerprint(t, sc)
	// The faulted replica was rewound to its watermark after each fault,
	// so its file handle is healthy and the close is clean.
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart-with-total-loss: the primary replica's directory is gone.
	faultinject.Reset()
	if err := os.RemoveAll(replicaDir(sc, victim, 0)); err != nil {
		t.Fatal(err)
	}
	sc2, info, err := OpenSharded(root, 2, ds.Avails, ds.RCCs, DurableOptions{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if tot := info.Totals(); tot.Restored != acked {
		t.Fatalf("restored %d records, acked %d: lost acknowledged data", tot.Restored, acked)
	}
	repl := info.Shards[victim].Info.Repl
	if repl == nil {
		t.Fatal("victim shard restore has no replication report")
	}
	rebuilt := false
	for _, r := range repl.Replicas {
		if r.Rebuilt || r.CaughtUp > 0 {
			rebuilt = true
		}
	}
	if !rebuilt {
		t.Fatalf("lost replica was not repaired: %+v", repl)
	}
	if got := evalFingerprint(t, sc2); !sameFingerprint(got, want) {
		t.Fatal("answers after failover + restart differ from pre-crash answers")
	}
}

// TestChaosReplFollowerLagStillAcks proves a lagging follower never
// blocks acknowledgment: a transient follower fault demotes it, quorum
// acks continue, and background catch-up converges the set.
func TestChaosReplFollowerLagStillAcks(t *testing.T) {
	defer faultinject.Reset()
	sc, _, _ := shardedFixture(t, t.TempDir(), 2, DurableOptions{Replicas: 3})
	defer sc.Close()
	ids := sc.AvailIDs()
	shard := sc.ShardOf(ids[0])

	faultinject.EnableTimes(wal.ReplicaFailpoint(replicaDir(sc, shard, 1)), errors.New("follower hiccup"), 1)
	for i := 0; i < 6; i++ {
		id := ids[i%len(ids)]
		if sc.ShardOf(id) != shard {
			continue
		}
		r := deltaRCC(t, sc.shards[shard].Catalog, id, i)
		if dup, err := sc.Ingest(fmt.Sprintf("fl%d", i), r); err != nil || dup {
			t.Fatalf("ingest %d during follower lag: dup=%v err=%v", i, dup, err)
		}
	}
	waitReplConverged(t, sc, shard)
	if h := sc.HealthOf(shard); h != ShardHealthy {
		t.Fatalf("converged shard health = %v, want healthy", h)
	}
}

// TestChaosReplQuorumLostFailsShard drives the full health ladder: with
// every replica of a shard faulted, ingests stop acknowledging, the
// shard goes failed (not promotable), its reads are forced stale, the
// breaker trips to fail-fast — and when the fault clears, a probe
// ingest restores it to healthy.
func TestChaosReplQuorumLostFailsShard(t *testing.T) {
	defer faultinject.Reset()
	sc, _, _ := shardedFixture(t, t.TempDir(), 2, DurableOptions{Replicas: 2})
	defer sc.Close()
	ids := sc.AvailIDs()
	shard := sc.ShardOf(ids[0])
	id := ids[0]

	r := deltaRCC(t, sc.shards[shard].Catalog, id, 0)
	if _, err := sc.Ingest("pre", r); err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(wal.ReplicaFailpoint(replicaDir(sc, shard, 0)), errors.New("disk 0 gone"))
	faultinject.Enable(wal.ReplicaFailpoint(replicaDir(sc, shard, 1)), errors.New("disk 1 gone"))
	failures := 0
	for i := 1; i <= breakerTripAfter+2; i++ {
		rr := deltaRCC(t, sc.shards[shard].Catalog, id, i)
		if _, err := sc.Ingest(fmt.Sprintf("q%d", i), rr); err != nil {
			failures++
		} else {
			t.Fatalf("ingest %d acked with every replica faulted", i)
		}
	}
	if failures < breakerTripAfter {
		t.Fatalf("only %d failures recorded", failures)
	}
	if h := sc.HealthOf(shard); h != ShardFailed {
		t.Fatalf("quorum-lost shard health = %v, want failed", h)
	}
	rows := sc.ShardHealths()
	if rows[shard].State != ShardFailed || rows[shard].Promotable {
		t.Fatalf("health row for failed shard: %+v", rows[shard])
	}
	if !rows[shard].BreakerOpen {
		t.Fatalf("breaker not open after %d consecutive failures: %+v", failures, rows[shard])
	}
	// Reads still answer, marked stale by the router.
	if _, _, stale, err := sc.EngineAsOf(id); err != nil || !stale {
		t.Fatalf("failed-shard read: stale=%v err=%v, want stale=true", stale, err)
	}
	// The healthy shard is unaffected.
	other := 1 - shard
	if h := sc.HealthOf(other); h != ShardHealthy {
		t.Fatalf("unaffected shard health = %v", h)
	}

	// Fault clears: breaker probes let an ingest through, which revives
	// the replicas inline and restores health.
	faultinject.Reset()
	recovered := false
	for i := 0; i < 4*breakerProbeEvery && !recovered; i++ {
		rr := deltaRCC(t, sc.shards[shard].Catalog, id, 1000+i)
		if _, err := sc.Ingest(fmt.Sprintf("rec%d", i), rr); err == nil {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("shard never recovered after fault cleared")
	}
	if h := sc.HealthOf(shard); h != ShardHealthy {
		t.Fatalf("recovered shard health = %v, want healthy", h)
	}
	if _, _, stale, err := sc.EngineAsOf(id); err != nil || stale {
		t.Fatalf("recovered-shard read: stale=%v err=%v, want fresh", stale, err)
	}
}

// TestChaosReplLayoutGuards pins the replication layout guards: a root
// opened unreplicated cannot silently reopen replicated (and vice
// versa), at both the topology and WAL-directory levels.
func TestChaosReplLayoutGuards(t *testing.T) {
	root := t.TempDir()
	sc, _, ds := shardedFixture(t, root, 2, DurableOptions{})
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSharded(root, 2, ds.Avails, ds.RCCs, DurableOptions{Replicas: 3}); err == nil {
		t.Fatal("unreplicated root reopened with -repl 3")
	}

	root2 := t.TempDir()
	sc2, _, _ := shardedFixture(t, root2, 2, DurableOptions{Replicas: 3})
	if err := sc2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSharded(root2, 2, ds.Avails, ds.RCCs, DurableOptions{}); err == nil {
		t.Fatal("replicated root reopened unreplicated")
	}
	if _, _, err := OpenSharded(root2, 2, ds.Avails, ds.RCCs, DurableOptions{Replicas: 2}); err == nil {
		t.Fatal("3-replica root reopened with -repl 2")
	}
}

// TestDeltaReplicatedEquivalence is the replicated differential gate: a
// stream ingested through a replicated sharded router answers
// bitwise-identically to a single in-memory catalog fed the same
// stream — before and after a close/reopen cycle.
func TestDeltaReplicatedEquivalence(t *testing.T) {
	root := t.TempDir()
	sc, _, ds := shardedFixture(t, root, 2, DurableOptions{Replicas: 3})
	single, err := NewCatalog(ds.Avails, ds.RCCs)
	if err != nil {
		t.Fatal(err)
	}
	evalFingerprint(t, sc) // warm engines so ingests take the delta path
	ids := sc.AvailIDs()
	for i := 0; i < 40; i++ {
		id := ids[i%len(ids)]
		r := deltaRCC(t, single, id, i)
		if dup, err := sc.Ingest(fmt.Sprintf("rk%d", i), r); err != nil || dup {
			t.Fatalf("replicated ingest %d: dup=%v err=%v", i, dup, err)
		}
		if err := single.AddRCC(r); err != nil {
			t.Fatalf("single AddRCC %d: %v", i, err)
		}
	}
	got, want := evalFingerprint(t, sc), evalFingerprint(t, single)
	if !sameFingerprint(got, want) {
		t.Fatal("replicated sharded answers differ from single-catalog answers")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	sc2, _, err := OpenSharded(root, 2, ds.Avails, ds.RCCs, DurableOptions{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if got := evalFingerprint(t, sc2); !sameFingerprint(got, want) {
		t.Fatal("replicated answers after reopen differ from single-catalog answers")
	}
}
