package statusq

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"domd/internal/domain"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/wal"
)

// shardedFixture opens a ShardedCatalog over the navsim fleet in root.
func shardedFixture(t *testing.T, root string, shards int, opts DurableOptions) (*ShardedCatalog, *ShardedRestoreInfo, *navsim.Dataset) {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 15, NumOngoing: 5, MeanRCCsPerAvail: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sc, info, err := OpenSharded(root, shards, ds.Avails, ds.RCCs, index.KindAVL, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sc, info, ds
}

// shardSum sums one per-catalog counter over every shard of a tier.
func shardSum(sc *ShardedCatalog, count func(*Catalog) int64) int64 {
	var n int64
	for _, sh := range sc.shards {
		n += count(sh.Catalog)
	}
	return n
}

// TestShardedRoutingStable pins the consistent-hash contract: the
// id→shard mapping is a pure function of the shard count, identical
// across ring instances (and therefore across restarts), and spreads a
// fleet-sized id space over every shard.
func TestShardedRoutingStable(t *testing.T) {
	a := newShardRing(4, ringReplicas)
	b := newShardRing(4, ringReplicas)
	owned := make(map[int]int)
	for id := 0; id < 2000; id++ {
		sa, sb := a.shardOf(id), b.shardOf(id)
		if sa != sb {
			t.Fatalf("id %d routed to shard %d then %d", id, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("id %d routed to out-of-range shard %d", id, sa)
		}
		owned[sa]++
	}
	for s := 0; s < 4; s++ {
		if owned[s] == 0 {
			t.Fatalf("shard %d owns no ids out of 2000: ring is unbalanced", s)
		}
	}
}

// TestShardedTopologyPinned proves a WAL root cannot be silently
// re-sharded: records were routed to per-shard directories under one
// layout, so reopening with a different -shards must refuse.
func TestShardedTopologyPinned(t *testing.T) {
	root := t.TempDir()
	sc, _, ds := shardedFixture(t, root, 4, DurableOptions{})
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenSharded(root, 3, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err == nil {
		t.Fatal("reopening a 4-shard root with 3 shards succeeded; want refusal")
	}
	if !strings.Contains(err.Error(), "re-sharding") {
		t.Fatalf("topology mismatch error %q does not name re-sharding", err)
	}
	// Same shard count reattaches fine.
	sc2, _, err := OpenSharded(root, 4, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMergedIDs pins the cross-shard fleet surface: AvailIDs and
// OngoingIDs are the exact union of the shards' sets, ascending — the
// deterministic ordering /fleet renders in.
func TestShardedMergedIDs(t *testing.T) {
	sc, info, ds := shardedFixture(t, t.TempDir(), 4, DurableOptions{})
	defer sc.Close()

	single, err := NewCatalog(ds.Avails, ds.RCCs, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want []int
	}{
		{"AvailIDs", sc.AvailIDs(), single.AvailIDs()},
		{"OngoingIDs", sc.OngoingIDs(), single.OngoingIDs()},
	} {
		if !sort.IntsAreSorted(tc.got) {
			t.Fatalf("%s not ascending: %v", tc.name, tc.got)
		}
		if len(tc.got) != len(tc.want) {
			t.Fatalf("%s: got %d ids, want %d", tc.name, len(tc.got), len(tc.want))
		}
		for i := range tc.got {
			if tc.got[i] != tc.want[i] {
				t.Fatalf("%s[%d] = %d, want %d", tc.name, i, tc.got[i], tc.want[i])
			}
		}
	}
	// Per-shard ownership covers the whole fleet exactly once.
	totalOwned := 0
	for _, sh := range info.Shards {
		totalOwned += sh.Avails
	}
	if totalOwned != len(ds.Avails) {
		t.Fatalf("shards own %d avails, fleet has %d", totalOwned, len(ds.Avails))
	}
}

// TestDurableShardedRestoreEquivalence is the sharded restart gate:
// ingests spread over every shard survive a full close/reopen with
// bitwise-identical Eval answers and per-shard restore accounting.
func TestDurableShardedRestoreEquivalence(t *testing.T) {
	root := t.TempDir()
	sc, _, ds := shardedFixture(t, root, 4, DurableOptions{})
	ids := sc.AvailIDs()
	const n = 24
	for i := 0; i < n; i++ {
		r := deltaRCC(t, sc.shards[sc.ShardOf(ids[i%len(ids)])].Catalog, ids[i%len(ids)], i)
		if dup, err := sc.Ingest(fmt.Sprintf("k%d", i), r); err != nil || dup {
			t.Fatalf("ingest %d: dup=%v err=%v", i, dup, err)
		}
	}
	if got := sc.IngestedCount(); got != n {
		t.Fatalf("IngestedCount = %d, want %d", got, n)
	}
	want := evalFingerprint(t, sc)
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	sc2, info, err := OpenSharded(root, 4, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if tot := info.Totals(); tot.Restored != n {
		t.Fatalf("restored %d records across shards, want %d", tot.Restored, n)
	}
	perShard := 0
	for _, sh := range info.Shards {
		perShard += sh.Info.Restored
	}
	if perShard != n {
		t.Fatalf("per-shard restore counts sum to %d, want %d", perShard, n)
	}
	if got := evalFingerprint(t, sc2); !sameFingerprint(got, want) {
		t.Fatal("restored sharded catalog answers differ from pre-restart answers")
	}
}

// TestDeltaShardedEquivalence is the sharded differential gate: a
// stream ingested through the 4-shard router (delta-applied per shard)
// answers bitwise-identically to a single in-memory catalog fed the
// same stream directly.
func TestDeltaShardedEquivalence(t *testing.T) {
	sc, _, ds := shardedFixture(t, t.TempDir(), 4, DurableOptions{})
	defer sc.Close()
	single, err := NewCatalog(ds.Avails, ds.RCCs, index.KindAVL)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every engine so the sharded side exercises the O(delta) fold
	// rather than first-touch rebuilds.
	evalFingerprint(t, sc)
	ids := sc.AvailIDs()
	for i := 0; i < 40; i++ {
		id := ids[i%len(ids)]
		r := deltaRCC(t, single, id, i)
		if dup, err := sc.Ingest(fmt.Sprintf("dk%d", i), r); err != nil || dup {
			t.Fatalf("sharded ingest %d: dup=%v err=%v", i, dup, err)
		}
		if err := single.AddRCC(r); err != nil {
			t.Fatalf("single AddRCC %d: %v", i, err)
		}
	}
	if shardSum(sc, (*Catalog).DeltaApplies) == 0 {
		t.Fatal("sharded stream never took the delta-apply path")
	}
	got, want := evalFingerprint(t, sc), evalFingerprint(t, single)
	if !sameFingerprint(got, want) {
		t.Fatal("sharded delta-applied answers differ from single-catalog answers")
	}
}

// TestShardedIngestSemantics pins the routed ingest contract: unknown
// avails are refused with the sentinel, retries of the same key on the
// same avail dedup (they always route to the same shard), and keys are
// scoped per shard — the documented sharded semantics.
func TestShardedIngestSemantics(t *testing.T) {
	sc, _, _ := shardedFixture(t, t.TempDir(), 4, DurableOptions{})
	defer sc.Close()
	ids := sc.AvailIDs()
	id := ids[0]
	r := deltaRCC(t, sc.shards[sc.ShardOf(id)].Catalog, id, 1)

	if _, err := sc.Ingest("", domain.RCC{ID: 1, AvailID: 999_999, Type: domain.Growth, SWLIN: 43411001, Created: 1, Settled: 2, Amount: 1}); !errors.Is(err, ErrUnknownAvail) {
		t.Fatalf("unknown-avail ingest error = %v, want ErrUnknownAvail", err)
	}
	if dup, err := sc.Ingest("same-key", r); err != nil || dup {
		t.Fatalf("first ingest: dup=%v err=%v", dup, err)
	}
	if dup, err := sc.Ingest("same-key", r); err != nil || !dup {
		t.Fatalf("retry on same shard: dup=%v err=%v, want dup=true", dup, err)
	}
	// A different avail on a different shard does not see the key: dedup
	// state is per shard (retries of one logical request always carry
	// the same avail id, so they route to the same shard).
	other := -1
	for _, cand := range ids[1:] {
		if sc.ShardOf(cand) != sc.ShardOf(id) {
			other = cand
			break
		}
	}
	if other < 0 {
		t.Skip("fixture fleet landed on one shard; no cross-shard pair to test")
	}
	r2 := deltaRCC(t, sc.shards[sc.ShardOf(other)].Catalog, other, 2)
	if dup, err := sc.Ingest("same-key", r2); err != nil || dup {
		t.Fatalf("same key on another shard: dup=%v err=%v, want fresh apply", dup, err)
	}
}

// TestShardedSteadyStateIngest pins the steady state of a 1- and a
// 2-shard tier under fsync-per-ack: once every ongoing engine is warm,
// each acknowledged ingest is folded in place on its owning shard — one
// delta apply per ack, no fallback, no rebuild — and the extended
// history answers queries.
func TestShardedSteadyStateIngest(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			sc, _, _ := shardedFixture(t, t.TempDir(), n, DurableOptions{WAL: wal.Options{Policy: wal.SyncAlways}})
			defer sc.Close()
			ongoing := sc.OngoingIDs()
			if len(ongoing) == 0 {
				t.Fatal("fixture fleet has no ongoing avails")
			}
			for _, id := range ongoing {
				if _, err := sc.Engine(id); err != nil {
					t.Fatalf("warm engine %d: %v", id, err)
				}
			}
			builds := shardSum(sc, (*Catalog).EngineBuilds)
			q := Query{Status: domain.Active, Agg: SumAmount}
			for i, id := range ongoing {
				r := deltaRCC(t, sc.shards[sc.ShardOf(id)].Catalog, id, i)
				if dup, err := sc.Ingest(fmt.Sprintf("steady-%d", i), r); err != nil || dup {
					t.Fatalf("ingest on avail %d: dup=%v err=%v", id, dup, err)
				}
				if _, err := sc.Eval(id, 60, q); err != nil {
					t.Fatalf("eval avail %d after ingest: %v", id, err)
				}
			}
			if got, want := shardSum(sc, (*Catalog).DeltaApplies), int64(len(ongoing)); got != want {
				t.Errorf("DeltaApplies = %d, want %d (one per ack)", got, want)
			}
			if got := shardSum(sc, (*Catalog).DeltaFallbacks); got != 0 {
				t.Errorf("DeltaFallbacks = %d, want 0", got)
			}
			if got := shardSum(sc, (*Catalog).EngineBuilds); got != builds {
				t.Errorf("EngineBuilds = %d, want %d (no rebuild after warm-up)", got, builds)
			}
			if got := sc.IngestedCount(); got != len(ongoing) {
				t.Errorf("IngestedCount = %d, want %d", got, len(ongoing))
			}
		})
	}
}

// TestShardedCloseReady pins lifecycle fan-out: a closed tier reports
// not-ready naming the shard, refuses ingests, and tolerates double
// Close.
func TestShardedCloseReady(t *testing.T) {
	sc, _, _ := shardedFixture(t, t.TempDir(), 4, DurableOptions{})
	if err := sc.Ready(); err != nil {
		t.Fatalf("fresh tier not ready: %v", err)
	}
	for i, sh := range sc.shards {
		if err := sh.Compact(); err != nil {
			t.Fatalf("compact shard %d: %v", i, err)
		}
		if err := sh.LastCompactError(); err != nil {
			t.Fatalf("shard %d LastCompactError after clean compact: %v", i, err)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	err := sc.Ready()
	if err == nil {
		t.Fatal("closed tier reports ready")
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("unready error %q does not name the shard", err)
	}
	ids := sc.AvailIDs()
	r := deltaRCC(t, sc.shards[sc.ShardOf(ids[0])].Catalog, ids[0], 3)
	if _, err := sc.Ingest("post-close", r); err == nil {
		t.Fatal("ingest on closed tier succeeded")
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestShardedRefusesSingleLogRoot is the zero-acked-loss gate for
// upgraded deployments. A root written by a single-catalog WAL (its own
// wal.log, or only snapshot.wal once compacted) must be refused with the
// migration named, and left byte-identical with no topology or shard
// directory created. After the documented move into shard-0000/, a
// one-shard tier restores every acknowledged ingest and answers exactly
// as the catalog that acknowledged them.
func TestShardedRefusesSingleLogRoot(t *testing.T) {
	for _, file := range []string{"wal.log", "snapshot.wal"} {
		t.Run(file, func(t *testing.T) {
			root := t.TempDir()
			ds, err := navsim.Generate(navsim.Config{NumClosed: 15, NumOngoing: 5, MeanRCCsPerAvail: 20, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			opts := DurableOptions{WAL: wal.Options{Policy: wal.SyncAlways}}
			d, _, err := OpenDurable(root, ds.Avails, ds.RCCs, index.KindAVL, opts)
			if err != nil {
				t.Fatal(err)
			}
			ids := d.AvailIDs()
			const acked = 6
			for i := 0; i < acked; i++ {
				if dup, err := d.Ingest(fmt.Sprintf("old-%d", i), deltaRCC(t, d.Catalog, ids[i%len(ids)], i)); err != nil || dup {
					t.Fatalf("ingest %d: dup=%v err=%v", i, dup, err)
				}
			}
			if file == "snapshot.wal" {
				// Fold every record into the snapshot and drop the
				// emptied log, so the snapshot alone marks the root.
				if err := d.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			want := evalFingerprint(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if file == "snapshot.wal" {
				if err := os.Remove(filepath.Join(root, "wal.log")); err != nil {
					t.Fatal(err)
				}
			}
			before := treeBytes(t, root)
			if _, ok := before[file]; !ok || len(before) != 1 {
				t.Fatalf("single-catalog root holds %v, want only %s", sortedKeys(before), file)
			}

			_, _, err = OpenSharded(root, 1, ds.Avails, ds.RCCs, index.KindAVL, opts)
			shard0 := filepath.Join(root, "shard-0000")
			if err == nil || !strings.Contains(err.Error(), "single-catalog WAL") || !strings.Contains(err.Error(), shard0) {
				t.Fatalf("OpenSharded over a single-catalog root: err = %v, want the migration into %s", err, shard0)
			}
			after := treeBytes(t, root)
			if len(after) != len(before) {
				t.Fatalf("refused open changed the root: %v, was %v", sortedKeys(after), sortedKeys(before))
			}
			for name, b := range before {
				if !bytes.Equal(after[name], b) {
					t.Fatalf("refused open modified %s", name)
				}
			}

			// The documented migration: move the root's WAL files into
			// shard-0000/ and reopen with one shard.
			if err := os.Mkdir(shard0, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(filepath.Join(root, file), filepath.Join(shard0, file)); err != nil {
				t.Fatal(err)
			}
			sc, info, err := OpenSharded(root, 1, ds.Avails, ds.RCCs, index.KindAVL, opts)
			if err != nil {
				t.Fatalf("reopen after migration: %v", err)
			}
			defer sc.Close()
			if got := sc.IngestedCount(); got != acked {
				t.Fatalf("IngestedCount after migration = %d, want %d acknowledged", got, acked)
			}
			if got := info.Totals().Restored; got != acked {
				t.Fatalf("restored %d records after migration, want %d", got, acked)
			}
			if !sameFingerprint(evalFingerprint(t, sc), want) {
				t.Fatal("migrated tier answers differ from the catalog that acknowledged the ingests")
			}
		})
	}
}

// treeBytes reads every regular file under root, keyed by its path
// relative to root.
func treeBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if e.IsDir() {
			out[rel+"/"] = nil
			return nil
		}
		b, err := os.ReadFile(path)
		out[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sortedKeys lists a tree's paths in order, for failure messages.
func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
