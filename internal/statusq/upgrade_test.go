package statusq

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"domd/internal/faultinject"
	"domd/internal/index"
	"domd/internal/navsim"
	"domd/internal/wal"
)

// legacyWant is what the build that wrote a testdata/legacy root
// restored from it (see testdata/legacy/README).
type legacyWant struct {
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
	Counts   []struct {
		Restored, Duplicates, Skipped int
	} `json:"counts"`
	Fingerprint string   `json:"fingerprint"`
	Keys        []string `json:"keys"`
}

// legacyWants reads testdata/legacy/want.json.
func legacyWants(t *testing.T) map[string]legacyWant {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy", "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var w map[string]legacyWant
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	return w
}

// legacyDataset is the fleet the testdata/legacy roots were written over.
func legacyDataset(t *testing.T) *navsim.Dataset {
	t.Helper()
	ds, err := navsim.Generate(navsim.Config{NumClosed: 15, NumOngoing: 3, MeanRCCsPerAvail: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// legacyEntry is the entry the writing build ingested under key "k<n>"
// (or "old-<n>"); other keys ending in a number name fresh entries.
func legacyEntry(t *testing.T, ref *Catalog, key string) walEntry {
	t.Helper()
	n, err := strconv.Atoi(key[strings.IndexAny(key, "0123456789"):])
	if err != nil {
		t.Fatal(err)
	}
	ids := ref.AvailIDs()
	return walEntry{Key: key, RCC: deltaRCC(t, ref, ids[n%len(ids)], n)}
}

// copyLegacyRoot copies testdata/legacy/name into a fresh directory.
func copyLegacyRoot(t *testing.T, name string) string {
	t.Helper()
	root := t.TempDir()
	if out, err := exec.Command("cp", "-a", filepath.Join("testdata", "legacy", name)+"/.", root).CombinedOutput(); err != nil {
		t.Fatalf("copy %s: %v\n%s", name, err, out)
	}
	return root
}

// fingerprintHash is the SHA-256 of a fingerprint's bits, the form
// want.json records.
func fingerprintHash(bits []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range bits {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkLegacyWant fails unless an open tier restored exactly what the
// writing build restored: the same per-shard counts and a bitwise-equal
// fingerprint.
func checkLegacyWant(t *testing.T, sc *ShardedCatalog, info *ShardedRestoreInfo, want legacyWant) {
	t.Helper()
	if len(info.Shards) != len(want.Counts) {
		t.Fatalf("%d shards restored, want %d", len(info.Shards), len(want.Counts))
	}
	for i, sh := range info.Shards {
		w := want.Counts[i]
		if sh.Info.Restored != w.Restored || sh.Info.Duplicates != w.Duplicates || sh.Info.Skipped != w.Skipped {
			t.Fatalf("shard %d restored %d/%d/%d (restored/duplicates/skipped), want %d/%d/%d",
				i, sh.Info.Restored, sh.Info.Duplicates, sh.Info.Skipped, w.Restored, w.Duplicates, w.Skipped)
		}
	}
	if got := fingerprintHash(evalFingerprint(t, sc)); got != want.Fingerprint {
		t.Fatalf("fingerprint %s, want %s", got, want.Fingerprint)
	}
}

// checkUpgradedRoot fails unless root is committed in the current
// format: topology version 2, no old file left, and within each shard
// the same log in every replica.
func checkUpgradedRoot(t *testing.T, root string, shards, replicas int) {
	t.Helper()
	if top := readTopologyT(t, root); top.Version != topologyVersion {
		t.Fatalf("topology version %d, want %d", top.Version, topologyVersion)
	}
	for i := 0; i < shards; i++ {
		var first []byte
		for j, dir := range wal.ReplicaDirs(shardDir(root, i), replicas) {
			if holdsLegacy(dir) {
				t.Fatalf("%s still holds old files", dir)
			}
			b, err := os.ReadFile(filepath.Join(dir, wal.LogFile))
			if err != nil {
				t.Fatal(err)
			}
			if j == 0 {
				first = b
			} else if !bytes.Equal(b, first) {
				t.Fatalf("%s holds a different log than its shard's first replica", dir)
			}
		}
	}
}

// TestDurableLegacyJSONRootReplays upgrades roots an earlier build wrote
// (testdata/legacy): JSON snapshots and JSON records, or packed
// snapshots, each followed by packed records, with a crash-window
// duplicate and an orphan on every shard, at one replica and at three
// (where one replica has a torn tail and another is two records behind).
// Each opens with the writing build's counts and fingerprint; every
// acknowledged key still deduplicates; a new ingest lands in the new
// log; and a reopen, which upgrades nothing, restores the same state.
func TestDurableLegacyJSONRootReplays(t *testing.T) {
	wants := legacyWants(t)
	ds := legacyDataset(t)
	ref, err := NewCatalog(ds.Avails, ds.RCCs)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"json", "packed"} {
		t.Run(format, func(t *testing.T) {
			for _, r := range []int{1, 3} {
				t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
					name := fmt.Sprintf("%s-r%d", format, r)
					want := wants[name]
					root := copyLegacyRoot(t, name)
					opts := DurableOptions{Replicas: r, WAL: wal.Options{Policy: wal.SyncNever}}
					sc, info, err := OpenSharded(root, want.Shards, ds.Avails, ds.RCCs, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !info.Upgraded {
						t.Fatal("a root of an earlier build opened without an upgrade")
					}
					checkLegacyWant(t, sc, info, want)
					checkUpgradedRoot(t, root, want.Shards, r)
					for _, key := range want.Keys {
						e := legacyEntry(t, ref, key)
						if dup, err := sc.Ingest(e.Key, e.RCC); err != nil || !dup {
							t.Fatalf("acknowledged key %s: dup=%v err=%v, want dup", key, dup, err)
						}
					}
					fresh := legacyEntry(t, ref, "fresh-500")
					if dup, err := sc.Ingest(fresh.Key, fresh.RCC); err != nil || dup {
						t.Fatalf("fresh ingest: dup=%v err=%v", dup, err)
					}
					fp := evalFingerprint(t, sc)
					if err := sc.Close(); err != nil {
						t.Fatal(err)
					}
					shard := sc.ShardOf(fresh.RCC.AvailID)
					for _, dir := range wal.ReplicaDirs(shardDir(root, shard), r) {
						l, rec, err := wal.Open(dir, wal.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if err := l.Close(); err != nil {
							t.Fatal(err)
						}
						last, err := decodeWALEntry(rec.Entries[len(rec.Entries)-1])
						if err != nil || !sameEntries([]walEntry{last}, []walEntry{fresh}) {
							t.Fatalf("%s ends with %+v (err=%v), want the fresh ingest", dir, last, err)
						}
					}

					sc2, info2, err := OpenSharded(root, want.Shards, ds.Avails, ds.RCCs, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer sc2.Close()
					if info2.Upgraded {
						t.Fatal("an upgraded root was upgraded again")
					}
					tot, wantTot := info2.Totals(), 1
					for _, c := range want.Counts {
						wantTot += c.Restored
					}
					if tot.Restored != wantTot {
						t.Fatalf("reopen restored %d, want %d", tot.Restored, wantTot)
					}
					if !sameFingerprint(evalFingerprint(t, sc2), fp) {
						t.Fatal("reopened root answers differ")
					}
				})
			}
		})
	}
}

// TestChaosUpgradeKillAtEveryFailpoint kills the upgrade (a panicking hook)
// at every firing of every upgrade failpoint, on a one-replica and a
// three-replica root. The root it leaves is the old one (topology
// version 1 and every old file byte-identical) or the new one (version
// 2 and a log in every replica directory), never a mix, and the next
// open restores the writing build's counts and fingerprint.
func TestChaosUpgradeKillAtEveryFailpoint(t *testing.T) {
	defer faultinject.Reset()
	wants := legacyWants(t)
	ds := legacyDataset(t)
	sites := []string{failUpgradeDecode, failUpgradeWrite, failUpgradeCommit, failUpgradeRemove}
	for _, name := range []string{"json-r3", "packed-r1"} {
		want := wants[name]
		opts := DurableOptions{Replicas: want.Replicas, WAL: wal.Options{Policy: wal.SyncNever}}
		open := func(root string) (sc *ShardedCatalog, info *ShardedRestoreInfo, err error, killed bool) {
			defer func() {
				if r := recover(); r != nil {
					killed = true
				}
			}()
			sc, info, err = OpenSharded(root, want.Shards, ds.Avails, ds.RCCs, opts)
			return sc, info, err, false
		}

		// Count each site's firings over a clean upgrade.
		fired := map[string]int{}
		for _, site := range sites {
			faultinject.Arm(site, func() error { fired[site]++; return nil })
		}
		sc, _, err, _ := open(copyLegacyRoot(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		faultinject.Reset()

		old := treeBytes(t, filepath.Join("testdata", "legacy", name))
		for _, site := range sites {
			if fired[site] == 0 {
				t.Fatalf("%s: %s never fired", name, site)
			}
			for k := 1; k <= fired[site]; k++ {
				t.Run(fmt.Sprintf("%s/%s#%d", name, site, k), func(t *testing.T) {
					defer faultinject.Reset()
					root := copyLegacyRoot(t, name)
					n := 0
					faultinject.Arm(site, func() error {
						if n++; n == k {
							panic("killed at " + site)
						}
						return nil
					})
					if _, _, _, killed := open(root); !killed {
						t.Fatal("the armed kill never fired")
					}
					faultinject.Reset()

					switch v := readTopologyT(t, root).Version; v {
					case 1:
						now := treeBytes(t, root)
						for file, b := range old {
							if got, ok := now[file]; !ok || !bytes.Equal(got, b) {
								t.Fatalf("killed before the commit, old file %s changed", file)
							}
						}
					case topologyVersion:
						for i := 0; i < want.Shards; i++ {
							for _, dir := range wal.ReplicaDirs(shardDir(root, i), want.Replicas) {
								if !fileExists(filepath.Join(dir, wal.LogFile)) {
									t.Fatalf("committed root lacks the log of %s", dir)
								}
							}
						}
					default:
						t.Fatalf("topology version %d after the kill", v)
					}

					sc, info, err, _ := open(root)
					if err != nil {
						t.Fatalf("reopen after the kill: %v", err)
					}
					defer sc.Close()
					checkLegacyWant(t, sc, info, want)
					checkUpgradedRoot(t, root, want.Shards, want.Replicas)
				})
			}
		}
	}
}

// TestUpgradeRefusesCorruptSnapshot flips a byte of a snapshot an earlier
// build wrote. At one replica nothing decodable is left, so the upgrade
// refuses and leaves the root byte-identical, with no new log; at three,
// the damaged replica is passed over as that build passed it over, and
// the root upgrades to the same state.
func TestUpgradeRefusesCorruptSnapshot(t *testing.T) {
	wants := legacyWants(t)
	ds := legacyDataset(t)
	for _, name := range []string{"packed-r1", "json-r3"} {
		t.Run(name, func(t *testing.T) {
			want := wants[name]
			root := copyLegacyRoot(t, name)
			path := filepath.Join(wal.ReplicaDirs(shardDir(root, 1), want.Replicas)[0], legacySnapName)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-3] ^= 0x20
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			before := treeBytes(t, root)
			opts := DurableOptions{Replicas: want.Replicas, WAL: wal.Options{Policy: wal.SyncNever}}
			sc, info, err := OpenSharded(root, want.Shards, ds.Avails, ds.RCCs, opts)
			if want.Replicas == 1 {
				if err == nil || !strings.Contains(err.Error(), "corrupt") {
					t.Fatalf("upgrade over a corrupt snapshot: err = %v, want a refusal", err)
				}
				sameTree(t, root, before)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			checkLegacyWant(t, sc, info, want)
			checkUpgradedRoot(t, root, want.Shards, want.Replicas)
		})
	}
}

// textFrame is one frame of the old log format.
func textFrame(seq uint64, payload []byte) []byte {
	body := append(strconv.AppendUint(nil, seq, 10), ' ')
	body = append(body, payload...)
	return append(fmt.Appendf(nil, "%08x ", crc32.Checksum(body, legacyCRC)), append(body, '\n')...)
}

// TestUpgradeSkipsRecordsFoldedIntoSnapshot puts back in front of an
// earlier build's log the frames its snapshot folds in, as a crash
// between the snapshot's rename and the log's truncation left them: the
// upgrade skips them, as that build's replay did.
func TestUpgradeSkipsRecordsFoldedIntoSnapshot(t *testing.T) {
	want := legacyWants(t)["packed-r1"]
	ds := legacyDataset(t)
	root := copyLegacyRoot(t, "packed-r1")
	for i := 0; i < want.Shards; i++ {
		dir := shardDir(root, i)
		snap, err := os.ReadFile(filepath.Join(dir, legacySnapName))
		if err != nil {
			t.Fatal(err)
		}
		snapSeq, _, err := parseTextFrame(bytes.TrimSuffix(snap, []byte("\n")))
		if err != nil {
			t.Fatal(err)
		}
		var stale []byte
		for seq := uint64(1); seq <= snapSeq; seq++ {
			stale = append(stale, textFrame(seq, []byte("folded"))...)
		}
		log, err := os.ReadFile(filepath.Join(dir, legacyLogName))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, legacyLogName), append(stale, log...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sc, info, err := OpenSharded(root, want.Shards, ds.Avails, ds.RCCs, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	checkLegacyWant(t, sc, info, want)
}

// TestOpenDurableRefusesLegacyDir pins that only OpenSharded upgrades:
// OpenDurable over a directory an earlier build wrote refuses, names the
// upgrade, and changes nothing.
func TestOpenDurableRefusesLegacyDir(t *testing.T) {
	ds := legacyDataset(t)
	for _, name := range []string{"single-wal.log", "single-snapshot.wal"} {
		dir := copyLegacyRoot(t, name)
		before := treeBytes(t, dir)
		_, _, err := OpenDurable(dir, ds.Avails, ds.RCCs, index.KindAVL, DurableOptions{})
		if err == nil || !strings.Contains(err.Error(), "OpenSharded") {
			t.Fatalf("%s: OpenDurable = %v, want a refusal naming the upgrade", name, err)
		}
		sameTree(t, dir, before)
	}
}

// TestShardedTopologyValidation feeds topologies this build cannot read:
// each is refused with the root left as it was. A root at version 1 with
// no old file is committed at version 2.
func TestShardedTopologyValidation(t *testing.T) {
	ds := legacyDataset(t)
	for _, raw := range []string{
		`{"version":3,"shards":1,"replicas":128,"wal_replicas":1}`,
		`{"version":0,"shards":1,"replicas":128}`,
		`{"shards":1,"replicas":128}`,
		`{"version":2,"shards":0,"replicas":128}`,
		`{"version":2,"shards":1,"replicas":-128}`,
		`{"version":2,"shards":1,"replicas":128,"wal_replicas":-1}`,
		`{"version":2,"shards":1`,
		`[]`,
	} {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, topologyFile), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		before := treeBytes(t, root)
		if sc, _, err := OpenSharded(root, 1, ds.Avails, ds.RCCs, DurableOptions{}); err == nil {
			sc.Close()
			t.Fatalf("topology %s accepted", raw)
		}
		sameTree(t, root, before)
	}

	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, topologyFile), []byte(`{"version":1,"shards":2,"replicas":128}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, info, err := OpenSharded(root, 2, ds.Avails, ds.RCCs, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if !info.Upgraded || readTopologyT(t, root).Version != topologyVersion {
		t.Fatalf("empty version-1 root: upgraded=%v, topology %+v", info.Upgraded, readTopologyT(t, root))
	}
}

// FuzzTopology checks the topology decoder on any bytes: it refuses
// them, or decodes them to a topology that encodes and decodes back to
// itself, with a known version and positive counts. Bytes it refuses,
// pinned as a root's topology.json, make OpenSharded refuse the root
// and leave it as it was.
func FuzzTopology(f *testing.F) {
	f.Add([]byte(`{"version":2,"shards":4,"replicas":128,"wal_replicas":3}`))
	f.Add([]byte(`{"version":1,"shards":1,"replicas":128}`))
	f.Add([]byte(`{"version":9,"shards":1,"replicas":128}`))
	f.Add([]byte(`{"version":2,"shards":-1,"replicas":128}`))
	f.Add([]byte(`{"version":2,"Shards":1,"shards":2,"replicas":128,"extra":true}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		top, err := decodeTopology(raw)
		if err != nil {
			root := t.TempDir()
			if err := os.WriteFile(filepath.Join(root, topologyFile), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := pinTopology(root, 1, 1); err == nil {
				t.Fatalf("pinTopology accepted %q, which decodeTopology refuses", raw)
			}
			if b, err := os.ReadFile(filepath.Join(root, topologyFile)); err != nil || !bytes.Equal(b, raw) {
				t.Fatalf("refused topology rewritten (err=%v)", err)
			}
			if ents, _ := os.ReadDir(root); len(ents) != 1 {
				t.Fatalf("refused root holds %d entries, want only %s", len(ents), topologyFile)
			}
			return
		}
		if (top.Version != 1 && top.Version != topologyVersion) || top.Shards < 1 || top.Replicas < 1 || top.WALReplicas < 1 {
			t.Fatalf("decoded %+v from %q", top, raw)
		}
		enc, err := json.Marshal(top)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeTopology(enc)
		if err != nil || again != top {
			t.Fatalf("round trip %+v -> %s -> %+v (err=%v)", top, enc, again, err)
		}
	})
}

// legacyPack is a record in the old packed form.
func legacyPack(e walEntry) []byte {
	return append([]byte{'B'}, legacyB64.AppendEncode(nil, encodeWALEntry(e))...)
}

// FuzzUpgrade upgrades a one-shard, one-replica root at version 1
// holding fuzzed old files. When n's high bit is set, raw is the whole
// wal.log; otherwise raw is the payload of a snapshot at sequence n%16,
// followed by a log of n%8 records built from the fuzzed fields, packed
// and, where JSON can carry them, JSON in turn. The invariant: when the
// old reader refuses the replica, OpenSharded refuses the root and
// leaves it byte-identical, with no new log; otherwise it commits the
// root at version 2 with no old file left, and the new log replays to
// exactly the entries the old reader decodes.
func FuzzUpgrade(f *testing.F) {
	entries := []walEntry{
		fuzzEntry("k-1", 42, 7, 0, 43411001, 100, 250, 0x40934a0000000000),
		fuzzEntry("", -3, 1, 1, 0, -10, 0, 0x7ff0000000000000),
	}
	var log []byte
	for i, e := range entries {
		log = append(log, textFrame(uint64(i+1), legacyPack(e))...)
	}
	f.Add(log, uint8(0x80), "", int64(0), int64(0), uint64(0))
	f.Add(log[:len(log)-3], uint8(0x80), "", int64(0), int64(0), uint64(0)) // torn tail
	f.Add(append(textFrame(1, legacyPack(entries[0])), textFrame(3, legacyPack(entries[1]))...), uint8(0x80), "", int64(0), int64(0), uint64(0))
	f.Add(append(textFrame(0, []byte("folded")), log...), uint8(0x80), "", int64(0), int64(0), uint64(0))
	f.Add(append(bytes.Clone(log), textFrame(3, []byte("{not json"))...), uint8(0x80), "", int64(0), int64(0), uint64(0))

	f.Fuzz(func(t *testing.T, raw []byte, n uint8, key string, id, created int64, amount uint64) {
		root := t.TempDir()
		dir := shardDir(root, 0)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, topologyFile), []byte(`{"version":1,"shards":1,"replicas":128,"wal_replicas":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
		logBytes := raw
		if n&0x80 == 0 {
			snapSeq := uint64(n % 16)
			if err := os.WriteFile(filepath.Join(dir, legacySnapName), textFrame(snapSeq, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			logBytes = nil
			for i := 0; i < int(n%8); i++ {
				d := int64(i)
				e := fuzzEntry(key+strconv.Itoa(i), id+d, id-d, d%3, id^d, created, created+d, amount+uint64(i))
				payload := legacyPack(e)
				if i%2 == 1 {
					js, err := json.Marshal(struct {
						Key string `json:"key"`
						RCC any    `json:"rcc"`
					}{e.Key, e.RCC})
					if err == nil {
						payload = js
					}
				}
				logBytes = append(logBytes, textFrame(snapSeq+uint64(i)+1, payload)...)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, legacyLogName), logBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		before := treeBytes(t, root)
		var want []walEntry
		_, payloads, oldErr := readLegacyReplica(dir)
		for _, p := range payloads {
			if oldErr == nil {
				want, oldErr = appendWALPayload(want, p)
			}
		}

		sc, _, err := OpenSharded(root, 1, nil, nil, DurableOptions{WAL: wal.Options{Policy: wal.SyncNever}})
		if oldErr != nil {
			if err == nil {
				sc.Close()
				t.Fatalf("upgrade accepted a replica the old reader refuses (%v)", oldErr)
			}
			sameTree(t, root, before)
			return
		}
		if err != nil {
			t.Fatalf("upgrade refused a replica the old reader decodes: %v", err)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		checkUpgradedRoot(t, root, 1, 1)
		l, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got := make([]walEntry, len(rec.Entries))
		for i, p := range rec.Entries {
			if got[i], err = decodeWALEntry(p); err != nil {
				t.Fatal(err)
			}
		}
		if !sameEntries(got, want) {
			t.Fatalf("upgraded log replays %d entries, the old reader decodes %d", len(got), len(want))
		}
	})
}
