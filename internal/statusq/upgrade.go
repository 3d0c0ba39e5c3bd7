// upgrade.go is the one reader of the WAL format of earlier builds
// (topology version 1), and rewrites such a root once, per shard, in the
// current one; DESIGN.md §8.1 gives the steps and why the shard is the
// unit. In the old format each replica directory held wal.log, text
// frames "<crc32c hex8> <seq> <payload>\n" whose CRC covers
// "<seq> <payload>", and possibly snapshot.wal, one such frame whose seq
// is the last record it folds in. A payload is a packed record ('B' and
// the RawStdEncoding base64 of what encodeWALEntry writes), such records
// joined by spaces (a snapshot), or JSON: {"key":...,"rcc":{...}} or
// {"entries":[...]}.
package statusq

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"domd/internal/domain"
	"domd/internal/faultinject"
	"domd/internal/wal"
)

// Failpoint sites of the upgrade's steps: decode (per shard), write (per
// replica), commit, and remove (per replica).
const (
	failUpgradeDecode = "statusq.upgrade.decode"
	failUpgradeWrite  = "statusq.upgrade.write"
	failUpgradeCommit = "statusq.upgrade.commit"
	failUpgradeRemove = "statusq.upgrade.remove"
)

const (
	legacyLogName  = "wal.log"
	legacySnapName = "snapshot.wal"
)

var (
	legacyCRC = crc32.MakeTable(crc32.Castagnoli)
	legacyB64 = base64.RawStdEncoding
)

// holdsLegacy reports whether dir holds a log or snapshot in the old
// format.
func holdsLegacy(dir string) bool {
	return fileExists(filepath.Join(dir, legacyLogName)) || fileExists(filepath.Join(dir, legacySnapName))
}

// readLegacyReplica reads dir's old files, changing nothing, by the
// rules an earlier build's Open replayed them with, and returns the
// replica's last sequence and its payloads: the snapshot's, if any, then
// the log's records after it. A corrupt snapshot is an error; a torn or
// corrupt frame ends the log (that build cut it there); stale frames at
// or below the snapshot's sequence before the first record are skipped;
// an intact frame out of sequence is an error. A directory with neither
// file reads as an empty replica.
func readLegacyReplica(dir string) (uint64, [][]byte, error) {
	var seq uint64
	var payloads [][]byte
	b, err := os.ReadFile(filepath.Join(dir, legacySnapName))
	switch {
	case err == nil:
		var snap []byte
		if seq, snap, err = parseTextFrame(bytes.TrimSuffix(b, []byte("\n"))); err != nil {
			return 0, nil, fmt.Errorf("statusq: %s/%s is corrupt (%v)", dir, legacySnapName, err)
		}
		payloads = append(payloads, snap)
	case !errors.Is(err, os.ErrNotExist):
		return 0, nil, err
	}
	path := filepath.Join(dir, legacyLogName)
	if b, err = os.ReadFile(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, nil, err
	}
	snapSeq, nl := seq, []byte("\n")
	for line, rest, ok := bytes.Cut(b, nl); ok; line, rest, ok = bytes.Cut(rest, nl) {
		s, payload, err := parseTextFrame(line)
		switch {
		case err != nil:
			return seq, payloads, nil
		case s == seq+1:
			seq++
			payloads = append(payloads, payload)
		case s > snapSeq || seq > snapSeq:
			return 0, nil, fmt.Errorf("statusq: %s holds an intact record with sequence %d after %d", path, s, seq)
		}
	}
	return seq, payloads, nil
}

// parseTextFrame decodes one text frame (without its newline) into
// (seq, payload), verifying the CRC.
func parseTextFrame(line []byte) (uint64, []byte, error) {
	crcText, body, _ := bytes.Cut(line, []byte{' '})
	seqText, payload, ok := bytes.Cut(body, []byte{' '})
	crc, crcErr := strconv.ParseUint(string(crcText), 16, 32)
	seq, seqErr := strconv.ParseUint(string(seqText), 10, 64)
	if len(crcText) != 8 || !ok || crcErr != nil || seqErr != nil || crc32.Checksum(body, legacyCRC) != uint32(crc) {
		return 0, nil, errors.New("malformed frame or CRC mismatch")
	}
	return seq, payload, nil
}

// appendWALPayload decodes an old record or snapshot payload and appends
// its entries, in order, to dst: space-separated packed records (an
// empty payload is an empty history), or JSON.
func appendWALPayload(dst []walEntry, raw []byte) ([]walEntry, error) {
	if len(raw) > 0 && raw[0] == '{' {
		var legacy struct {
			Entries []struct {
				Key string     `json:"key"`
				RCC domain.RCC `json:"rcc"`
			} `json:"entries"`
			Key string      `json:"key"`
			RCC *domain.RCC `json:"rcc"`
		}
		if err := json.Unmarshal(raw, &legacy); err != nil {
			return nil, fmt.Errorf("statusq: decode JSON WAL payload: %w", err)
		}
		for _, e := range legacy.Entries {
			dst = append(dst, walEntry{Key: e.Key, RCC: e.RCC})
		}
		if legacy.RCC != nil {
			dst = append(dst, walEntry{Key: legacy.Key, RCC: *legacy.RCC})
		}
		return dst, nil
	}
	if len(raw) == 0 {
		return dst, nil
	}
	for more := true; more; {
		var rec []byte
		rec, raw, more = bytes.Cut(raw, []byte{' '})
		if len(rec) == 0 || rec[0] != 'B' {
			return nil, fmt.Errorf("statusq: unknown WAL record version in %q", rec)
		}
		body, err := legacyB64.AppendDecode(nil, rec[1:])
		if err != nil {
			return nil, fmt.Errorf("statusq: unwrap WAL record: %w", err)
		}
		e, err := decodeWALEntry(body)
		if err != nil {
			return nil, err
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// decodeShard reads one shard's old files, changing nothing, adopts the
// replica an earlier build would have (the highest sequence among the
// readable ones), and returns its entries encoded as the new log's
// payloads: nil when no replica holds an old file, non-nil though empty
// for an empty history.
func decodeShard(dirs []string) ([][]byte, error) {
	if !slices.ContainsFunc(dirs, holdsLegacy) {
		return nil, nil
	}
	if err := faultinject.Fire(failUpgradeDecode); err != nil {
		return nil, err
	}
	var auth [][]byte
	var authSeq uint64
	var errs []error
	found := false
	for _, dir := range dirs {
		seq, payloads, err := readLegacyReplica(dir)
		if err != nil {
			errs = append(errs, err)
		} else if !found || seq > authSeq {
			auth, authSeq, found = payloads, seq, true
		}
	}
	if !found {
		return nil, fmt.Errorf("no replica of %v is readable: %w", dirs, errors.Join(errs...))
	}
	out := [][]byte{}
	for _, p := range auth {
		entries, err := appendWALPayload(nil, p)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			out = append(out, encodeWALEntry(e))
		}
	}
	return out, nil
}

// writeShard writes the same new log to every replica directory of a
// shard, unless its payloads are nil.
func writeShard(dirs []string, payloads [][]byte) error {
	for _, dir := range dirs {
		if payloads == nil {
			break
		}
		if err := faultinject.Fire(failUpgradeWrite); err != nil {
			return err
		}
		if err := wal.WriteLog(dir, payloads); err != nil {
			return err
		}
	}
	return nil
}

// removeLegacy removes the old files of a replica directory of a
// committed root. A directory holding old files but no new log is left
// as it is (opening it refuses): nothing vouches that they were upgraded.
func removeLegacy(dir string) error {
	if !holdsLegacy(dir) || !fileExists(filepath.Join(dir, wal.LogFile)) {
		return nil
	}
	if err := faultinject.Fire(failUpgradeRemove); err != nil {
		return err
	}
	for _, name := range []string{legacyLogName, legacySnapName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}
