package statusq

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"unicode/utf8"

	"domd/internal/domain"
)

func TestWALCodecRoundTrip(t *testing.T) {
	cases := []walEntry{
		{},
		{Key: "k-1", RCC: domain.RCC{
			ID: 42, AvailID: 7, Type: domain.Growth, SWLIN: 43411001,
			Created: 100, Settled: 250, Amount: 1234.5,
		}},
		{Key: "", RCC: domain.RCC{ID: -3, AvailID: 1, Created: -10, Settled: 0, Amount: math.Inf(1)}},
		{Key: "unicode-κλειδί", RCC: domain.RCC{ID: 1 << 40, AvailID: 9, Amount: -0.0}},
	}
	for i, e := range cases {
		raw := encodeWALEntry(e)
		if len(raw) == 0 || raw[0] != walEntryV1 {
			t.Fatalf("case %d: bad frame %v", i, raw)
		}
		got, err := decodeWALEntry(raw)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Key != e.Key || got.RCC != e.RCC {
			// NaN never compares equal; none of the cases uses it.
			t.Fatalf("case %d: round trip mismatch: got %+v want %+v", i, got, e)
		}
	}
}

// TestWALCodecLegacyJSON proves logs written by builds that marshalled
// records as JSON still replay: the payload decoder sniffs the leading
// '{'.
func TestWALCodecLegacyJSON(t *testing.T) {
	want := walEntry{Key: "legacy", RCC: domain.RCC{
		ID: 9, AvailID: 3, Type: domain.Growth, SWLIN: 43411001,
		Created: 50, Settled: 80, Amount: 900,
	}}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeWALPayload(raw)
	if err != nil {
		t.Fatalf("decode legacy JSON record: %v", err)
	}
	if len(got) != 1 || got[0].Key != want.Key || got[0].RCC != want.RCC {
		t.Fatalf("legacy decode mismatch: got %+v want %+v", got, want)
	}
}

func TestWALCodecRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{0x7f},                                  // unknown version byte
		{walEntryV1},                            // missing key length
		{walEntryV1, 0xff},                      // truncated varint
		{walEntryV1, 0x05, 'a'},                 // key shorter than its declared length
		encodeWALEntry(walEntry{Key: "x"})[:10], // truncated mid-fields
		append(encodeWALEntry(walEntry{Key: "x"}), 0x00), // trailing junk
	}
	for i, raw := range bad {
		if _, err := decodeWALEntry(raw); err == nil {
			t.Fatalf("case %d: decode %v succeeded, want error", i, raw)
		}
	}
}

// sameEntries reports whether two entry lists are identical, comparing
// amounts by their bits so NaN payloads and -0 count too.
func sameEntries(a, b []walEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || math.Float64bits(x.RCC.Amount) != math.Float64bits(y.RCC.Amount) {
			return false
		}
		x.RCC.Amount, y.RCC.Amount = 0, 0
		if x.RCC != y.RCC {
			return false
		}
	}
	return true
}

// packHistory encodes entries the way a snapshot stores them.
func packHistory(entries []walEntry) []byte {
	var h []byte
	for _, e := range entries {
		h = appendWALHistory(h, encodeWALEntry(e))
	}
	return h
}

// checkReencode asserts the invariant every accepted payload must keep:
// packing its entries and decoding them again gives the same entries.
func checkReencode(t *testing.T, entries []walEntry) {
	t.Helper()
	again, err := decodeWALPayload(packHistory(entries))
	if err != nil {
		t.Fatalf("re-encoded payload rejected: %v", err)
	}
	if !sameEntries(again, entries) {
		t.Fatalf("re-encode changed entries: %+v -> %+v", entries, again)
	}
}

// fuzzEntry builds an entry from fuzzer-chosen fields.
func fuzzEntry(key string, id, availID, typ, swlin, created, settled int64, amount uint64) walEntry {
	return walEntry{Key: key, RCC: domain.RCC{
		ID: int(id), AvailID: int(availID), Type: domain.RCCType(typ), SWLIN: int(swlin),
		Created: domain.Day(created), Settled: domain.Day(settled), Amount: math.Float64frombits(amount),
	}}
}

// checkFolds asserts the invariant between the WAL decoder and the
// engines replay feeds: a decoded record either fails Validate, so replay
// skips it, or folds into an engine whose sweep advances without a panic.
func checkFolds(t *testing.T, e walEntry) {
	t.Helper()
	if e.RCC.Validate() != nil {
		return
	}
	a := &domain.Avail{ID: e.RCC.AvailID, Status: domain.StatusOngoing, PlanStart: 0, PlanEnd: 100, ActStart: 0}
	eng, err := NewEngine(a, []domain.RCC{e.RCC})
	if err != nil {
		t.Fatalf("NewEngine refused valid record %+v: %v", e.RCC, err)
	}
	sw := eng.Sweep()
	defer sw.Release()
	if err := sw.AdvanceTo(100); err != nil {
		t.Fatalf("sweep over valid record %+v: %v", e.RCC, err)
	}
}

// FuzzWALRecord fuzzes the record decoders with raw bytes (never panic;
// whatever is accepted survives a re-encode, and fails Validate or folds
// into an engine) and the record codec with structured fields
// (decode(encode(x)) == x, the record stays one space- and newline-free
// frame, and x too fails Validate or folds).
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, key string, id, availID, typ, swlin, created, settled int64, amount uint64) {
		if e, err := decodeWALEntry(raw); err == nil {
			checkReencode(t, []walEntry{e})
			checkFolds(t, e)
		}
		if entries, err := decodeWALPayload(raw); err == nil {
			checkReencode(t, entries)
			for _, e := range entries {
				checkFolds(t, e)
			}
		}

		x := fuzzEntry(key, id, availID, typ, swlin, created, settled, amount)
		rec := encodeWALEntry(x)
		if bytes.ContainsAny(rec, " \n") {
			t.Fatalf("record %q holds a separator", rec)
		}
		got, err := decodeWALEntry(rec)
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", x, err)
		}
		if !sameEntries([]walEntry{got}, []walEntry{x}) {
			t.Fatalf("decode(encode(%+v)) = %+v", x, got)
		}
		checkFolds(t, x)
	})
}

// FuzzWALSnapshot fuzzes the snapshot decoder with raw bytes (never
// panic; whatever is accepted survives a re-encode) and with histories
// built from n records derived from the fuzzed fields: the packed
// history decodes to those records in order, and so does its legacy
// JSON form.
func FuzzWALSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, key string, id, created int64, amount uint64) {
		if entries, err := decodeWALPayload(raw); err == nil {
			checkReencode(t, entries)
		}

		entries := make([]walEntry, n%32)
		for i := range entries {
			d := int64(i)
			entries[i] = fuzzEntry(key+strconv.Itoa(i), id+d, id-d, d%3, id^d, created, created+d, amount+uint64(i))
		}
		got, err := decodeWALPayload(packHistory(entries))
		if err != nil {
			t.Fatalf("packed history rejected: %v", err)
		}
		if !sameEntries(got, entries) {
			t.Fatalf("packed history decoded to %+v, want %+v", got, entries)
		}

		// JSON cannot carry NaN or infinities and rewrites invalid UTF-8,
		// so only those histories have a faithful legacy form.
		legacy, err := json.Marshal(struct {
			Entries []walEntry `json:"entries"`
		}{entries})
		if err != nil || !utf8.ValidString(key) {
			return
		}
		fromJSON, err := decodeWALPayload(legacy)
		if err != nil {
			t.Fatalf("legacy JSON snapshot rejected: %v", err)
		}
		if !sameEntries(fromJSON, got) {
			t.Fatalf("legacy JSON snapshot decoded to %+v, packed form to %+v", fromJSON, got)
		}
	})
}
