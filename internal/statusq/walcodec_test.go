package statusq

import (
	"math"
	"testing"

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
		got, err := decodeWALEntry(encodeWALEntry(e))
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
// records as JSON still upgrade: the old payload decoder sniffs the
// leading '{'.
func TestWALCodecLegacyJSON(t *testing.T) {
	want := walEntry{Key: "legacy", RCC: domain.RCC{
		ID: 9, AvailID: 3, Type: domain.Growth, SWLIN: 43411001,
		Created: 50, Settled: 80, Amount: 900,
	}}
	raw := []byte(`{"key":"legacy","rcc":{"ID":9,"AvailID":3,"Type":0,"SWLIN":43411001,"Created":50,"Settled":80,"Amount":900}}`)
	got, err := appendWALPayload(nil, raw)
	if err != nil {
		t.Fatalf("decode legacy JSON record: %v", err)
	}
	if len(got) != 1 || got[0].Key != want.Key || got[0].RCC != want.RCC {
		t.Fatalf("legacy decode mismatch: got %+v want %+v", got, want)
	}
}

func TestWALCodecRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,                                     // missing key length
		{0x7f},                                  // key shorter than its declared length
		{0xff},                                  // truncated varint
		{0x05, 'a'},                             // key shorter than its declared length
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

// checkReencode asserts the invariant every accepted record must keep:
// encoding it and decoding it again gives the same entry.
func checkReencode(t *testing.T, e walEntry) {
	t.Helper()
	again, err := decodeWALEntry(encodeWALEntry(e))
	if err != nil {
		t.Fatalf("re-encoded record rejected: %v", err)
	}
	if !sameEntries([]walEntry{again}, []walEntry{e}) {
		t.Fatalf("re-encode changed the entry: %+v -> %+v", e, again)
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

// FuzzWALRecord fuzzes the record decoder with raw bytes (never panic;
// whatever is accepted survives a re-encode, and fails Validate or folds
// into an engine) and the record codec with structured fields
// (decode(encode(x)) == x, and x too fails Validate or folds).
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, key string, id, availID, typ, swlin, created, settled int64, amount uint64) {
		if e, err := decodeWALEntry(raw); err == nil {
			checkReencode(t, e)
			checkFolds(t, e)
		}

		x := fuzzEntry(key, id, availID, typ, swlin, created, settled, amount)
		got, err := decodeWALEntry(encodeWALEntry(x))
		if err != nil {
			t.Fatalf("decode(encode(%+v)): %v", x, err)
		}
		if !sameEntries([]walEntry{got}, []walEntry{x}) {
			t.Fatalf("decode(encode(%+v)) = %+v", x, got)
		}
		checkFolds(t, x)
	})
}
