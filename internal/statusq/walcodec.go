// walcodec.go is the one wire format for WAL records.
//
// Every acknowledged ingest appends one walEntry to the log, so the
// codec sits on the hot path of the durable ingest tier. A record is
// varint-packed and then base64-wrapped, because the log is line-framed
// (payloads must be newline-free; see wal.Log.Append). Nothing writes
// snapshots any more, but roots written by earlier builds may hold one:
// the packed records of the history it folds in, joined by single spaces
// (the base64 alphabet has neither spaces nor newlines, so the history
// was one valid frame). Decoding accepts either shape through
// appendWALPayload, plus one read-only branch for the JSON that still
// earlier builds wrote (snapshots, and records before the packed
// format), sniffed by its leading '{'.
package statusq

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"domd/internal/domain"
)

// walEntryV1 tags a packed walEntry: the tag byte followed by the
// base64 (RawStdEncoding) of the varint-packed fields. The alphabet has
// no spaces or newlines, and the tag must never collide with '{' (0x7b),
// the first byte of every legacy JSON payload.
const walEntryV1 = 'B'

var walB64 = base64.RawStdEncoding

// encodeWALEntry marshals e in the packed record format.
func encodeWALEntry(e walEntry) []byte {
	body := make([]byte, 0, 56+len(e.Key))
	body = binary.AppendUvarint(body, uint64(len(e.Key)))
	body = append(body, e.Key...)
	body = binary.AppendVarint(body, int64(e.RCC.ID))
	body = binary.AppendVarint(body, int64(e.RCC.AvailID))
	body = binary.AppendVarint(body, int64(e.RCC.Type))
	body = binary.AppendVarint(body, int64(e.RCC.SWLIN))
	body = binary.AppendVarint(body, int64(e.RCC.Created))
	body = binary.AppendVarint(body, int64(e.RCC.Settled))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(e.RCC.Amount))

	out := make([]byte, 1+walB64.EncodedLen(len(body)))
	out[0] = walEntryV1
	walB64.Encode(out[1:], body)
	return out
}

// appendWALPayload decodes a WAL record or legacy snapshot payload and
// appends its entries, in order, to dst: space-separated packed records
// (an empty payload is an empty history), or legacy JSON from earlier
// builds — a snapshot {"entries":[...]} or a single record
// {"key":...,"rcc":{...}}.
func appendWALPayload(dst []walEntry, raw []byte) ([]walEntry, error) {
	if len(raw) > 0 && raw[0] == '{' {
		var legacy struct {
			Entries []walEntry  `json:"entries"`
			Key     string      `json:"key"`
			RCC     *domain.RCC `json:"rcc"`
		}
		if err := json.Unmarshal(raw, &legacy); err != nil {
			return nil, fmt.Errorf("statusq: decode legacy JSON WAL payload: %w", err)
		}
		dst = append(dst, legacy.Entries...)
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
		e, err := decodeWALEntry(rec)
		if err != nil {
			return nil, err
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// decodeWALEntry unmarshals one packed record.
func decodeWALEntry(raw []byte) (walEntry, error) {
	if len(raw) == 0 {
		return walEntry{}, fmt.Errorf("statusq: empty WAL record")
	}
	if raw[0] != walEntryV1 {
		return walEntry{}, fmt.Errorf("statusq: unknown WAL record version 0x%02x", raw[0])
	}
	// A record's fields fit the stack buffer unless its key is long.
	var stack [128]byte
	b := stack[:]
	if n := walB64.DecodedLen(len(raw) - 1); n > len(b) {
		b = make([]byte, n)
	}
	n, err := walB64.Decode(b, raw[1:])
	if err != nil {
		return walEntry{}, fmt.Errorf("statusq: unwrap WAL record: %w", err)
	}
	b = b[:n]
	klen, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < klen {
		return walEntry{}, fmt.Errorf("statusq: truncated WAL record key")
	}
	b = b[n:]
	e := walEntry{Key: string(b[:klen])}
	b = b[klen:]
	var id, availID, typ, swlin, created, settled int
	for i, dst := range []*int{&id, &availID, &typ, &swlin, &created, &settled} {
		v, n := binary.Varint(b)
		if n <= 0 {
			return walEntry{}, fmt.Errorf("statusq: truncated WAL record field %d", i)
		}
		*dst = int(v)
		b = b[n:]
	}
	if len(b) != 8 {
		return walEntry{}, fmt.Errorf("statusq: WAL record has %d trailing bytes, want 8", len(b))
	}
	e.RCC = domain.RCC{
		ID: id, AvailID: availID, Type: domain.RCCType(typ),
		SWLIN: swlin, Created: domain.Day(created), Settled: domain.Day(settled),
		Amount: math.Float64frombits(binary.LittleEndian.Uint64(b)),
	}
	return e, nil
}
