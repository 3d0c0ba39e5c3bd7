// walcodec.go is the one wire format for WAL records.
//
// Every acknowledged ingest appends one walEntry to the log, so the
// codec sits on the hot path of the durable ingest tier. A record is the
// entry's fields varint-packed: the key's length and bytes, the RCC's
// six integer fields as zig-zag varints, and the amount's IEEE-754 bits
// as 8 little-endian bytes. The log's binary frames carry it as it is
// (see package wal); the topology version of the root names the format.
// Roots written by earlier builds are read once, by the upgrade in
// upgrade.go, and rewritten in this format.
package statusq

import (
	"encoding/binary"
	"fmt"
	"math"

	"domd/internal/domain"
)

// encodeWALEntry marshals e in the packed record format.
func encodeWALEntry(e walEntry) []byte {
	b := make([]byte, 0, 48+len(e.Key))
	b = binary.AppendUvarint(b, uint64(len(e.Key)))
	b = append(b, e.Key...)
	b = binary.AppendVarint(b, int64(e.RCC.ID))
	b = binary.AppendVarint(b, int64(e.RCC.AvailID))
	b = binary.AppendVarint(b, int64(e.RCC.Type))
	b = binary.AppendVarint(b, int64(e.RCC.SWLIN))
	b = binary.AppendVarint(b, int64(e.RCC.Created))
	b = binary.AppendVarint(b, int64(e.RCC.Settled))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(e.RCC.Amount))
}

// decodeWALEntry unmarshals one packed record.
func decodeWALEntry(b []byte) (walEntry, error) {
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
