package storage

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/types"
)

// The position index (paper §3.7) stores, per encoded block: the block's
// offset and length in the data file, its first implicit position, its row
// count, and the minimum and maximum column values. It is what lets the scan
// prune blocks at read time and reconstruct tuples by position without a
// B-tree — the containers are never modified, so a flat sorted array of
// entries suffices. It is tiny relative to the data (the paper reports
// ~1/1000 of the raw column size).

// PidxEntry is one position-index record.
type PidxEntry struct {
	Offset   int64 // byte offset of the encoded block in the data file
	Length   int64 // encoded byte length
	FirstPos int64 // implicit position of the block's first row
	RowCount int64
	Min, Max types.Value // NULL when the block is entirely NULL
}

// Contains reports whether position p falls inside the block.
func (e *PidxEntry) Contains(p int64) bool {
	return p >= e.FirstPos && p < e.FirstPos+e.RowCount
}

// appendPidxEntry serializes an entry.
func appendPidxEntry(buf []byte, e *PidxEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(e.Offset))
	buf = binary.AppendUvarint(buf, uint64(e.Length))
	buf = binary.AppendUvarint(buf, uint64(e.FirstPos))
	buf = binary.AppendUvarint(buf, uint64(e.RowCount))
	buf = marshalValue(buf, e.Min)
	buf = marshalValue(buf, e.Max)
	return buf
}

// readPidx loads a column's whole position index.
func readPidx(path string, t types.Type) ([]PidxEntry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []PidxEntry
	pos := 0
	for pos < len(b) {
		var e PidxEntry
		var n int
		var v uint64
		if v, n = binary.Uvarint(b[pos:]); n <= 0 {
			return nil, fmt.Errorf("storage: corrupt pidx %s", path)
		}
		e.Offset = int64(v)
		pos += n
		if v, n = binary.Uvarint(b[pos:]); n <= 0 {
			return nil, fmt.Errorf("storage: corrupt pidx %s", path)
		}
		e.Length = int64(v)
		pos += n
		if v, n = binary.Uvarint(b[pos:]); n <= 0 {
			return nil, fmt.Errorf("storage: corrupt pidx %s", path)
		}
		e.FirstPos = int64(v)
		pos += n
		if v, n = binary.Uvarint(b[pos:]); n <= 0 {
			return nil, fmt.Errorf("storage: corrupt pidx %s", path)
		}
		e.RowCount = int64(v)
		pos += n
		var used int
		if e.Min, used, err = unmarshalValue(b[pos:], t); err != nil {
			return nil, fmt.Errorf("storage: corrupt pidx %s: %w", path, err)
		}
		pos += used
		if e.Max, used, err = unmarshalValue(b[pos:], t); err != nil {
			return nil, fmt.Errorf("storage: corrupt pidx %s: %w", path, err)
		}
		pos += used
		out = append(out, e)
	}
	return out, nil
}
