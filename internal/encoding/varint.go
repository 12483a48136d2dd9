package encoding

import "encoding/binary"

// Varint / zigzag / bit-packing primitives shared by the block encoders.

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }

func varint(b []byte) (int64, int) { return binary.Varint(b) }

func appendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func getUint64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// bitWidth returns the number of bits needed to represent values in [0, n).
func bitWidth(n int) int {
	if n <= 1 {
		return 1
	}
	w := 0
	for x := n - 1; x > 0; x >>= 1 {
		w++
	}
	return w
}

// packBits appends n values of the given bit width (LSB-first within bytes).
func packBits(buf []byte, vals []int, width int) []byte {
	var cur uint64
	bits := 0
	for _, v := range vals {
		cur |= uint64(v) << bits
		bits += width
		for bits >= 8 {
			buf = append(buf, byte(cur))
			cur >>= 8
			bits -= 8
		}
	}
	if bits > 0 {
		buf = append(buf, byte(cur))
	}
	return buf
}

// packedWord returns the eight bytes of b from off (< len(b)) as a
// little-endian word, zero-padded past the end of b: the bits of a packed
// value that starts in byte off, low bit first.
func packedWord(b []byte, off int) uint64 {
	var pad [8]byte
	if off+8 > len(b) {
		copy(pad[:], b[off:])
		b, off = pad[:], 0
	}
	return binary.LittleEndian.Uint64(b[off:])
}

// streamWord is packedWord for an MSB-first stream: the next bits from byte
// off, first bit highest.
func streamWord(b []byte, off int) uint64 {
	var pad [8]byte
	if off+8 > len(b) {
		copy(pad[:], b[off:])
		b, off = pad[:], 0
	}
	return binary.BigEndian.Uint64(b[off:])
}
