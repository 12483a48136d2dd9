package encoding

import (
	"cmp"
	"fmt"
	"slices"
)

// Canonical Huffman coding over small symbol alphabets, used by the
// Compressed Common Delta encoding to entropy-code delta-dictionary indexes
// (paper §3.4.1: "stores indexes into the dictionary using entropy coding").

const maxHuffmanCodeLen = 56 // fits in a uint64 accumulator with room to spare

// huffScratch is the encoder's scratch for building codes: the construction
// forest, the leaves in queue order, and the lengths and codes per symbol.
type huffScratch struct {
	nodes   []huffNode
	queue   []int
	lengths []int
	codes   []uint64
}

// huffNode is one node of the Huffman construction forest; leaves carry a
// symbol (sym >= 0), internal nodes carry child indexes.
type huffNode struct {
	weight      int
	sym         int
	left, right int
	depth       int
}

// codeLengths computes canonical code lengths for the given symbol
// frequencies (freq[i] > 0 for used symbols), in h's storage. Single-symbol
// alphabets get length 1.
//
// The forest merges its two lightest nodes until one is left, the lower node
// index first among equal weights. Merged weights never decrease, so the
// merged nodes queue up in that order as they are made, and the leaves,
// sorted once, are the other queue: the lightest node is at one of the two
// heads.
func (h *huffScratch) codeLengths(freq []int) ([]int, error) {
	h.lengths = grow(h.lengths, len(freq))
	clear(h.lengths)
	nodes := h.nodes[:0]
	for s, f := range freq {
		if f > 0 {
			nodes = append(nodes, huffNode{weight: f, sym: s, left: -1, right: -1})
		}
	}
	leaves := len(nodes)
	if leaves == 0 {
		return h.lengths, nil
	}
	if leaves == 1 {
		h.lengths[nodes[0].sym] = 1
		return h.lengths, nil
	}
	queue := grow(h.queue, leaves)
	for i := range queue {
		queue[i] = i
	}
	slices.SortStableFunc(queue, func(a, b int) int { return cmp.Compare(nodes[a].weight, nodes[b].weight) })
	head, merged := 0, leaves
	pop := func() int {
		// A leaf's index is below every merged node's, so it wins a tie.
		if head < leaves && (merged == len(nodes) || nodes[queue[head]].weight <= nodes[merged].weight) {
			head++
			return queue[head-1]
		}
		merged++
		return merged - 1
	}
	for range leaves - 1 {
		a, b := pop(), pop()
		nodes = append(nodes, huffNode{weight: nodes[a].weight + nodes[b].weight, sym: -1, left: a, right: b})
	}
	// Children come before their parent, so one pass down from the root
	// gives every node its depth.
	for i := len(nodes) - 1; i >= leaves; i-- {
		nodes[nodes[i].left].depth = nodes[i].depth + 1
		nodes[nodes[i].right].depth = nodes[i].depth + 1
	}
	for _, nd := range nodes[:leaves] {
		if nd.depth > maxHuffmanCodeLen {
			return nil, fmt.Errorf("encoding: huffman code too long (%d)", nd.depth)
		}
		h.lengths[nd.sym] = nd.depth
	}
	h.nodes, h.queue = nodes, queue
	return h.lengths, nil
}

// encode writes lengths table (uvarint per symbol) + uvarint bit count +
// MSB-first bitstream of the symbols. Codes are canonical: numerically
// increasing with length, then symbol order, as huffmanDecode rebuilds them.
func (h *huffScratch) encode(buf []byte, symCount int, lengths []int, syms []int) []byte {
	buf = appendUvarint(buf, uint64(symCount))
	var next [maxHuffmanCodeLen + 2]uint64
	for s := 0; s < symCount; s++ {
		buf = appendUvarint(buf, uint64(lengths[s]))
		next[lengths[s]]++
	}
	var code uint64
	for l := 1; l < len(next); l++ {
		count := next[l]
		next[l] = code
		code = (code + count) << 1
	}
	h.codes = grow(h.codes, symCount)
	for s, l := range lengths[:symCount] {
		if l > 0 {
			h.codes[s] = next[l]
			next[l]++
		}
	}
	totalBits := 0
	for _, s := range syms {
		totalBits += lengths[s]
	}
	buf = appendUvarint(buf, uint64(totalBits))
	var acc uint64
	accBits := 0
	for _, s := range syms {
		l := lengths[s]
		acc = acc<<uint(l) | h.codes[s]
		accBits += l
		for accBits >= 8 {
			buf = append(buf, byte(acc>>uint(accBits-8)))
			accBits -= 8
		}
	}
	if accBits > 0 {
		buf = append(buf, byte(acc<<uint(8-accBits)))
	}
	return buf
}

// huffTableBits is how many bits one lookup of the decoder's table covers:
// every code of up to this length decodes in one step. Longer codes, and the
// stream's last bits, take the bit-at-a-time path.
const huffTableBits = 11

// huffmanDecode reads what huffmanEncode wrote, writing len(out) decoded
// symbols into out and returning the number of payload bytes consumed. Its
// table of symbols by rank goes in scratch when that has the room.
func huffmanDecode(b []byte, out, scratch []int64) (int, error) {
	n := len(out)
	sc64, sz := uvarint(b)
	if sz <= 0 {
		return 0, fmt.Errorf("encoding: corrupt huffman symbol count")
	}
	if sc64 > uint64(len(b)) { // every length entry costs ≥ 1 byte
		return 0, fmt.Errorf("encoding: huffman symbol count %d exceeds payload", sc64)
	}
	// Canonical decode tables: because codes are assigned numerically
	// increasing by (length, symbol), a code c of length l is valid iff
	// firstCode[l] <= c < firstCode[l]+count[l], and its symbol is the
	// (c-firstCode[l])-th symbol of length l in symbol order. One spare slot
	// past the longest length: the bit-at-a-time accumulator reaches maxLen+1
	// before its overflow check fires, and must find no match there.
	var count, offset [66]int
	var firstCode [66]uint64
	maxLen := 0
	lengths := b[sz:]
	pos := sz
	symCount := int(sc64)
	for s := 0; s < symCount; s++ {
		l, sz := uvarint(b[pos:])
		if sz <= 0 {
			return 0, fmt.Errorf("encoding: corrupt huffman length table")
		}
		if l > 64 { // codes are accumulated in a uint64
			return 0, fmt.Errorf("encoding: huffman code length %d exceeds 64 bits", l)
		}
		if l > 0 {
			count[l]++
			maxLen = max(maxLen, int(l))
		}
		pos += sz
	}
	bits64, sz := uvarint(b[pos:])
	if sz <= 0 {
		return 0, fmt.Errorf("encoding: corrupt huffman bit count")
	}
	pos += sz
	// Checked before it becomes an int: a count of 2^63 or more would go
	// negative and slip past the bounds check.
	if bits64 > uint64(len(b)-pos)*8 {
		return 0, fmt.Errorf("encoding: truncated huffman bitstream")
	}
	totalBits := int(bits64)
	stream := b[pos : pos+(totalBits+7)/8]
	pos += len(stream)
	if maxLen == 0 && n > 0 {
		return 0, fmt.Errorf("encoding: huffman table has no codes")
	}
	var code uint64
	idx := 0
	for l := 1; l <= maxLen; l++ {
		firstCode[l] = code
		offset[l] = idx
		code = (code + uint64(count[l])) << 1
		idx += count[l]
	}
	symOfRank := grow(scratch, idx)
	rank := offset
	for s, p := 0, 0; s < symCount; s++ { // the lengths again, validated above
		l, sz := uvarint(lengths[p:])
		p += sz
		if l > 0 {
			symOfRank[rank[l]] = int64(s)
			rank[l]++
		}
	}

	// The lookup table: entry w of the next tb bits is sym<<5 | length of
	// the code that is a prefix of w, 0 when none is (a longer code or an
	// invalid stream, both left to the bit-at-a-time path). Canonical codes
	// are prefix-free whatever the lengths, so no entry is claimed twice.
	var table [1 << huffTableBits]uint32
	tb := min(maxLen, huffTableBits)
	for l := 1; l <= tb; l++ {
		for r := 0; r < count[l]; r++ {
			c, sym := firstCode[l]+uint64(r), symOfRank[offset[l]+r]
			if c >= 1<<l || sym >= 1<<27 {
				break // past the codes of this length, or too large for an entry
			}
			for w := int(c) << (tb - l); w < int(c+1)<<(tb-l); w++ {
				table[w] = uint32(sym)<<5 | uint32(l)
			}
		}
	}

	bitPos := 0
	for i := range out {
		if bitPos+tb <= totalBits {
			if e := table[streamWord(stream, bitPos>>3)<<(bitPos&7)>>(64-tb)]; e != 0 {
				out[i] = int64(e >> 5)
				bitPos += int(e & 31)
				continue
			}
		}
		var acc uint64
		for accLen := 0; ; {
			if accLen > maxLen {
				return 0, fmt.Errorf("encoding: invalid huffman stream")
			}
			if bitPos >= totalBits && accLen == 0 {
				return 0, fmt.Errorf("encoding: huffman stream exhausted after %d of %d symbols", i, n)
			}
			if bitPos >= totalBits {
				return 0, fmt.Errorf("encoding: huffman stream exhausted mid-symbol")
			}
			acc = acc<<1 | uint64(stream[bitPos>>3]>>(7-bitPos&7)&1)
			bitPos++
			accLen++
			if r := acc - firstCode[accLen]; acc >= firstCode[accLen] && r < uint64(count[accLen]) {
				out[i] = symOfRank[offset[accLen]+int(r)]
				break
			}
		}
	}
	return pos, nil
}
