package server

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vector"
)

// hostileReplies are frames whose headers lie; each used to panic the client
// or make it reserve memory for rows that never arrive.
var hostileReplies = []string{
	"ROWS -1 0 0 0 0\na\nDONE\n",
	"ROWS 9000000000 1 0 0 0\na\n1\nDONE\n",
	"ROWS 99999999999999999999 1 0 0 0\na\nDONE\n",
	"ROWS 2 1 0 0 0\na\n1\nDONE\n",
	"ROWS 1 1 0 0 0\na\n1\nDONE",
	"BROWS -5 1 0 0 0 0\na\nINTEGER\nDONE\n",
	"BROWS 1 2000000000 0 0 0 0\na\nINTEGER\nDONE\n",
	"BROWS 1 0 0 0 0 0\n\n\nDONE\n",
	"BROWS 9000000000 1 1 0 0 0\na\nINTEGER\n\xff\xff\xff\xff\x00\x01",
	// One 17-byte RLE block declaring 2^20 rows of the value 7.
	"BROWS 1048576 1 1 0 0 0\na\nINTEGER\n\x00\x00\x00\x11" +
		"\x02\x80\x80\x40\x00\x01\x07\x00\x00\x00\x00\x00\x00\x00\x80\x80\x40" + "DONE\n",
}

// TestClientRejectsHostileHeaders checks each lying frame yields an error,
// not a panic and not a reservation sized by the header.
func TestClientRejectsHostileHeaders(t *testing.T) {
	checkGoroutines(t)
	for _, frame := range hostileReplies {
		before := totalAlloc()
		res, err := parse([]byte(frame))
		if err == nil {
			t.Errorf("%q: parsed into %d rows, want an error", frame, len(res.Rows))
		}
		if spent := totalAlloc() - before; spent > 1<<20 {
			t.Errorf("%q: allocated %d bytes before failing", frame, spent)
		}
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// FuzzReadReply feeds arbitrary bytes to the client's reply parser, text and
// binary frames alike: whatever the peer sends, the client returns a result
// or an error — it never panics, and it never allocates out of proportion to
// what it was sent. A text frame costs at most a small multiple of its bytes
// (16-byte cell headers over one-byte cells are the worst case). A binary
// frame may legitimately decompress, so it is bounded by what its blocks can
// declare: no block may hold more than binaryBlockRows rows. Seeds are real
// frames rendered by the server side of this package, plus the hostile
// headers above.
func FuzzReadReply(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		res := &core.Result{Schema: fiveTypes, Batches: []*vector.Batch{randomBatch(rng, fiveTypes, 1+rng.Intn(6))}}
		f.Add(render(res, false))
		f.Add(render(res, true))
	}
	f.Add(render(fetchResult(40), false))
	f.Add(render(fetchResult(40), true))
	f.Add([]byte("OK 3 rows [query_id=6 wait_us=0 spilled=0 wall_us=42]\n"))
	f.Add([]byte("ERR sql: column \"nope\" not found\n"))
	for _, h := range hostileReplies {
		f.Add([]byte(h))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Text: 64 bytes per input byte and 1 MiB of slack (the read buffer,
		// the test's own reader). Binary: every 5 input bytes can be one
		// block of up to binaryBlockRows cells at about 64 bytes each.
		limit := uint64(1<<20 + 64*len(data))
		if strings.HasPrefix(string(data), "BROWS ") {
			limit += uint64(len(data)/5+1) * binaryBlockRows * 64
		}
		before := totalAlloc()
		res, err := parse(data)
		if spent := totalAlloc() - before; spent > limit {
			t.Fatalf("%d input bytes made the client allocate %d (limit %d)", len(data), spent, limit)
		}
		if err != nil {
			return
		}
		for _, row := range res.Rows {
			for _, cell := range row {
				_ = len(cell)
			}
		}
	})
}
