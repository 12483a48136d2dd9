package server

import (
	"bufio"
	"bytes"
	stdbin "encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/encoding"
	"repro/internal/types"
	"repro/internal/vector"
)

// Client speaks the line protocol; it is the reference implementation for
// the wire format and the harness for the server tests and benchmarks.
type Client struct {
	conn net.Conn
	br   *bufio.Reader

	body  []byte       // ROWS body buffer, reused between replies
	block bytes.Buffer // BROWS block buffer, reused between blocks

	bytesRead atomic.Int64 // wire bytes received, pre-buffering

	reqMu   sync.Mutex // one request/response exchange at a time
	writeMu sync.Mutex // raw writes (Cancel interleaves with Exec's write)
}

// countingConn counts bytes as they arrive off the socket, underneath the
// client's read buffer, so text/binary wire sizes compare honestly.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Result is one statement's parsed reply.
type Result struct {
	// Message is the OK payload for row-less statements.
	Message string
	// Cols and Rows carry a SELECT's result set (string-typed; the wire
	// protocol is text).
	Cols []string
	Rows [][]string
	// QueryID is the engine-assigned admission id of the statement,
	// joinable against v_monitor.query_profiles and the Data Collector
	// tables (0 for statements that bypassed admission).
	QueryID int64
	// QueueWait is how long the statement sat in the admission queue.
	QueueWait time.Duration
	// SpilledBytes counts operator externalizations during the statement.
	SpilledBytes int64
	// WallTime is the statement's server-side execution wall clock.
	WallTime time.Duration
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{}
	c.conn = countingConn{Conn: conn, n: &c.bytesRead}
	// 64KB is plenty: ReadString accumulates longer lines dynamically and
	// binary frames stream through io.ReadFull, so the buffer size only
	// bounds syscall batching, not frame size.
	c.br = bufio.NewReaderSize(c.conn, 64<<10)
	return c, nil
}

// BytesRead reports the total wire bytes this client has received.
func (c *Client) BytesRead() int64 { return c.bytesRead.Load() }

// Format negotiates the session's result frame: "binary" or "text".
func (c *Client) Format(mode string) error {
	_, err := c.Meta("\\format " + mode)
	return err
}

// Close sends \q and closes the connection.
func (c *Client) Close() error {
	c.writeMu.Lock()
	fmt.Fprintf(c.conn, "\\q\n")
	c.writeMu.Unlock()
	return c.conn.Close()
}

func (c *Client) send(text string) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err := c.conn.Write([]byte(text))
	return err
}

// Exec runs one statement (';' appended if missing) and parses the reply.
// Safe for one statement at a time per client; use one client per goroutine
// for concurrent load.
func (c *Client) Exec(sqlText string) (*Result, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	t := strings.TrimSpace(sqlText)
	if !strings.HasSuffix(t, ";") {
		t += ";"
	}
	if err := c.send(t + "\n"); err != nil {
		return nil, err
	}
	return c.readReply()
}

// Cancel aborts the statement currently executing on this session. It
// deliberately bypasses the request lock: its purpose is to overtake a
// running Exec. The cancelled Exec returns the server's ERR reply.
func (c *Client) Cancel() error {
	return c.send("\\cancel\n")
}

// Meta sends a meta command that produces a single OK/ERR line
// (\stats, \pin, \unpin).
func (c *Client) Meta(cmd string) (*Result, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.send(cmd + "\n"); err != nil {
		return nil, err
	}
	return c.readReply()
}

func (c *Client) readLine() (string, error) {
	l, err := c.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(l, "\n"), nil
}

// Counts in a reply header come off the wire and are not to be trusted:
// nothing is allocated from them. Every buffer grows with the bytes actually
// read, so a reply costs memory in proportion to its own size whatever its
// header claims.

// maxRetainedBody is the largest body buffer a client keeps between replies.
const maxRetainedBody = 4 << 20

// parseHeader parses the numeric fields of a ROWS / BROWS header line: the
// leading counts (the row count; then the column count, for BROWS) into
// counts, then query id, queue wait, spilled bytes and wall clock into res.
func parseHeader(head string, res *Result, counts ...*int) error {
	parts := strings.Fields(head)[1:]
	if len(parts) != len(counts)+4 {
		return fmt.Errorf("server: malformed header %q", head)
	}
	var f [6]int64
	for i, p := range parts {
		var err error
		if f[i], err = strconv.ParseInt(p, 10, 64); err != nil || f[i] < 0 || f[i] > math.MaxInt {
			return fmt.Errorf("server: malformed header %q", head)
		}
	}
	for i, c := range counts {
		*c = int(f[i])
	}
	stats := f[len(counts):]
	res.QueryID = stats[0]
	res.QueueWait = time.Duration(stats[1]) * time.Microsecond
	res.SpilledBytes = stats[2]
	res.WallTime = time.Duration(stats[3]) * time.Microsecond
	return nil
}

func (c *Client) readDone() error {
	tail, err := c.readLine()
	if err != nil {
		return err
	}
	if tail != "DONE" {
		return fmt.Errorf("server: missing DONE, got %q", tail)
	}
	return nil
}

func (c *Client) readReply() (*Result, error) {
	head, err := c.readLine()
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasPrefix(head, "ERR "):
		return nil, fmt.Errorf("server: %s", head[4:])
	case strings.HasPrefix(head, "OK"):
		res := &Result{Message: strings.TrimPrefix(strings.TrimPrefix(head, "OK"), " ")}
		res.parseOKStats()
		return res, nil
	case strings.HasPrefix(head, "ROWS "):
		return c.readTextRows(head)
	case strings.HasPrefix(head, "BROWS "):
		return c.readBinaryRows(head)
	default:
		return nil, fmt.Errorf("server: unexpected reply %q", head)
	}
}

// readTextRows parses a ROWS frame with a fixed number of allocations: the n
// data lines are read into one buffer and become one string, every cell is a
// substring of it held in one slab, and each row is a slice of the slab
// (capped, so appending to a row cannot reach its neighbour). A cell is
// copied only when it holds an escape, and cells are looked at for one only
// when the body holds a backslash.
func (c *Client) readTextRows(head string) (*Result, error) {
	res := &Result{}
	var n int
	if err := parseHeader(head, res, &n); err != nil {
		return nil, err
	}
	hdr, err := c.readLine()
	if err != nil {
		return nil, err
	}
	res.Cols = unescapeFields(splitFields(hdr, nil))

	body := c.body[:0]
	for i := 0; i < n; i++ {
		for {
			piece, err := c.br.ReadSlice('\n')
			body = append(body, piece...)
			if err == nil {
				break
			}
			if err != bufio.ErrBufferFull { // a line longer than the read buffer arrives in pieces
				return nil, err
			}
		}
	}
	if cap(body) <= maxRetainedBody {
		c.body = body
	}
	if err := c.readDone(); err != nil {
		return nil, err
	}
	text := string(body)
	escaped := strings.IndexByte(text, '\\') >= 0
	slab := make([]string, 0, n+strings.Count(text, "\t"))
	res.Rows = make([][]string, 0, n)
	for len(text) > 0 {
		eol := strings.IndexByte(text, '\n')
		at := len(slab)
		slab = splitFields(text[:eol], slab)
		res.Rows = append(res.Rows, slab[at:len(slab):len(slab)])
		text = text[eol+1:]
	}
	if escaped {
		unescapeFields(slab)
	}
	return res, nil
}

// readBinaryRows parses a columnar BROWS frame: header, names, type names,
// then length-prefixed encoding blocks (ncols per row chunk) until the
// advertised row count is reached. Values decode back into the same strings
// the text protocol would have carried.
func (c *Client) readBinaryRows(head string) (*Result, error) {
	res := &Result{}
	var n, ncols int
	if err := parseHeader(head, res, &n, &ncols); err != nil {
		return nil, err
	}
	hdr, err := c.readLine()
	if err != nil {
		return nil, err
	}
	res.Cols = unescapeFields(splitFields(hdr, nil))
	typeLine, err := c.readLine()
	if err != nil {
		return nil, err
	}
	var typs []types.Type
	for _, tn := range strings.Split(typeLine, "\t") {
		t, err := types.ParseType(tn)
		if err != nil {
			return nil, fmt.Errorf("server: bad column type in BROWS frame: %v", err)
		}
		typs = append(typs, t)
	}
	if len(typs) != ncols || len(res.Cols) != ncols {
		return nil, fmt.Errorf("server: BROWS frame has %d names and %d types for %d columns", len(res.Cols), len(typs), ncols)
	}
	res.Rows = make([][]string, 0, min(n, binaryBlockRows))
	cols := make([]*vector.Vector, ncols)
	var scratch []byte // one chunk's cells, formatted back to back
	var ends []int     // ends[k] is where cell k stops in scratch
	for len(res.Rows) < n {
		for j := range cols {
			if cols[j], err = c.readBlock(typs[j]); err != nil {
				return nil, err
			}
		}
		nr := cols[0].Len()
		for j, v := range cols {
			if v.Len() != nr {
				return nil, fmt.Errorf("server: ragged BROWS chunk (col %d has %d rows, col 0 has %d)", j, v.Len(), nr)
			}
		}
		if nr == 0 || len(res.Rows)+nr > n {
			return nil, fmt.Errorf("server: BROWS chunk overruns advertised row count %d", n)
		}
		// As in a ROWS body: one string per chunk, cells cut out of it into
		// one slab, rows capped slices of the slab.
		scratch, ends = scratch[:0], ends[:0]
		for i := 0; i < nr; i++ {
			for _, v := range cols {
				scratch = v.AppendText(scratch, i)
				ends = append(ends, len(scratch))
			}
		}
		text := string(scratch)
		slab := make([]string, len(ends))
		lo := 0
		for k, hi := range ends {
			slab[k] = text[lo:hi]
			lo = hi
		}
		for i := 0; i < nr; i++ {
			res.Rows = append(res.Rows, slab[i*ncols:(i+1)*ncols:(i+1)*ncols])
		}
	}
	if err := c.readDone(); err != nil {
		return nil, err
	}
	return res, nil
}

// readBlock reads one length-prefixed column block and decodes it. The
// length prefix is untrusted, so the block is read through a buffer that
// grows with the bytes that do arrive; and a block declaring more rows than
// a server ever packs into one is refused before it is decoded.
func (c *Client) readBlock(t types.Type) (*vector.Vector, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(c.br, lenbuf[:]); err != nil {
		return nil, err
	}
	size := int64(stdbin.BigEndian.Uint32(lenbuf[:]))
	c.block.Reset()
	if _, err := io.CopyN(&c.block, c.br, size); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	blob := c.block.Bytes()
	if rows, err := encoding.BlockRows(blob); err == nil && rows > binaryBlockRows {
		return nil, fmt.Errorf("server: bad column block: %d rows, at most %d allowed", rows, binaryBlockRows)
	}
	v, err := encoding.DecodeBlock(blob, t, false) // a header BlockRows cannot read fails here too
	if err != nil {
		return nil, fmt.Errorf("server: bad column block: %v", err)
	}
	return v, nil
}

// parseOKStats extracts the DML stats suffix
// "[query_id=Q wait_us=N spilled=M wall_us=W]" from an OK message into
// QueryID/QueueWait/SpilledBytes/WallTime, trimming it from Message.
func (r *Result) parseOKStats() {
	msg := r.Message
	i := strings.LastIndex(msg, " [query_id=")
	if i < 0 || !strings.HasSuffix(msg, "]") {
		return
	}
	var queryID, waitUS, spilled, wallUS int64
	if _, err := fmt.Sscanf(msg[i+1:], "[query_id=%d wait_us=%d spilled=%d wall_us=%d]",
		&queryID, &waitUS, &spilled, &wallUS); err != nil {
		return
	}
	r.QueryID = queryID
	r.QueueWait = time.Duration(waitUS) * time.Microsecond
	r.SpilledBytes = spilled
	r.WallTime = time.Duration(wallUS) * time.Microsecond
	r.Message = msg[:i]
}

// splitFields appends the tab-separated fields of l to dst as they
// travel, escapes and all.
func splitFields(l string, dst []string) []string {
	for {
		tab := strings.IndexByte(l, '\t')
		if tab < 0 {
			return append(dst, l)
		}
		dst = append(dst, l[:tab])
		l = l[tab+1:]
	}
}

// unescapeFields unescapes each field in place and returns fields.
func unescapeFields(fields []string) []string {
	for i, f := range fields {
		fields[i] = unescapeField(f)
	}
	return fields
}
