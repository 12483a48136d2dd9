// Package server exposes a database over TCP with a line-oriented text
// protocol, turning the embedded engine into a served, multi-client system.
// Each connection is one session (its own transaction state and optional
// pinned snapshot epoch); statements from different connections execute
// concurrently and are admission-controlled by the database's resource
// governor.
//
// Protocol, client to server (UTF-8 lines):
//
//	SELECT ...;            statements end with ';' at end of line and may
//	                       span multiple lines
//	\cancel                cancel the statement currently executing on this
//	                       session (out of band: valid mid-statement)
//	\pin                   pin the session's snapshot to the current epoch:
//	                       every SELECT it runs — plain, PROFILEd or EXECUTEd
//	                       — reads that epoch until \unpin
//	\unpin                 return to READ COMMITTED latest-epoch reads
//	\format binary|text    negotiate the result-set frame for this session
//	                       (text is the default; binary sends column-encoded
//	                       BROWS frames, see below)
//	\stats                 report governor workload stats
//	\q                     close the session
//
// Server to client, one reply per statement or meta command:
//
//	ERR <message>                      statement failed
//	OK <message>                       statement succeeded, no row set
//	OK <message> [query_id=Q wait_us=N spilled=M wall_us=W]
//	                                   DML reply: the engine-assigned query id
//	                                   (joinable against v_monitor.query_profiles
//	                                   and the Data Collector tables), admission
//	                                   queue wait, spill bytes and wall-clock
//	                                   ride on the OK line
//	ROWS <n> <query-id> <queue-wait-us> <spilled-bytes> <wall-us>
//	<tab-separated column names>
//	<n tab-separated data lines>       values escape \t, \n, \r, \\
//	DONE
//
// Sessions negotiated to binary mode (\format binary) receive result sets
// as columnar frames instead of ROWS: the column values travel through the
// engine's own block encodings (RLE, delta, dictionary — paper §3.4.1), so
// low-cardinality and sorted result columns compress on the wire exactly as
// they do on disk.
//
//	BROWS <n> <ncols> <query-id> <queue-wait-us> <spilled-bytes> <wall-us>
//	<tab-separated column names>
//	<tab-separated column type names>
//	column blocks                      rows travel in chunks of at most 4096;
//	                                   each chunk is ncols blocks in column
//	                                   order, each block a 4-byte big-endian
//	                                   length followed by an encoding.Block
//	DONE
//
// Every other reply (OK, ERR) is unchanged in binary mode.
//
// Cancelling a running statement produces its ERR reply (context canceled);
// the session survives and accepts further statements. A reply that cannot
// be written ends the session: the peer is gone, so statements it had queued
// are dropped unrun and the connection is closed.
//
// Both frames are rendered straight from the engine's column batches
// (render.go); the framing above is all a client has to know. Client, the
// reference implementation, parses a reply with a fixed number of
// allocations: every string of one reply's Result.Rows (and Cols) is a piece
// of one buffer, so holding on to a single cell keeps the whole reply
// alive — copy (strings.Clone) what must outlive it. Counts in a reply
// header are never trusted for sizing: the client's buffers grow with the
// bytes that actually arrive.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/types"
)

// Config sets server parameters.
type Config struct {
	// Addr is the TCP listen address (e.g. ":5433"; "127.0.0.1:0" in tests).
	Addr string
	// DrainTimeout bounds how long Shutdown waits for in-flight statements
	// before cancelling them (default 5s).
	DrainTimeout time.Duration
}

// Server accepts connections and runs sessions.
type Server struct {
	db  *core.Database
	cfg Config

	ln        net.Listener
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	connWG   sync.WaitGroup // connection handlers
	stmtWG   sync.WaitGroup // in-flight statements (drain barrier)
	draining atomic.Bool

	// Sessions counts connections accepted over the server's lifetime.
	Sessions atomic.Int64
}

// New builds a server for db.
func New(db *core.Database, cfg Config) *Server {
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{db: db, cfg: cfg, baseCtx: ctx, cancelAll: cancel, conns: map[net.Conn]struct{}{}}
}

// Listen binds the configured address. Addr() is valid afterwards, so tests
// can bind port 0 and dial the chosen port.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown closes the listener, then
// returns ErrServerClosed (net/http idiom: any other error is a real
// listener failure).
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.Sessions.Add(1)
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// Shutdown drains the server: stop accepting, let in-flight statements
// finish, cancel whatever remains, then close every connection. The drain
// is bounded by ctx when it carries a deadline, by Config.DrainTimeout
// otherwise — a caller-supplied deadline wins over the server default.
func (s *Server) Shutdown(ctx context.Context) error {
	// The mutex orders this store against runStatement's check-then-Add, so
	// stmtWG.Wait() below cannot race a late Add.
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.stmtWG.Wait()
		close(done)
	}()
	var timeout <-chan time.Time
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		t := time.NewTimer(s.cfg.DrainTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-done:
	case <-ctx.Done():
	case <-timeout:
	}
	// Hard-cancel stragglers and unblock idle readers.
	s.cancelAll()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return nil
}

// session is one connection's state.
type session struct {
	srv  *Server
	sess *core.Session
	conn io.WriteCloser

	// ctx is what statements run under. It ends when the server
	// hard-cancels, and on the first failed write to the peer: stop, which
	// also sets dead — from then on nothing is run or written.
	ctx  context.Context
	stop context.CancelFunc
	dead bool

	// out is the reply under construction. Every frame is rendered into it
	// and written to conn in pieces of about flushBytes; the buffer is kept
	// between statements, so steady-state rendering allocates nothing.
	out     []byte
	cursors []colCursor // renderer scratch, one per result column

	cancelMu   sync.Mutex
	cancelStmt context.CancelFunc // non-nil while a statement runs

	pinned      bool
	pinnedEpoch types.Epoch
	binary      bool // \format binary: columnar BROWS result frames
}

// stmtRequest is one unit of work handed from the reader to the executor.
type stmtRequest struct {
	text    string
	meta    string // non-empty for meta commands that execute in order
	errText string // non-empty for reader-side failures to report in order
}

func (s *Server) handleConn(conn net.Conn) {
	ctx, stop := context.WithCancel(s.baseCtx)
	defer stop()
	st := &session{srv: s, sess: s.db.NewSession(), conn: conn, ctx: ctx, stop: stop}
	s.db.Logger().Infof("session_connect", "remote", conn.RemoteAddr())
	defer func() {
		st.sess.Close()
		s.db.Logger().Infof("session_disconnect", "remote", conn.RemoteAddr())
	}()

	// The reader parses lines into statements; \cancel acts immediately
	// (that is the whole point: it must overtake the running statement).
	// Everything else executes strictly in order on this goroutine.
	reqs := make(chan stmtRequest, 16)
	go func() {
		defer close(reqs)
		sc := bufio.NewScanner(conn)
		// Start small and let the scanner grow toward the 1MB statement
		// limit on demand: a fixed 1MB per connection is real memory at
		// thousands of idle connections.
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		var buf strings.Builder
		for sc.Scan() {
			line := sc.Text()
			trimmed := strings.TrimSpace(line)
			if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
				if trimmed == "\\cancel" {
					st.cancelCurrent()
					continue
				}
				if trimmed == "\\q" {
					return
				}
				reqs <- stmtRequest{meta: trimmed}
				continue
			}
			if trimmed == "" && buf.Len() == 0 {
				continue
			}
			buf.WriteString(line)
			buf.WriteString("\n")
			if strings.HasSuffix(trimmed, ";") {
				reqs <- stmtRequest{text: buf.String()}
				buf.Reset()
			}
		}
		// Surface reader failures (e.g. a line over the scanner limit)
		// instead of silently dropping the connection.
		if err := sc.Err(); err != nil {
			reqs <- stmtRequest{errText: err.Error()}
		}
	}()

	for req := range reqs {
		switch {
		case st.dead:
			// The peer is gone: nobody reads a reply, so what is still
			// queued is dropped, not run. The reader exits on the closed
			// connection and closes reqs.
		case req.errText != "":
			st.replyLine("ERR ", req.errText)
		case req.meta != "":
			st.runMeta(req.meta)
		default:
			st.runStatement(req.text)
		}
	}
}

// cancelCurrent aborts the statement executing on this session, if any.
func (st *session) cancelCurrent() {
	st.cancelMu.Lock()
	defer st.cancelMu.Unlock()
	if st.cancelStmt != nil {
		st.cancelStmt()
	}
}

func (st *session) runMeta(cmd string) {
	switch {
	case cmd == "\\stats":
		st.replyLine("OK ", st.srv.db.Governor().Stats().String())
	case cmd == "\\pin":
		st.pinned = true
		st.pinnedEpoch = st.srv.db.Txns().Epochs.ReadEpoch()
		st.replyLine("OK ", fmt.Sprintf("pinned epoch %d", st.pinnedEpoch))
	case cmd == "\\unpin":
		st.pinned = false
		st.replyLine("OK ", "unpinned")
	case cmd == "\\format" || strings.HasPrefix(cmd, "\\format "):
		switch arg := strings.TrimSpace(strings.TrimPrefix(cmd, "\\format")); arg {
		case "binary":
			st.binary = true
			st.replyLine("OK ", "format binary")
		case "text":
			st.binary = false
			st.replyLine("OK ", "format text")
		case "":
			mode := "text"
			if st.binary {
				mode = "binary"
			}
			st.replyLine("OK ", "format "+mode)
		default:
			st.replyLine("ERR ", "unknown result format "+arg+" (want binary or text)")
		}
	default:
		st.replyLine("ERR ", "unknown meta command "+cmd)
	}
}

func (st *session) runStatement(text string) {
	srv := st.srv
	srv.mu.Lock()
	if srv.draining.Load() {
		srv.mu.Unlock()
		st.replyLine("ERR ", "server draining")
		return
	}
	srv.stmtWG.Add(1)
	srv.mu.Unlock()
	defer srv.stmtWG.Done()

	start := time.Now()
	defer func() { metrics.ServerStatementUs.Observe(time.Since(start).Microseconds()) }()

	ctx, cancel := context.WithCancel(st.ctx)
	st.cancelMu.Lock()
	st.cancelStmt = cancel
	st.cancelMu.Unlock()
	defer func() {
		st.cancelMu.Lock()
		st.cancelStmt = nil
		st.cancelMu.Unlock()
		cancel()
	}()

	var res *core.Result
	var err error
	if st.pinned {
		res, err = st.sess.ExecuteBatchesAt(ctx, text, st.pinnedEpoch)
	} else {
		res, err = st.sess.ExecuteBatches(ctx, text)
	}
	if err != nil {
		st.replyLine("ERR ", err.Error())
		return
	}
	st.writeResult(res)
	st.flush()
}

// flushBytes is how much of a reply is rendered before it is written out: a
// large result leaves in a few writes without ever sitting in memory whole.
const flushBytes = 64 << 10

// flush writes the rendered bytes to the peer. The first failure ends the
// session: its context is cancelled, which stops a statement still running
// under it, the executor loop drops what is queued, and the connection is
// closed, which stops the reader.
func (st *session) flush() {
	if !st.dead {
		if _, err := st.conn.Write(st.out); err != nil {
			st.dead = true
			st.stop()
			st.conn.Close()
		}
	}
	st.out = st.out[:0]
}

// replyLine sends a one-line reply, kind ("OK " / "ERR ") then msg with its
// newlines flattened.
func (st *session) replyLine(kind, msg string) {
	st.out = append(st.out, kind...)
	st.out = appendOneLine(st.out, msg, " ")
	st.out = append(st.out, '\n')
	st.flush()
}

// ErrServerClosed is returned by Serve after Shutdown closes the listener,
// mirroring net/http's sentinel: it distinguishes a graceful drain from a
// real accept failure.
var ErrServerClosed = errors.New("server: closed")
