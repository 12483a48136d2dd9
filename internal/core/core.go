// Package core is the public face of the engine: a Database handle that
// parses and executes SQL, coordinates transactions and the tuple mover, and
// exposes bulk load, backup, recovery and physical-design entry points. It
// corresponds to the overall system of the paper — a shared-nothing columnar
// RDBMS with projections as the only physical data structure.
//
// Typical use:
//
//	db, _ := core.Open(core.Options{Dir: dir, Nodes: 3, K: 1})
//	db.Execute(`CREATE TABLE sales (sale_id INT, date TIMESTAMP, cust INT, price FLOAT)`)
//	db.Execute(`CREATE PROJECTION sales_super ON sales (sale_id, date, cust, price)
//	            ORDER BY date SEGMENTED BY HASH(sale_id)`)
//	db.Load("sales", rows, true)
//	res, _ := db.Execute(`SELECT cust, SUM(price) FROM sales GROUP BY cust`)
package core

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/resmgr"
	"repro/internal/sql"
	"repro/internal/tuplemover"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/vlog"
)

// Options configures a database instance.
type Options struct {
	// Dir is the root storage directory (one subdirectory per node).
	Dir string
	// Nodes is the simulated cluster size (default 1).
	Nodes int
	// K is the K-safety level, 0 (the default) or 1: at 1, each segmented
	// projection of a multi-node cluster gets a buddy projection whose
	// segments sit one node over, so any one node may fail. Open refuses
	// more: there is no second buddy.
	K int
	// Parallelism enables intra-node parallel plans (Figure 3) when > 1.
	Parallelism int
	// ForceParallel drops the planner's cardinality gate so parallel shapes
	// plan even for tiny inputs — a testing knob for the parallel-vs-serial
	// differential oracle, not a production setting.
	ForceParallel bool
	// DirectLoadRowThreshold: Load calls with at least this many rows go
	// straight to the ROS (paper §7, "Direct Loading to the ROS").
	DirectLoadRowThreshold int
	// WOSMaxBytes bounds each projection's WOS per node.
	WOSMaxBytes int64
	// LocalSegments per node (default 3).
	LocalSegments int

	// Resource governor knobs (see internal/resmgr). Zero values take the
	// resmgr defaults: 1 GiB pool, 8 concurrent queries, 30s queue timeout.
	//
	// MemPoolBytes is the global query-memory pool shared by all statements.
	MemPoolBytes int64
	// MaxConcurrency bounds simultaneously executing queries; excess
	// statements wait in the admission queue.
	MaxConcurrency int
	// QueueTimeout bounds admission-queue wait (negative disables).
	QueueTimeout time.Duration
	// TempDir hosts operator spill files (default: system temp).
	TempDir string
	// DefaultPool is the resource pool new sessions admit against until SET
	// RESOURCE POOL changes it ("" = the built-in general pool).
	DefaultPool string
	// SlowQueryThreshold is the wall time past which a finished statement's
	// per-operator profile is retained even without PROFILE (0 = resmgr
	// default of 1s, negative disables slow-query capture).
	SlowQueryThreshold time.Duration
	// Profile runs every SELECT with wall-clock operator timing, as if each
	// were prefixed with PROFILE — a benchmarking/testing knob; interactive
	// use profiles per statement with the PROFILE verb.
	Profile bool
	// DCCapacity bounds each Data Collector ring (phases, events, mover,
	// locks, errors). 0 = dc.DefaultCapacity; negative disables the Data
	// Collector entirely (the v_monitor dc tables stay registered but
	// empty).
	DCCapacity int
	// PlanCacheSize bounds the plan cache (entries). 0 = the default of
	// 256; negative disables plan caching entirely (every SELECT replans —
	// the cold-path baseline benchmarks compare against).
	PlanCacheSize int
	// LogWriter receives the engine's structured log lines (slow queries,
	// server lifecycle). Nil means os.Stderr; io.Discard silences them.
	LogWriter io.Writer
}

// Database is one engine instance.
type Database struct {
	opts    Options
	cat     *catalog.Catalog
	cluster *cluster.Cluster
	txns    *txn.Manager
	dcol    *dc.Collector // Data Collector (nil when disabled)
	logger  *vlog.Logger

	moverMu sync.Mutex
	movers  map[string]*tuplemover.TupleMover // "node/projection"

	// projMu serializes CREATE PROJECTION, so a refresh never copies from
	// a projection another one is still populating.
	projMu sync.Mutex

	// Session registry backing v_monitor.sessions.
	sessMu   sync.Mutex
	sessSeq  int64
	sessions map[int64]*Session

	// plans caches analyzed queries and probe metadata keyed on normalized
	// fingerprints (nil when disabled). poolEpoch counts resource-pool
	// CREATE/ALTER/DROP statements; together with the catalog's generation
	// and stats epoch it makes every cached plan's validity checkable with
	// three integer compares.
	plans     *plancache.Cache
	poolEpoch atomic.Int64
}

// Result is the outcome of one statement. A SELECT's result set is carried
// in exactly one form: Rows from the row-returning entry points (Execute*,
// QueryAt, QueryAtContext), Batches from the columnar ones (ExecuteBatches,
// ExecuteBatchesAt, QueryAtBatches).
type Result struct {
	Schema *types.Schema
	Rows   []types.Row
	// Batches is the result set as the engine produced it: non-empty
	// batches in result order, columns possibly selected (Sel) or RLE.
	Batches      []*vector.Batch
	RowsAffected int64
	// Explain is the statement's plan: the EXPLAIN tree of a SELECT
	// (rendered when read), the annotated tree of a PROFILE.
	Explain resmgr.PlanText
	Message string
	// Stats carries the statement's resource accounting (SELECTs only).
	Stats resmgr.QueryStats
	// OpProfiles are the per-operator execution records of a PROFILE
	// statement (nil otherwise; Explain holds the rendered tree).
	OpProfiles []resmgr.OpProfile
}

// Open creates or reopens a database.
func Open(opts Options) (*Database, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.DirectLoadRowThreshold <= 0 {
		opts.DirectLoadRowThreshold = 10000
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: Options.Dir is required")
	}
	if opts.K > 1 {
		return nil, fmt.Errorf("core: K-safety %d is not supported: a segmented projection gets one buddy, so K is 0 or 1", opts.K)
	}
	cat, err := catalog.Load(opts.Dir)
	if err != nil {
		return nil, err
	}
	if err := cat.RebindExprs(sql.BindScalarExpr); err != nil {
		return nil, err
	}
	logw := opts.LogWriter
	if logw == nil {
		logw = os.Stderr
	}
	// Warn-and-above keeps the log quiet in normal operation while slow
	// queries and failures still surface.
	logger := vlog.New(logw, vlog.Warn)
	// The Data Collector is on by default: collection is bounded (ring
	// buffers) and per-statement-granularity, so the always-on cost is a
	// handful of appends per query. DCCapacity < 0 disables it outright.
	var dcol *dc.Collector
	if opts.DCCapacity >= 0 {
		dcol = dc.New(opts.DCCapacity)
	}
	tm := txn.NewManager()
	tm.Locks.SetCollector(dcol)
	gov := resmgr.NewGovernor(resmgr.Config{
		PoolBytes:          opts.MemPoolBytes,
		MaxConcurrency:     opts.MaxConcurrency,
		QueueTimeout:       opts.QueueTimeout,
		SlowQueryThreshold: opts.SlowQueryThreshold,
		Logger:             logger,
	})
	cl, err := cluster.New(cluster.Config{
		Nodes:         opts.Nodes,
		Dir:           opts.Dir,
		LocalSegments: opts.LocalSegments,
		WOSMaxBytes:   opts.WOSMaxBytes,
		Governor:      gov,
		TempDir:       opts.TempDir,
	}, cat, tm)
	if err != nil {
		return nil, err
	}
	db := &Database{
		opts:     opts,
		cat:      cat,
		cluster:  cl,
		txns:     tm,
		dcol:     dcol,
		logger:   logger,
		movers:   map[string]*tuplemover.TupleMover{},
		sessions: map[int64]*Session{},
	}
	// Plan caching is on by default (the high-QPS serving path); a negative
	// size opts out for cold-path baselines and ablation benches.
	if opts.PlanCacheSize >= 0 {
		size := opts.PlanCacheSize
		if size == 0 {
			size = 256
		}
		db.plans = plancache.New(size)
	}
	if err := db.registerMonitorTables(); err != nil {
		return nil, err
	}
	// Re-register persisted resource pools with the fresh governor: CREATE
	// RESOURCE POOL definitions live in the catalog and survive restart;
	// runtime state (queues, counters) starts clean. A persisted definition
	// of the built-in general pool records ALTERs to it. Restore is
	// best-effort: a definition that no longer validates (the global pool
	// shrank below a reservation, say) is skipped — not restoring one pool
	// must never brick Open, and the definition stays in the catalog so a
	// compatible configuration restores it on a later start.
	for _, d := range cat.PoolDefs() {
		if d.Name == resmgr.GeneralPool {
			_ = gov.AlterPool(resmgr.GeneralPool, poolAlterFromDef(d))
			continue
		}
		_ = gov.CreatePool(poolConfigFromDef(d))
	}
	// Bootstrap the configured default pool so `vsql -pool x` works before
	// any CREATE RESOURCE POOL has run (defaults apply; ALTER tunes it).
	if opts.DefaultPool != "" && opts.DefaultPool != resmgr.GeneralPool && !gov.HasPool(opts.DefaultPool) {
		if err := gov.CreatePool(resmgr.PoolConfig{Name: opts.DefaultPool}); err != nil {
			return nil, fmt.Errorf("core: Options.DefaultPool: %w", err)
		}
	}
	// Restore the epoch clock from stored data: the epoch column is the
	// durable log (paper §5.2), so the clock resumes past the newest stored
	// epoch and each projection's LGE reflects what reached the ROS.
	var maxEpoch types.Epoch
	for _, p := range cat.Projections() {
		if err := cl.EnsureStorage(p); err != nil {
			return nil, err
		}
		var projMax types.Epoch
		for _, n := range cl.Nodes() {
			mgr, err := n.Mgr(p, cl.ManagerOpts())
			if err != nil {
				return nil, err
			}
			for _, r := range mgr.Containers() {
				if r.Meta.MaxEpoch > projMax {
					projMax = r.Meta.MaxEpoch
				}
			}
		}
		tm.Epochs.SetLGE(p.Name, projMax)
		if projMax > maxEpoch {
			maxEpoch = projMax
		}
	}
	tm.Epochs.Restore(maxEpoch)
	// Publish live WOS size into the metrics registry. Registration
	// replaces any previous database's function (the registry is
	// process-wide; the newest open database wins, which is what tests
	// opening several databases in one process want).
	metrics.RegisterFunc("storage.wos_rows", func() int64 {
		var rows int64
		for _, p := range cat.Projections() {
			for _, n := range cl.UpNodes() {
				if mgr, err := n.Mgr(p, cl.ManagerOpts()); err == nil {
					rows += int64(mgr.WOS().Len())
				}
			}
		}
		return rows
	})
	// Publish the Data Collector's total dropped-event count so overflow
	// is visible on /metrics and v_monitor.metrics. It sums the five event
	// streams only — not the governor's two profile rings, which
	// v_monitor.data_collector also lists — so the benchmark's per-layer
	// dc.dropped_events keeps meaning what it measured before that table.
	metrics.RegisterFunc("dc.dropped_events", func() int64 {
		var n int64
		for _, st := range dcol.Stats() {
			n += st.Dropped
		}
		return n
	})
	return db, nil
}

// Catalog exposes the metadata catalog.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Cluster exposes the simulated cluster (failure injection, recovery).
func (db *Database) Cluster() *cluster.Cluster { return db.cluster }

// Txns exposes the transaction manager (epochs, locks).
func (db *Database) Txns() *txn.Manager { return db.txns }

// Governor exposes the resource governor (admission control, memory pool,
// workload stats).
func (db *Database) Governor() *resmgr.Governor { return db.cluster.Governor() }

// Collector exposes the Data Collector (nil when disabled via a negative
// Options.DCCapacity).
func (db *Database) Collector() *dc.Collector { return db.dcol }

// Logger exposes the engine's structured logger (nil-safe to use directly;
// see Options.LogWriter).
func (db *Database) Logger() *vlog.Logger { return db.logger }

// Execute parses and runs one SQL statement with autocommit.
func (db *Database) Execute(sqlText string) (*Result, error) {
	return db.ExecuteContext(context.Background(), sqlText)
}

// ExecuteContext is Execute under a cancellable context: cancelling ctx
// aborts a queued or running statement and returns its memory grant.
func (db *Database) ExecuteContext(ctx context.Context, sqlText string) (*Result, error) {
	s := db.NewSession()
	defer s.Close()
	return s.ExecuteContext(ctx, sqlText)
}

// MustExecute is Execute that panics on error (examples and tests).
func (db *Database) MustExecute(sqlText string) *Result {
	r, err := db.Execute(sqlText)
	if err != nil {
		panic(fmt.Sprintf("core: %v\n  in: %s", err, sqlText))
	}
	return r
}

// Session is one client connection: it carries the open transaction and the
// resource pool its statements admit against.
type Session struct {
	db      *Database
	tx      *txn.Txn
	id      int64
	created time.Time

	mu      sync.Mutex
	pool    string // "" = general
	curStmt string // statement currently executing ("" when idle)
	stmts   int64  // statements executed
	notrace bool   // SET SESSION TRACE OFF: skip phase/event tracing

	// prepared holds the session's PREPAREd statements by name. Prepared
	// statements are session-scoped (like Vertica's and Postgres's) and die
	// with the session.
	prepared map[string]*preparedStmt
}

// preparedStmt is one PREPARE'd statement: the parsed body (never mutated —
// EXECUTE substitutes parameters into a deep copy) and its parameter count.
type preparedStmt struct {
	name    string
	stmt    sql.Statement
	nparams int
}

// NewSession opens a session and registers it with v_monitor.sessions.
func (db *Database) NewSession() *Session {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	db.sessSeq++
	s := &Session{db: db, id: db.sessSeq, created: time.Now(), pool: db.opts.DefaultPool}
	db.sessions[s.id] = s
	metrics.ActiveSessions.Add(1)
	db.dcol.RecordEvent(dc.QueryEvent{Type: "SESSION_CONNECT", Detail: fmt.Sprintf("session=%d", s.id)})
	return s
}

// ID returns the session's monitor identifier.
func (s *Session) ID() int64 { return s.id }

// Pool returns the session's current resource pool ("" = general).
func (s *Session) Pool() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pool
}

// sessionRow is one open session, the row source for v_monitor.sessions.
type sessionRow struct {
	ID         int64     `vt:"session_id"`
	Pool       string    `vt:"pool"`
	Statements int64     `vt:"statements"`
	Current    string    `vt:"current_statement"`
	InTxn      bool      `vt:"in_txn"`
	Created    time.Time `vt:"created_at"`
}

// sessionRows lists the open sessions in session-id order.
func (db *Database) sessionRows() []sessionRow {
	db.sessMu.Lock()
	defer db.sessMu.Unlock()
	var rows []sessionRow
	for _, s := range db.sessions {
		s.mu.Lock()
		rows = append(rows, sessionRow{ID: s.id, Pool: cmp.Or(s.pool, resmgr.GeneralPool), Statements: s.stmts,
			Current: s.curStmt, InTxn: s.tx != nil, Created: s.created})
		s.mu.Unlock()
	}
	slices.SortFunc(rows, func(a, b sessionRow) int { return cmp.Compare(a.ID, b.ID) })
	return rows
}

// Close rolls back any open transaction and unregisters the session.
func (s *Session) Close() {
	if s.tx != nil {
		s.db.txns.Rollback(s.tx)
		s.setTx(nil)
	}
	s.db.sessMu.Lock()
	if _, live := s.db.sessions[s.id]; live {
		delete(s.db.sessions, s.id)
		metrics.ActiveSessions.Add(-1) // guarded: Close must be idempotent
		s.db.dcol.RecordEvent(dc.QueryEvent{Type: "SESSION_DISCONNECT", Detail: fmt.Sprintf("session=%d", s.id)})
	}
	s.db.sessMu.Unlock()
}

// newTrace returns a Data Collector trace for one statement, or nil when
// the session has tracing off or the collector is disabled.
func (s *Session) newTrace() *dc.Trace {
	s.mu.Lock()
	off := s.notrace
	s.mu.Unlock()
	if off {
		return nil
	}
	return dc.NewTrace(s.db.dcol)
}

// setTx stores the open transaction under the session mutex: the session's
// own goroutine is the only writer, but v_monitor.sessions reads in_txn from
// other goroutines.
func (s *Session) setTx(tx *txn.Txn) {
	s.mu.Lock()
	s.tx = tx
	s.mu.Unlock()
}

// noteStatement records the executing statement for v_monitor.sessions.
func (s *Session) noteStatement(text string) {
	s.mu.Lock()
	s.curStmt = text
	s.stmts++
	s.mu.Unlock()
}

func (s *Session) clearStatement() {
	s.mu.Lock()
	s.curStmt = ""
	s.mu.Unlock()
}

// Execute runs one statement in the session. Without an explicit BEGIN the
// statement autocommits.
func (s *Session) Execute(sqlText string) (*Result, error) {
	return s.ExecuteContext(context.Background(), sqlText)
}

// ExecuteContext runs one statement under a cancellable context. SELECTs and
// DML are admission-controlled by the session's resource pool and abandon
// execution at the next batch boundary when ctx ends.
func (s *Session) ExecuteContext(ctx context.Context, sqlText string) (*Result, error) {
	return withRows(s.ExecuteBatches(ctx, sqlText))
}

// withRows is the embedded-API boundary: the one place a statement's
// columnar result is pivoted into Result.Rows.
func withRows(res *Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res.Rows, res.Batches = vector.Rows(res.Batches), nil
	return res, nil
}

// ExecuteBatches is ExecuteContext with a SELECT's result set left columnar
// (Result.Batches): what a caller that renders or ships columns, like the
// server, wants instead of rows it would only take apart again.
func (s *Session) ExecuteBatches(ctx context.Context, sqlText string) (*Result, error) {
	return s.execute(ctx, sqlText, nil)
}

// ExecuteBatchesAt is ExecuteBatches with every SELECT the statement runs —
// plain, PROFILEd or the body of an EXECUTE — reading the snapshot at epoch
// instead of the live read epoch (time travel; the server's \pin). Other
// statements run as they always do.
func (s *Session) ExecuteBatchesAt(ctx context.Context, sqlText string, epoch types.Epoch) (*Result, error) {
	return s.execute(ctx, sqlText, &epoch)
}

// execute is the one statement prologue: trace, parse, session bookkeeping,
// context tags, dispatch. at is the snapshot epoch SELECTs read (nil = the
// read epoch current when each one runs).
func (s *Session) execute(ctx context.Context, sqlText string, at *types.Epoch) (res *Result, err error) {
	// Trace the statement's lifecycle phases into the Data Collector. The
	// trace buffers locally and publishes at statement end (the deferred
	// Flush), so a v_monitor.query_phases query sees complete statements
	// only. Failures also land in dc_errors, keyed by the same query id.
	tr := s.newTrace()
	defer func() {
		tr.Flush()
		if err != nil {
			s.db.dcol.RecordError(dc.ErrorEvent{
				QueryID: tr.QueryID(), SQL: statementLabel(sqlText), Error: err.Error()})
		}
	}()
	tr.Begin("parse")
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	tr.End()
	s.noteStatement(strings.TrimSpace(sqlText))
	defer s.clearStatement()
	ctx = resmgr.WithPool(ctx, s.Pool())
	ctx = resmgr.WithLabel(ctx, statementLabel(sqlText))
	ctx = dc.WithTrace(ctx, tr)
	return s.dispatch(ctx, stmt, at)
}

// dispatch routes a parsed statement to its implementation. EXECUTE re-enters
// here with its parameter-substituted body. at is execute's snapshot epoch.
func (s *Session) dispatch(ctx context.Context, stmt sql.Statement, at *types.Epoch) (*Result, error) {
	switch st := stmt.(type) {
	case *sql.TxnStmt:
		return s.execTxnStmt(st)
	case *sql.SelectStmt:
		return s.db.execSelect(ctx, st, at)
	case *sql.PrepareStmt:
		return s.execPrepare(st)
	case *sql.ExecuteStmt:
		return s.execExecute(ctx, st, at)
	case *sql.DeallocateStmt:
		return s.execDeallocate(st)
	case *sql.CreateTableStmt:
		return s.db.execCreateTable(st)
	case *sql.CreateProjectionStmt:
		return s.db.execCreateProjection(st)
	case *sql.CreatePoolStmt:
		return s.db.execCreatePool(st)
	case *sql.AlterPoolStmt:
		return s.db.execAlterPool(st)
	case *sql.SetStmt:
		return s.execSet(st)
	case *sql.AnalyzeStmt:
		return s.db.execAnalyze(st)
	case *sql.DropStmt:
		return s.db.execDrop(st)
	case *sql.InsertStmt:
		return s.autocommitDML(ctx, func(tx *txn.Txn) (int64, error) {
			return s.db.execInsert(tx, st)
		})
	case *sql.DeleteStmt:
		return s.autocommitDML(ctx, func(tx *txn.Txn) (int64, error) {
			return s.db.execDelete(tx, st)
		})
	case *sql.UpdateStmt:
		return s.autocommitDML(ctx, func(tx *txn.Txn) (int64, error) {
			return s.db.execUpdate(tx, st)
		})
	default:
		return nil, fmt.Errorf("core: unsupported statement %T", stmt)
	}
}

// execPrepare stores a parsed statement body under a session-scoped name.
func (s *Session) execPrepare(st *sql.PrepareStmt) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.prepared[st.Name]; exists {
		return nil, fmt.Errorf("core: prepared statement %q already exists", st.Name)
	}
	if s.prepared == nil {
		s.prepared = map[string]*preparedStmt{}
	}
	s.prepared[st.Name] = &preparedStmt{name: st.Name, stmt: st.Stmt, nparams: st.NumParams}
	return &Result{Message: "PREPARE"}, nil
}

// execExecute substitutes the EXECUTE arguments into a deep copy of the
// prepared body and dispatches it like any other statement. A prepared
// SELECT therefore flows through the plan cache: its fingerprint normalizes
// the substituted values just like ad-hoc literals, so repeated EXECUTEs
// with different parameters share one cache entry and re-bind at each
// execution without replanning.
func (s *Session) execExecute(ctx context.Context, st *sql.ExecuteStmt, at *types.Epoch) (*Result, error) {
	s.mu.Lock()
	ps := s.prepared[st.Name]
	s.mu.Unlock()
	if ps == nil {
		return nil, fmt.Errorf("core: prepared statement %q does not exist", st.Name)
	}
	if len(st.Args) != ps.nparams {
		return nil, fmt.Errorf("core: prepared statement %q needs %d parameter(s), got %d",
			st.Name, ps.nparams, len(st.Args))
	}
	bound, err := sql.SubstituteParams(ps.stmt, st.Args)
	if err != nil {
		return nil, err
	}
	return s.dispatch(ctx, bound, at)
}

// execDeallocate drops a prepared statement by name.
func (s *Session) execDeallocate(st *sql.DeallocateStmt) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.prepared[st.Name]; !exists {
		return nil, fmt.Errorf("core: prepared statement %q does not exist", st.Name)
	}
	delete(s.prepared, st.Name)
	return &Result{Message: "DEALLOCATE"}, nil
}

// statementLabel is the profile label for a statement: trimmed and bounded
// so the profile ring cannot retain arbitrarily large SQL text. Truncation
// backs up to a rune boundary so the label stays valid UTF-8.
func statementLabel(sqlText string) string {
	t := strings.TrimSpace(sqlText)
	const maxLabel = 256
	if len(t) > maxLabel {
		cut := maxLabel
		for cut > 0 && !utf8.RuneStart(t[cut]) {
			cut--
		}
		t = t[:cut] + "…"
	}
	return t
}

func (s *Session) execTxnStmt(st *sql.TxnStmt) (*Result, error) {
	switch st.Kind {
	case "BEGIN":
		if s.tx != nil {
			return nil, fmt.Errorf("core: transaction already open")
		}
		s.setTx(s.db.txns.Begin())
		return &Result{Message: "BEGIN"}, nil
	case "COMMIT":
		if s.tx == nil {
			return nil, fmt.Errorf("core: no open transaction")
		}
		_, err := s.db.txns.Commit(s.tx)
		s.setTx(nil)
		if err != nil {
			return nil, err
		}
		return &Result{Message: "COMMIT"}, nil
	default: // ROLLBACK
		if s.tx == nil {
			return nil, fmt.Errorf("core: no open transaction")
		}
		s.db.txns.Rollback(s.tx)
		s.setTx(nil)
		return &Result{Message: "ROLLBACK"}, nil
	}
}

// autocommitDML stages DML in the session transaction, committing
// immediately when none is open. DML admits against the session's resource
// pool like SELECTs do (before any lock is taken), so pools constrain load
// statements too and the grant's stats ride on the Result.
func (s *Session) autocommitDML(ctx context.Context, stage func(tx *txn.Txn) (int64, error)) (res *Result, err error) {
	tr := dc.TraceFrom(ctx)
	tr.Begin("queue")
	grant, err := s.db.Governor().Admit(ctx)
	if err != nil {
		return nil, err
	}
	tr.SetQueryID(grant.QueryID())
	tr.Begin("execute")
	defer func() {
		if err != nil {
			grant.SetError(err)
		}
		grant.Release()
	}()
	auto := s.tx == nil
	tx := s.tx
	if auto {
		tx = s.db.txns.Begin()
	}
	n, err := stage(tx)
	if err != nil {
		if auto {
			s.db.txns.Rollback(tx)
		}
		return nil, err
	}
	if auto {
		if _, err := s.db.txns.Commit(tx); err != nil {
			return nil, err
		}
	}
	grant.ReportRows(n)
	return &Result{RowsAffected: n, Message: fmt.Sprintf("%d rows", n), Stats: grant.Stats()}, nil
}

// --- resource pool statements ------------------------------------------------

// poolConfigOf translates parsed CREATE RESOURCE POOL options.
func poolConfigOf(name string, o sql.PoolOpts) resmgr.PoolConfig {
	cfg := resmgr.PoolConfig{Name: name}
	if o.MemBytes != nil {
		cfg.MemBytes = *o.MemBytes
	}
	if o.MaxMemBytes != nil {
		cfg.MaxMemBytes = *o.MaxMemBytes
	}
	if o.PlannedConcurrency != nil {
		cfg.PlannedConcurrency = int(*o.PlannedConcurrency)
	}
	if o.MaxConcurrency != nil {
		cfg.MaxConcurrency = int(*o.MaxConcurrency)
	}
	if o.QueueTimeoutMS != nil {
		cfg.QueueTimeout = queueTimeoutOf(*o.QueueTimeoutMS)
	}
	if o.Priority != nil {
		cfg.Priority = int(*o.Priority)
	}
	if o.RuntimeCapMS != nil {
		cfg.RuntimeCap = time.Duration(*o.RuntimeCapMS) * time.Millisecond
	}
	if o.Parallelism != nil {
		cfg.Parallelism = int(*o.Parallelism)
	}
	return cfg
}

// poolDefOf snapshots a pool's configured (not effective) knobs into the
// catalog's persisted form.
func poolDefOf(cfg resmgr.PoolConfig) catalog.PoolDef {
	d := catalog.PoolDef{
		Name:               cfg.Name,
		MemBytes:           cfg.MemBytes,
		MaxMemBytes:        cfg.MaxMemBytes,
		PlannedConcurrency: cfg.PlannedConcurrency,
		MaxConcurrency:     cfg.MaxConcurrency,
		Priority:           cfg.Priority,
		Parallelism:        cfg.Parallelism,
	}
	switch {
	case cfg.QueueTimeout < 0:
		d.QueueTimeoutMS = -1
	case cfg.QueueTimeout > 0:
		d.QueueTimeoutMS = cfg.QueueTimeout.Milliseconds()
	}
	if cfg.RuntimeCap > 0 {
		d.RuntimeCapMS = cfg.RuntimeCap.Milliseconds()
	}
	return d
}

// poolConfigFromDef rebuilds a governor pool configuration from its
// persisted definition.
func poolConfigFromDef(d catalog.PoolDef) resmgr.PoolConfig {
	cfg := resmgr.PoolConfig{
		Name:               d.Name,
		MemBytes:           d.MemBytes,
		MaxMemBytes:        d.MaxMemBytes,
		PlannedConcurrency: d.PlannedConcurrency,
		MaxConcurrency:     d.MaxConcurrency,
		Priority:           d.Priority,
		Parallelism:        d.Parallelism,
	}
	if d.QueueTimeoutMS != 0 {
		cfg.QueueTimeout = queueTimeoutOf(d.QueueTimeoutMS)
	}
	if d.RuntimeCapMS > 0 {
		cfg.RuntimeCap = time.Duration(d.RuntimeCapMS) * time.Millisecond
	}
	return cfg
}

// poolAlterFromDef expresses a persisted general-pool definition as an
// ALTER of only the knobs the definition records (non-zero fields): the
// general pool's other settings come from CLI flags / Options on every
// start, and restoring an ALTER must not freeze those.
func poolAlterFromDef(d catalog.PoolDef) resmgr.PoolAlter {
	cfg := poolConfigFromDef(d)
	var a resmgr.PoolAlter
	if cfg.MemBytes != 0 {
		a.MemBytes = &cfg.MemBytes
	}
	if cfg.MaxMemBytes != 0 {
		a.MaxMemBytes = &cfg.MaxMemBytes
	}
	if cfg.PlannedConcurrency != 0 {
		a.PlannedConcurrency = &cfg.PlannedConcurrency
	}
	if cfg.MaxConcurrency != 0 {
		a.MaxConcurrency = &cfg.MaxConcurrency
	}
	if cfg.QueueTimeout != 0 {
		a.QueueTimeout = &cfg.QueueTimeout
	}
	if cfg.Priority != 0 {
		a.Priority = &cfg.Priority
	}
	if cfg.RuntimeCap != 0 {
		a.RuntimeCap = &cfg.RuntimeCap
	}
	if cfg.Parallelism != 0 {
		a.Parallelism = &cfg.Parallelism
	}
	return a
}

// persistPool snapshots the named pool's current configuration into the
// catalog so CREATE/ALTER RESOURCE POOL survive restart. The built-in
// general pool is special: its baseline comes from CLI flags / Options, so
// only the knobs actually ALTERed (accumulated across statements) persist —
// never the flag-derived snapshot.
func (db *Database) persistPool(name string, opts *sql.PoolOpts) error {
	if name == resmgr.GeneralPool {
		d, _ := db.cat.PoolDef(name)
		d.Name = name
		if opts != nil {
			mergePoolOpts(&d, *opts)
		}
		return db.cat.SavePool(d)
	}
	st, ok := db.Governor().PoolStatus(name)
	if !ok {
		return fmt.Errorf("core: pool %q vanished before persisting", name)
	}
	return db.cat.SavePool(poolDefOf(st.Config))
}

// mergePoolOpts applies the fields one ALTER statement specified onto a
// persisted definition.
func mergePoolOpts(d *catalog.PoolDef, o sql.PoolOpts) {
	if o.MemBytes != nil {
		d.MemBytes = *o.MemBytes
	}
	if o.MaxMemBytes != nil {
		d.MaxMemBytes = *o.MaxMemBytes
	}
	if o.PlannedConcurrency != nil {
		d.PlannedConcurrency = int(*o.PlannedConcurrency)
	}
	if o.MaxConcurrency != nil {
		d.MaxConcurrency = int(*o.MaxConcurrency)
	}
	if o.QueueTimeoutMS != nil {
		d.QueueTimeoutMS = *o.QueueTimeoutMS
	}
	if o.Priority != nil {
		d.Priority = int(*o.Priority)
	}
	if o.RuntimeCapMS != nil {
		d.RuntimeCapMS = *o.RuntimeCapMS
	}
	if o.Parallelism != nil {
		d.Parallelism = int(*o.Parallelism)
	}
}

// queueTimeoutOf maps the parsed QUEUETIMEOUT milliseconds (-1 = NONE) onto
// resmgr semantics (negative disables, zero inherits).
func queueTimeoutOf(ms int64) time.Duration {
	if ms < 0 {
		return -1
	}
	return time.Duration(ms) * time.Millisecond
}

func (db *Database) execCreatePool(st *sql.CreatePoolStmt) (*Result, error) {
	if err := db.Governor().CreatePool(poolConfigOf(st.Name, st.Opts)); err != nil {
		return nil, err
	}
	if err := db.persistPool(st.Name, &st.Opts); err != nil {
		return nil, err
	}
	db.poolEpoch.Add(1)
	db.sweepPlans()
	return &Result{Message: "CREATE RESOURCE POOL"}, nil
}

func (db *Database) execAlterPool(st *sql.AlterPoolStmt) (*Result, error) {
	var a resmgr.PoolAlter
	a.MemBytes = st.Opts.MemBytes
	a.MaxMemBytes = st.Opts.MaxMemBytes
	if st.Opts.PlannedConcurrency != nil {
		v := int(*st.Opts.PlannedConcurrency)
		a.PlannedConcurrency = &v
	}
	if st.Opts.MaxConcurrency != nil {
		v := int(*st.Opts.MaxConcurrency)
		a.MaxConcurrency = &v
	}
	if st.Opts.QueueTimeoutMS != nil {
		d := queueTimeoutOf(*st.Opts.QueueTimeoutMS)
		a.QueueTimeout = &d
	}
	if st.Opts.Priority != nil {
		v := int(*st.Opts.Priority)
		a.Priority = &v
	}
	if st.Opts.RuntimeCapMS != nil {
		d := time.Duration(*st.Opts.RuntimeCapMS) * time.Millisecond
		a.RuntimeCap = &d
	}
	if st.Opts.Parallelism != nil {
		v := int(*st.Opts.Parallelism)
		a.Parallelism = &v
	}
	if err := db.Governor().AlterPool(st.Name, a); err != nil {
		return nil, err
	}
	if err := db.persistPool(st.Name, &st.Opts); err != nil {
		return nil, err
	}
	db.poolEpoch.Add(1)
	db.sweepPlans()
	return &Result{Message: "ALTER RESOURCE POOL"}, nil
}

// execSet dispatches SET statements: SESSION TRACE toggles the session's
// Data Collector tracing, RESOURCE POOL switches the admission pool.
func (s *Session) execSet(st *sql.SetStmt) (*Result, error) {
	if st.Trace != "" {
		s.mu.Lock()
		s.notrace = st.Trace == "off"
		s.mu.Unlock()
		return &Result{Message: "SET SESSION TRACE " + strings.ToUpper(st.Trace)}, nil
	}
	return s.execSetPool(st)
}

// execSetPool switches the session's admission pool after verifying the
// pool exists (SET RESOURCE POOL general always works). It holds the
// session registry lock across check and set so a concurrent DROP RESOURCE
// POOL — whose fallback sweep runs under the same lock — cannot interleave
// and leave the session pinned to a pool that no longer exists.
func (s *Session) execSetPool(st *sql.SetStmt) (*Result, error) {
	s.db.sessMu.Lock()
	defer s.db.sessMu.Unlock()
	if !s.db.Governor().HasPool(st.Pool) {
		return nil, fmt.Errorf("core: resource pool %q does not exist", st.Pool)
	}
	s.mu.Lock()
	s.pool = st.Pool
	s.mu.Unlock()
	return &Result{Message: "SET RESOURCE POOL " + st.Pool}, nil
}

// --- statement implementations ---------------------------------------------

// execSelect plans (or replays from the plan cache) and runs one SELECT at
// snapshot epoch *at, or at the live read epoch when at is nil.
func (db *Database) execSelect(ctx context.Context, st *sql.SelectStmt, at *types.Epoch) (*Result, error) {
	dc.TraceFrom(ctx).Begin("analyze")
	opts := db.planOpts(st)

	// Plan-cache lookup. EXPLAIN/PROFILE always replan (their whole point
	// is showing planning), and system-table queries are too cheap and too
	// volatile (virtual schemas can be re-registered) to cache.
	var (
		cacheEpochs plancache.Epochs
		cacheKey    plancache.Key
		cacheLits   []types.Value
		entry       *plancache.Entry
		cacheable   = db.plans != nil && !st.Explain && !st.Profile && !db.usesVirtual(st)
	)
	if cacheable {
		fp, lits := sql.Fingerprint(st)
		cacheLits = lits
		pool := resmgr.PoolFromContext(ctx)
		if pool == "" {
			// An unset session pool admits against general: key it that way
			// so explicit SET RESOURCE POOL general shares the entries.
			pool = resmgr.GeneralPool
		}
		cacheKey = plancache.Key{
			Fingerprint:   fp,
			Pool:          pool,
			Parallelism:   opts.Parallelism,
			ForceParallel: opts.ForceParallel,
		}
		cacheEpochs = db.planEpochs()
		entry = db.plans.Lookup(cacheKey, cacheEpochs)
	}

	var q *optimizer.LogicalQuery
	var err error
	switch {
	case entry != nil && sql.LiteralsEqual(entry.Literals, cacheLits):
		// Exact hit: the cached bound query embeds these very constants, so
		// analysis is skipped entirely along with the probe plan.
		q = entry.Query
		opts.CachedProbe = &entry.Probe
	case entry != nil:
		// Shape hit, different literals: the cached LogicalQuery embeds the
		// old constants and must not run, but analysis (name binding) is the
		// cheap half — re-analyze for correct constants and reuse the probe
		// metadata. Estimates depend on the predicates' shapes, not their
		// literals, so the probe holds for the fresh constants too.
		q, err = sql.AnalyzeSelect(st, db.cat)
		if err != nil {
			return nil, err
		}
		opts.CachedProbe = &entry.Probe
	}
	if q == nil {
		q, err = sql.AnalyzeSelect(st, db.cat)
		if err != nil {
			return nil, err
		}
	}
	epoch := db.txns.Epochs.ReadEpoch()
	if at != nil {
		epoch = *at
	}
	res, err := db.cluster.RunAtCtx(ctx, q, opts, epoch)
	if err != nil {
		return nil, err
	}
	if cacheable && opts.CachedProbe == nil {
		// Miss: record the plan with its fresh probe metadata.
		db.plans.Insert(cacheKey, &plancache.Entry{
			Query:    q,
			Literals: cacheLits,
			Probe:    res.Probe,
			Epochs:   cacheEpochs,
		})
	}
	if st.Explain {
		return &Result{Explain: res.Explain, Message: res.Explain.String()}, nil
	}
	if st.Profile {
		// PROFILE executes normally, then reports the annotated plan
		// instead of the rows (the records also land in
		// v_monitor.execution_engine_profiles via the grant).
		tree := exec.FormatProfiles(res.OpProfiles)
		return &Result{Explain: resmgr.LazyText(func() string { return tree }), Message: tree, OpProfiles: res.OpProfiles, Stats: res.Stats}, nil
	}
	return &Result{Schema: res.Schema, Batches: res.Batches, Explain: res.Explain, Stats: res.Stats}, nil
}

// usesVirtual reports whether the SELECT reads any system table.
func (db *Database) usesVirtual(st *sql.SelectStmt) bool {
	for _, te := range st.From {
		if db.cat.Virtual(te.Table) != nil {
			return true
		}
	}
	return false
}

// planEpochs snapshots the two epoch counters a cached plan's validity
// depends on.
func (db *Database) planEpochs() plancache.Epochs {
	return plancache.Epochs{
		CatalogGen: db.cat.Generation(),
		PoolEpoch:  db.poolEpoch.Load(),
	}
}

// sweepPlans eagerly retires cache entries invalidated by an epoch bump.
// Lookup would retire them lazily anyway; the sweep keeps
// v_monitor.plan_cache and the invalidation counters current the moment
// DDL/pool changes commit.
func (db *Database) sweepPlans() {
	if db.plans != nil {
		db.plans.InvalidateStale(db.planEpochs())
	}
}

// planOpts assembles the per-statement planner/runner options from the
// database configuration and the statement's modifiers.
func (db *Database) planOpts(st *sql.SelectStmt) optimizer.PlanOpts {
	return optimizer.PlanOpts{
		Parallelism:   db.opts.Parallelism,
		ForceParallel: db.opts.ForceParallel,
		Profile:       db.opts.Profile || (st != nil && st.Profile),
	}
}

// QueryAt runs a SELECT at a historical epoch (time travel).
func (db *Database) QueryAt(sqlText string, epoch types.Epoch) (*Result, error) {
	return db.QueryAtContext(context.Background(), sqlText, epoch)
}

// QueryAtContext is QueryAt under a cancellable, admission-controlled
// context.
func (db *Database) QueryAtContext(ctx context.Context, sqlText string, epoch types.Epoch) (*Result, error) {
	return withRows(db.QueryAtBatches(ctx, sqlText, epoch))
}

// QueryAtBatches is QueryAtContext with the result set left columnar. Like
// ExecuteContext it runs in a session of its own.
func (db *Database) QueryAtBatches(ctx context.Context, sqlText string, epoch types.Epoch) (*Result, error) {
	if stmt, err := sql.Parse(sqlText); err != nil {
		return nil, err
	} else if _, ok := stmt.(*sql.SelectStmt); !ok {
		return nil, fmt.Errorf("core: QueryAt requires a SELECT")
	}
	s := db.NewSession()
	defer s.Close()
	return s.ExecuteBatchesAt(ctx, sqlText, epoch)
}

func (db *Database) execCreateTable(st *sql.CreateTableStmt) (*Result, error) {
	cols := make([]types.Column, len(st.Cols))
	for i, c := range st.Cols {
		cols[i] = types.Column{Name: c.Name, Typ: c.Typ, Nullable: !c.NotNull}
	}
	t := &catalog.Table{
		Name:              st.Name,
		Schema:            types.NewSchema(cols...),
		PartitionExprText: st.PartitionText,
	}
	if st.PartitionText != "" {
		e, err := sql.BindScalarExpr(st.PartitionText, t.Schema)
		if err != nil {
			return nil, err
		}
		t.PartitionExpr = e
	}
	if err := db.cat.CreateTable(t); err != nil {
		return nil, err
	}
	db.sweepPlans()
	return &Result{Message: "CREATE TABLE"}, nil
}

// execCreateProjection registers a projection, with its buddy when
// K-safety requires one, and populates both from the anchor's other data
// (paper §5.2: "refresh is used to populate new projections"). The anchor's
// S lock is taken before the projection becomes visible to DML and held
// until the copy is written: S admits no INSERT, UPDATE or DELETE (Table 1),
// so no row is both copied and inserted, and none is neither.
func (db *Database) execCreateProjection(st *sql.CreateProjectionStmt) (*Result, error) {
	p := &catalog.Projection{
		Name:      st.Name,
		Anchor:    st.Table,
		Columns:   st.Columns,
		SortOrder: st.SortOrder,
		Encodings: st.Encodings,
	}
	if st.Replicated {
		p.Seg.Replicated = true
	} else if len(st.SegCols) > 0 {
		p.Seg.ExprText = st.SegText
	}
	db.projMu.Lock()
	defer db.projMu.Unlock()
	// The anchor's first projection has nothing to copy from, and no lock
	// to take: an INSERT into a table without projections fails.
	refresh := slices.ContainsFunc(db.cat.ProjectionsFor(st.Table), func(q *catalog.Projection) bool { return !q.IsBuddy })
	if refresh {
		rtx := db.txns.Begin()
		defer db.txns.Locks.ReleaseAll(rtx.ID)
		if err := db.txns.Locks.Acquire(rtx.ID, st.Table, txn.S); err != nil {
			return nil, err
		}
	}
	if st.BuddyOf != "" {
		primary, err := db.cat.Projection(st.BuddyOf)
		if err != nil {
			return nil, err
		}
		p.IsBuddy = true
		p.Seg.Offset = 1
		primary.Buddy = p.Name
	}
	if err := db.createProjection(p); err != nil {
		return nil, err
	}
	if refresh {
		names := []string{p.Name}
		if p.Buddy != "" {
			names = append(names, p.Buddy)
		}
		for _, name := range names {
			if err := db.cluster.Refresh(name); err != nil {
				return nil, err
			}
		}
	}
	db.sweepPlans()
	return &Result{Message: "CREATE PROJECTION"}, nil
}

// createProjection registers a projection, binding its segmentation
// expression and auto-creating a buddy when K-safety requires one (paper
// §5.2: "each projection must have at least one buddy projection ... such
// that no row is stored on the same node by both").
func (db *Database) createProjection(p *catalog.Projection) error {
	if err := db.cat.CreateProjection(p); err != nil {
		return err
	}
	if p.Seg.ExprText != "" {
		if err := db.cat.RebindExprs(sql.BindScalarExpr); err != nil {
			return err
		}
	}
	if err := db.cluster.EnsureStorage(p); err != nil {
		return err
	}
	// Auto-buddy for K-safety on multi-node clusters.
	if db.opts.K >= 1 && !p.IsBuddy && !p.Seg.Replicated && p.Buddy == "" && db.opts.Nodes > 1 {
		buddy := &catalog.Projection{
			Name:      p.Name + "_b1",
			Anchor:    p.Anchor,
			Columns:   append([]string{}, p.Columns...),
			SortOrder: append([]string{}, p.SortOrder...),
			Encodings: p.Encodings,
			Seg: catalog.Segmentation{
				ExprText: p.Seg.ExprText,
				Offset:   1,
			},
			IsBuddy: true,
		}
		if err := db.cat.CreateProjection(buddy); err != nil {
			return err
		}
		if err := db.cat.RebindExprs(sql.BindScalarExpr); err != nil {
			return err
		}
		if err := db.cluster.EnsureStorage(buddy); err != nil {
			return err
		}
		p.Buddy = buddy.Name
	}
	return nil
}

func (db *Database) execDrop(st *sql.DropStmt) (*Result, error) {
	switch st.Kind {
	case "TABLE":
		if err := db.cat.DropTable(st.Name); err != nil {
			return nil, err
		}
		db.sweepPlans()
		return &Result{Message: "DROP TABLE"}, nil
	case "PROJECTION":
		if err := db.cat.DropProjection(st.Name); err != nil {
			return nil, err
		}
		db.sweepPlans()
		return &Result{Message: "DROP PROJECTION"}, nil
	case "RESOURCE POOL":
		if err := db.Governor().DropPool(st.Name); err != nil {
			return nil, err
		}
		if err := db.cat.DropPool(st.Name); err != nil {
			return nil, err
		}
		// Sessions still SET to the dropped pool — and the default for
		// future sessions — fall back to general instead of failing every
		// subsequent statement.
		db.sessMu.Lock()
		if db.opts.DefaultPool == st.Name {
			db.opts.DefaultPool = ""
		}
		for _, s := range db.sessions {
			s.mu.Lock()
			if s.pool == st.Name {
				s.pool = ""
			}
			s.mu.Unlock()
		}
		db.sessMu.Unlock()
		db.poolEpoch.Add(1)
		db.sweepPlans()
		return &Result{Message: "DROP RESOURCE POOL"}, nil
	default: // PARTITION: fast bulk deletion by dropping container files
		// (paper §3.5). Requires an Owner lock.
		otx := db.txns.Begin()
		if err := db.txns.Locks.Acquire(otx.ID, st.Name, txn.O); err != nil {
			return nil, err
		}
		defer db.txns.Locks.ReleaseAll(otx.ID)
		var dropped int64
		for _, p := range db.cat.ProjectionsFor(st.Name) {
			for _, n := range db.cluster.UpNodes() {
				mgr, err := n.Mgr(p, db.cluster.ManagerOpts())
				if err != nil {
					return nil, err
				}
				rows, err := mgr.DropPartition(st.Key)
				if err != nil {
					return nil, err
				}
				if p.IsSuper && !p.IsBuddy {
					dropped += rows
				}
			}
		}
		return &Result{RowsAffected: dropped, Message: fmt.Sprintf("DROP PARTITION (%d rows)", dropped)}, nil
	}
}

func (db *Database) execInsert(tx *txn.Txn, st *sql.InsertStmt) (int64, error) {
	t, err := db.cat.Table(st.Table)
	if err != nil {
		return 0, err
	}
	// Insert lock: compatible with itself, so parallel loads proceed (§5).
	if err := db.txns.Locks.Acquire(tx.ID, st.Table, txn.I); err != nil {
		return 0, err
	}
	b := vector.NewBatchForSchema(t.Schema, len(st.Rows))
	targets := b.Cols
	if len(st.Cols) > 0 {
		targets = make([]*vector.Vector, len(st.Cols))
		for pos, cn := range st.Cols {
			i := t.Schema.ColIndex(cn)
			if i < 0 {
				return 0, fmt.Errorf("core: unknown column %q", cn)
			}
			targets[pos] = b.Cols[i]
		}
	}
	for pos, v := range targets {
		v.Reset() // a column named twice takes its last values
		for _, astRow := range st.Rows {
			if len(astRow) != len(targets) {
				return 0, fmt.Errorf("core: INSERT arity mismatch")
			}
			val, err := evalLiteral(astRow[pos])
			if err != nil {
				return 0, err
			}
			v.AppendValue(types.Coerce(val, v.Typ))
		}
	}
	for _, v := range b.Cols {
		v.AppendNulls(len(st.Rows) - v.Len()) // a column left out is NULL
	}
	if err := db.cluster.StageInsert(tx, st.Table, b, false); err != nil {
		return 0, err
	}
	return int64(len(st.Rows)), nil
}

func (db *Database) execDelete(tx *txn.Txn, st *sql.DeleteStmt) (int64, error) {
	t, err := db.cat.Table(st.Table)
	if err != nil {
		return 0, err
	}
	// Deletes require the eXclusive lock (paper §5).
	if err := db.txns.Locks.Acquire(tx.ID, st.Table, txn.X); err != nil {
		return 0, err
	}
	var pred expr.Expr
	if st.Where != nil {
		pred, err = sql.BindExprToTable(st.Where, t)
		if err != nil {
			return 0, err
		}
	}
	return db.cluster.StageDelete(tx, st.Table, pred, db.txns.Epochs.ReadEpoch())
}

func (db *Database) execUpdate(tx *txn.Txn, st *sql.UpdateStmt) (int64, error) {
	t, err := db.cat.Table(st.Table)
	if err != nil {
		return 0, err
	}
	if err := db.txns.Locks.Acquire(tx.ID, st.Table, txn.X); err != nil {
		return 0, err
	}
	set := map[int]expr.Expr{}
	for _, cn := range st.Cols {
		i := t.Schema.ColIndex(cn)
		if i < 0 {
			return 0, fmt.Errorf("core: unknown column %q", cn)
		}
		e, err := sql.BindExprToTable(st.Set[cn], t)
		if err != nil {
			return 0, err
		}
		set[i] = e
	}
	var pred expr.Expr
	if st.Where != nil {
		pred, err = sql.BindExprToTable(st.Where, t)
		if err != nil {
			return 0, err
		}
	}
	return db.cluster.StageUpdate(tx, st.Table, set, pred, db.txns.Epochs.ReadEpoch())
}

// Load bulk-loads rows into a table. Loads of DirectLoadRowThreshold rows or
// more (or with direct=true) bypass the WOS and write ROS containers
// immediately.
func (db *Database) Load(table string, rows []types.Row, direct bool) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("core: row arity %d != table %s arity %d", len(r), table, t.Schema.Len())
		}
	}
	tx := db.txns.Begin()
	if err := db.txns.Locks.Acquire(tx.ID, table, txn.I); err != nil {
		return err
	}
	direct = direct || len(rows) >= db.opts.DirectLoadRowThreshold
	if err := db.cluster.StageInsert(tx, table, vector.BatchFromRows(t.Schema, rows), direct); err != nil {
		db.txns.Rollback(tx)
		return err
	}
	_, err = db.txns.Commit(tx)
	return err
}

// --- tuple mover -------------------------------------------------------------

// moverFor builds (once) the tuple mover for a projection on a node.
func (db *Database) moverFor(n *cluster.Node, p *catalog.Projection) (*tuplemover.TupleMover, error) {
	key := fmt.Sprintf("%d/%s", n.ID, p.Name)
	db.moverMu.Lock()
	defer db.moverMu.Unlock()
	if tm, ok := db.movers[key]; ok {
		return tm, nil
	}
	mgr, err := n.Mgr(p, db.cluster.ManagerOpts())
	if err != nil {
		return nil, err
	}
	place, err := db.cluster.Placement(p)
	if err != nil {
		return nil, err
	}
	tm, err := tuplemover.New(tuplemover.Config{
		Mgr:       mgr,
		Epochs:    db.txns.Epochs,
		Place:     place,
		Collector: db.dcol,
	})
	if err != nil {
		return nil, err
	}
	db.movers[key] = tm
	return tm, nil
}

// RunTupleMover performs one moveout+mergeout cycle on every node and
// projection; the paper's tuple mover runs this continuously in the
// background, here it is explicit for determinism. Returns total rows moved
// out and merges performed.
func (db *Database) RunTupleMover() (int, int, error) {
	start := time.Now()
	defer func() { metrics.MoverCycleUs.Observe(time.Since(start).Microseconds()) }()
	// Tuple mover operations take the T lock, compatible with queries and
	// loads but not X (paper §5, Table 1).
	ttx := db.txns.Begin()
	defer db.txns.Locks.ReleaseAll(ttx.ID)
	totalMoved, totalMerged := 0, 0
	for _, p := range db.cat.Projections() {
		if err := db.txns.Locks.Acquire(ttx.ID, p.Anchor, txn.T); err != nil {
			return totalMoved, totalMerged, err
		}
		for _, n := range db.cluster.UpNodes() {
			tm, err := db.moverFor(n, p)
			if err != nil {
				return totalMoved, totalMerged, err
			}
			moved, merged, err := tm.Run()
			if err != nil {
				return totalMoved, totalMerged, err
			}
			if moved > 0 {
				metrics.TupleMoverMoveouts.Inc()
			}
			metrics.TupleMoverMergeouts.Add(int64(merged))
			totalMoved += moved
			totalMerged += merged
		}
	}
	db.txns.Epochs.AdvanceAHM()
	db.logger.Debugf("tuple_mover_cycle", "rows_moved", totalMoved,
		"merges", totalMerged, "wall_us", time.Since(start).Microseconds())
	return totalMoved, totalMerged, nil
}

// --- helpers ------------------------------------------------------------------

// evalLiteral evaluates a literal-only AST expression (INSERT values).
func evalLiteral(a sql.AstExpr) (types.Value, error) {
	if lit, ok := a.(*sql.ALit); ok {
		return lit.Val, nil // what binding it to a constant would return
	}
	e, err := sql.BindLiteralExpr(a)
	if err != nil {
		return types.Value{}, err
	}
	return e.EvalRow(nil)
}
