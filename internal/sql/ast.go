package sql

import (
	"repro/internal/encoding"
	"repro/internal/types"
)

// AST nodes produced by the parser, consumed by the analyzer.

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expression AST (unbound; names resolved by the analyzer).

// AstExpr is any parsed expression.
type AstExpr interface{ astExpr() }

// ALit is a literal.
type ALit struct{ Val types.Value }

// ACol is a (possibly qualified) column reference.
type ACol struct{ Qualifier, Name string }

// ABin is a binary operation: arithmetic, comparison, AND/OR.
type ABin struct {
	Op   string // "+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R AstExpr
}

// ANot negates a boolean expression.
type ANot struct{ Arg AstExpr }

// AIsNull is IS [NOT] NULL.
type AIsNull struct {
	Arg    AstExpr
	Negate bool
}

// AIn is <expr> [NOT] IN (literals...).
type AIn struct {
	Arg    AstExpr
	Vals   []types.Value
	Negate bool
}

// AFunc is a scalar function call.
type AFunc struct {
	Name string
	Args []AstExpr
}

// ACase is a searched CASE.
type ACase struct {
	Whens []AWhen
	Else  AstExpr
}

// AWhen is one CASE arm.
type AWhen struct{ Cond, Then AstExpr }

// AAgg is an aggregate call in a select list or HAVING.
type AAgg struct {
	Func     string // COUNT, SUM, AVG, MIN, MAX
	Star     bool   // COUNT(*)
	Distinct bool
	Arg      AstExpr
}

// AParam is a $n positional placeholder (1-based). Placeholders are only
// legal inside a PREPAREd statement body; EXECUTE substitutes literal
// values before analysis.
type AParam struct{ N int }

func (*ALit) astExpr()    {}
func (*ACol) astExpr()    {}
func (*ABin) astExpr()    {}
func (*ANot) astExpr()    {}
func (*AIsNull) astExpr() {}
func (*AIn) astExpr()     {}
func (*AFunc) astExpr()   {}
func (*ACase) astExpr()   {}
func (*AAgg) astExpr()    {}
func (*AParam) astExpr()  {}

// SelectItem is one select-list entry.
type SelectItem struct {
	Expr AstExpr
	Name string // AS alias ("" = derived)
	Star bool   // SELECT *
}

// TableExpr is one FROM entry with optional join clause.
type TableExpr struct {
	Table string
	Alias string
	// Join fields apply from the second FROM entry onward.
	JoinType string  // "", "INNER", "LEFT", "RIGHT", "FULL", "SEMI", "ANTI"
	On       AstExpr // join condition
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr AstExpr
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableExpr
	Where    AstExpr
	GroupBy  []AstExpr
	Having   AstExpr
	OrderBy  []OrderItem
	Limit    int64 // -1 none
	Offset   int64
	Explain  bool
	// Profile executes the statement normally, then returns the EXPLAIN tree
	// annotated with each operator's measured counters (PROFILE SELECT ...).
	Profile bool
}

// ColumnDef is one CREATE TABLE column.
type ColumnDef struct {
	Name     string
	Typ      types.Type
	NotNull  bool
	Encoding encoding.Kind // column encoding hint (AUTO default)
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name          string
	Cols          []ColumnDef
	PartitionExpr AstExpr
	PartitionText string
}

// CreateProjectionStmt is CREATE PROJECTION name ON table (cols...)
// ORDER BY cols [SEGMENTED BY HASH(cols) | REPLICATED] [BUDDY OF proj].
type CreateProjectionStmt struct {
	Name       string
	Table      string
	Columns    []string
	SortOrder  []string
	Encodings  map[string]encoding.Kind
	Replicated bool
	SegCols    []string // HASH(segCols)
	SegText    string
	BuddyOf    string
}

// InsertStmt is INSERT INTO t VALUES (...), (...).
type InsertStmt struct {
	Table string
	Cols  []string // optional column list
	Rows  [][]AstExpr
}

// DeleteStmt is DELETE FROM t WHERE ...
type DeleteStmt struct {
	Table string
	Where AstExpr
}

// UpdateStmt is UPDATE t SET c=e, ... WHERE ...
type UpdateStmt struct {
	Table string
	Set   map[string]AstExpr
	Cols  []string // SET order
	Where AstExpr
}

// DropStmt is DROP TABLE/PROJECTION/RESOURCE POOL name, or
// DROP PARTITION t 'key'.
type DropStmt struct {
	Kind string // "TABLE", "PROJECTION", "PARTITION", "RESOURCE POOL"
	Name string
	Key  string // partition key for DROP PARTITION
}

// TxnStmt is BEGIN/COMMIT/ROLLBACK.
type TxnStmt struct{ Kind string }

// PoolOpts carries CREATE/ALTER RESOURCE POOL options; nil fields were not
// specified (ALTER keeps the current value, CREATE takes defaults).
type PoolOpts struct {
	MemBytes           *int64 // MEMORYSIZE
	MaxMemBytes        *int64 // MAXMEMORYSIZE
	PlannedConcurrency *int64 // PLANNEDCONCURRENCY
	MaxConcurrency     *int64 // MAXCONCURRENCY
	QueueTimeoutMS     *int64 // QUEUETIMEOUT in ms; -1 = NONE (disabled)
	Priority           *int64 // PRIORITY (higher dispatches first; may be negative)
	RuntimeCapMS       *int64 // RUNTIMECAP in ms; 0 = NONE (uncapped)
	Parallelism        *int64 // PARALLELISM (intra-node degree; 0 = engine default)
}

// CreatePoolStmt is CREATE RESOURCE POOL name [options].
type CreatePoolStmt struct {
	Name string
	Opts PoolOpts
}

// AlterPoolStmt is ALTER RESOURCE POOL name options.
type AlterPoolStmt struct {
	Name string
	Opts PoolOpts
}

// SetStmt is SET RESOURCE POOL name (switches the session's admission
// pool) or SET SESSION TRACE ON|OFF (toggles Data Collector query-phase
// tracing for the session). Exactly one of Pool or Trace is set; Trace is
// "on" or "off".
type SetStmt struct {
	Pool  string
	Trace string
}

// AnalyzeStmt is ANALYZE_STATISTICS('table') or
// ANALYZE_STATISTICS('table.column'). The engine keeps no column
// statistics: the statement only checks that its target exists.
type AnalyzeStmt struct {
	Target string // 'table' or 'table.column'
}

// PrepareStmt is PREPARE name AS <statement>. The body may contain $n
// placeholders; NumParams is the highest placeholder index referenced.
type PrepareStmt struct {
	Name      string
	Stmt      Statement
	NumParams int
}

// ExecuteStmt is EXECUTE name [(args...)] with literal arguments.
type ExecuteStmt struct {
	Name string
	Args []types.Value
}

// DeallocateStmt is DEALLOCATE [PREPARE] name.
type DeallocateStmt struct {
	Name string
}

func (*SelectStmt) stmt()           {}
func (*CreateTableStmt) stmt()      {}
func (*CreateProjectionStmt) stmt() {}
func (*InsertStmt) stmt()           {}
func (*DeleteStmt) stmt()           {}
func (*UpdateStmt) stmt()           {}
func (*DropStmt) stmt()             {}
func (*TxnStmt) stmt()              {}
func (*CreatePoolStmt) stmt()       {}
func (*AlterPoolStmt) stmt()        {}
func (*SetStmt) stmt()              {}
func (*AnalyzeStmt) stmt()          {}
func (*PrepareStmt) stmt()          {}
func (*ExecuteStmt) stmt()          {}
func (*DeallocateStmt) stmt()       {}
