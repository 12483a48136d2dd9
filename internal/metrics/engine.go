package metrics

// Predeclared engine metrics. Declaring them here (rather than at each call
// site) gives every subsystem a zero-lookup handle and gives readers one
// place to see what the engine exports. Names are dotted by owning layer.
var (
	// Resource governor.
	Admissions      = Default.NewCounter("resmgr.admissions")
	Rejections      = Default.NewCounter("resmgr.rejections")
	QueueWaitUs     = Default.NewCounter("resmgr.queue_wait_us")
	GrantExtensions = Default.NewCounter("resmgr.grant_extensions")
	GrantDenials    = Default.NewCounter("resmgr.grant_denials")
	SlowQueries     = Default.NewCounter("resmgr.slow_queries")

	// Execution engine.
	Spills          = Default.NewCounter("exec.spills")
	SpilledBytes    = Default.NewCounter("exec.spilled_bytes")
	ExchangeBatches = Default.NewCounter("exec.exchange_batches")
	ExchangeRows    = Default.NewCounter("exec.exchange_rows")
	ExchangeBytes   = Default.NewCounter("exec.exchange_bytes")

	// Storage / tuple mover.
	TupleMoverMoveouts  = Default.NewCounter("storage.tuple_mover_moveouts")
	TupleMoverMergeouts = Default.NewCounter("storage.tuple_mover_mergeouts")

	// Decoded-block cache: repeated scans of immutable ROS containers serve
	// decoded vectors from memory instead of re-running block decode.
	BlockCacheHits      = Default.NewCounter("storage.block_cache_hits")
	BlockCacheMisses    = Default.NewCounter("storage.block_cache_misses")
	BlockCacheEvictions = Default.NewCounter("storage.block_cache_evictions")
	BlockCacheBytes     = Default.NewGauge("storage.block_cache_bytes")

	// Sessions. WOS rows is a pull-style func registered by the database
	// instance (core.Open) since it reads live storage state.
	ActiveSessions = Default.NewGauge("core.active_sessions")

	// Plan cache. Invalidations count entries swept after an epoch bump
	// (DDL, pool changes); StaleHits counts lookups
	// that matched a fingerprint planned under an older epoch — always a
	// miss, the counter exists so tests can assert no stale plan ran.
	PlanCacheHits          = Default.NewCounter("plancache.hits")
	PlanCacheMisses        = Default.NewCounter("plancache.misses")
	PlanCacheEvictions     = Default.NewCounter("plancache.evictions")
	PlanCacheInvalidations = Default.NewCounter("plancache.invalidations")

	// Latency histograms (µs). Each renders as .count/.sum/.p50/.p95/.p99
	// samples in every snapshot sink.
	QueryWallUs       = Default.NewHistogram("resmgr.query_wall_us")
	QueueWaitHistUs   = Default.NewHistogram("resmgr.queue_wait_us")
	MoverCycleUs      = Default.NewHistogram("storage.tuple_mover_cycle_us")
	ServerStatementUs = Default.NewHistogram("server.statement_us")
)
