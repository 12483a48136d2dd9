// Continuous-ingest scenario driver: the paper's core operating mode —
// "continuous load and query" (§1, §4) — as a single closed-loop harness.
// Concurrent writers stream INSERTs into the WOS, the tuple mover runs
// moveout/mergeout continuously, and analytical readers issue TLP-checked
// queries the whole time: some at the live read epoch, some pinned at a
// historical epoch (whose results must stay frozen across moveouts — the
// paper's claim that the tuple mover never changes what any epoch sees).
// Every reader query is a correctness probe, so the driver doubles as a
// race harness (run under -race) and a throughput/latency benchmark.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sqltest"
	"repro/internal/types"
)

// IngestConfig configures one RunContinuousIngest scenario.
type IngestConfig struct {
	// Dir is the database directory (use a fresh temp dir).
	Dir string
	// Duration is the scenario's wall-clock budget.
	Duration time.Duration
	// Writers is the number of concurrent INSERT streams (default 2).
	Writers int
	// LiveReaders issue TLP checks at the live read epoch (default 1).
	LiveReaders int
	// PinnedReaders issue TLP checks pinned at a pre-run historical epoch
	// and assert its COUNT(*) never changes (default 1).
	PinnedReaders int
	// BatchRows is the multi-row VALUES size per INSERT (default 20).
	BatchRows int
	// Parallelism is the engine's intra-node parallelism (default 2).
	Parallelism int
	// WOSMaxBytes bounds the WOS so moveouts actually happen (default 1 MiB).
	WOSMaxBytes int64
	// Seed drives all generated data and predicates (default 1).
	Seed int64
	// DCCapacity sizes the engine's Data Collector rings (0 = engine
	// default, negative disables collection) — see core.Options.DCCapacity.
	DCCapacity int
	// Inspect, when non-nil, runs against the still-open database after all
	// scenario goroutines have drained, so tests can assert on engine state
	// (e.g. Data Collector ring contents) accumulated during the run.
	Inspect func(db *core.Database) error
}

// IngestReport is the scenario outcome.
type IngestReport struct {
	Elapsed          time.Duration
	RowsIngested     int64
	IngestRowsPerSec float64
	MoverCycles      int64
	RowsMovedOut     int64
	Merges           int64
	ReaderQueries    int64 // individual SELECTs issued by readers
	TLPChecks        int64 // completed 4-query TLP identities
	P50, P99         time.Duration
}

func (c *IngestConfig) defaults() {
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Writers <= 0 {
		c.Writers = 2
	}
	if c.LiveReaders < 0 {
		c.LiveReaders = 0
	}
	if c.LiveReaders == 0 && c.PinnedReaders == 0 {
		c.LiveReaders, c.PinnedReaders = 1, 1
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 20
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 2
	}
	if c.WOSMaxBytes <= 0 {
		c.WOSMaxBytes = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// eventsProfile is the static generator profile for the ingest table; the
// samples span the writers' value domains so generated predicates select
// interestingly.
func eventsProfile() []sqltest.TableProfile {
	return []sqltest.TableProfile{{
		Name: "events",
		Cols: []sqltest.ColProfile{
			{Name: "id", Typ: types.Int64, Samples: []string{"3", "40", "500", "100007"}},
			{Name: "grp", Typ: types.Int64, Samples: []string{"0", "2", "5", "7"}},
			{Name: "val", Typ: types.Float64, Samples: []string{"-9.5", "0.5", "7.5", "18.5"}},
			{Name: "note", Typ: types.Varchar, Samples: []string{"'alpha'", "'beta'", "'gamma'", "'o''brien'"}},
		},
	}}
}

var noteDomain = []string{"'alpha'", "'beta'", "'gamma'", "'o''brien'", "NULL"}

// latencies is a concurrency-safe duration recorder.
type latencies struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *latencies) percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// seedRows are the rows in the ROS before the burst starts: a block of one
// numeric column of them is about 1.6 KiB, so the 4 KiB cache of a
// poisoned run admits each block but not the three pinSQL reads. Writers'
// ids start past them.
const seedRows = 200

// pinSQL is the pinned readers' drift check: it reads every numeric
// column, whose blocks its result does not keep.
const pinSQL = "SELECT COUNT(*), SUM(id), SUM(grp), SUM(val) FROM events"

// RunContinuousIngest runs the scenario and returns its report. Any
// correctness violation (TLP identity broken, pinned epoch drifting,
// parallel/serial divergence surfaced as a query error) aborts the run and
// is returned as an error.
func RunContinuousIngest(cfg IngestConfig) (*IngestReport, error) {
	cfg.defaults()
	db, err := core.Open(core.Options{
		Dir:          cfg.Dir,
		Parallelism:  cfg.Parallelism,
		WOSMaxBytes:  cfg.WOSMaxBytes,
		MemPoolBytes: 256 << 20,
		// Writers, readers and the mover all run at once; don't let the
		// admission queue serialize the scenario.
		MaxConcurrency: cfg.Writers + cfg.LiveReaders + cfg.PinnedReaders + 4,
		DCCapacity:     cfg.DCCapacity,
	})
	if err != nil {
		return nil, err
	}
	for _, stmt := range []string{
		"CREATE TABLE events (id INT, grp INT, val FLOAT, note VARCHAR)",
		"CREATE PROJECTION events_super ON events (id, grp, val, note) ORDER BY grp",
	} {
		if _, err := db.Execute(stmt); err != nil {
			return nil, err
		}
	}
	// Pinned readers need their epoch's history to survive the whole run.
	db.Txns().Epochs.HoldAHM(true)

	// Seed rows and move them out, so that the pinned epoch has a container
	// to see, then capture the pin: epoch + its frozen aggregate. The
	// pinned readers' first check runs before the burst, over the seed
	// container alone: at a block cache of a few KiB, it decodes into the
	// vectors the capture's blocks gave back, whatever the mover merges
	// later.
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	if _, err := db.Execute(insertBatch(seedRng, 0, seedRows)); err != nil {
		return nil, err
	}
	if moved, _, err := db.RunTupleMover(); err != nil || moved != seedRows {
		return nil, fmt.Errorf("moving the %d seed rows out moved %d: %v", seedRows, moved, err)
	}
	pinEpoch := db.Txns().Epochs.ReadEpoch()
	pinRes, err := db.QueryAt(pinSQL, pinEpoch)
	if err != nil {
		return nil, err
	}
	pinCount := strings.Join(sqltest.RenderRows(pinRes), "\n")
	if res, err := db.QueryAt(pinSQL, pinEpoch); err != nil {
		return nil, err
	} else if got := strings.Join(sqltest.RenderRows(res), "\n"); got != pinCount {
		return nil, fmt.Errorf("%s at epoch %d read %s, then %s", pinSQL, pinEpoch, pinCount, got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	var (
		wg        sync.WaitGroup
		errOnce   sync.Once
		runErr    error
		rows      atomic.Int64
		moverRuns atomic.Int64
		movedOut  atomic.Int64
		merges    atomic.Int64
		queries   atomic.Int64
		tlpChecks atomic.Int64
		lat       latencies
		idSeq     atomic.Int64
	)
	fail := func(err error) {
		errOnce.Do(func() {
			runErr = err
			cancel()
		})
	}

	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w) + 1))
			for ctx.Err() == nil {
				base := idSeq.Add(int64(cfg.BatchRows)) - int64(cfg.BatchRows)
				if _, err := db.ExecuteContext(ctx, insertBatch(rng, base+seedRows, cfg.BatchRows)); err != nil {
					if ctx.Err() == nil {
						fail(fmt.Errorf("writer %d: %w", w, err))
					}
					return
				}
				rows.Add(int64(cfg.BatchRows))
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			moved, merged, err := db.RunTupleMover()
			if err != nil {
				if ctx.Err() == nil {
					fail(fmt.Errorf("tuple mover: %w", err))
				}
				return
			}
			moverRuns.Add(1)
			movedOut.Add(int64(moved))
			merges.Add(int64(merged))
		}
	}()

	reader := func(r int, pinned bool) {
		defer wg.Done()
		g := sqltest.NewQGen(cfg.Seed+int64(100+r), eventsProfile())
		for ctx.Err() == nil {
			_, pred := g.NextPredicate()
			epoch := db.Txns().Epochs.ReadEpoch()
			if pinned {
				epoch = pinEpoch
			}
			if err := tlpCheckAt(ctx, db, epoch, pred, &lat, &queries); err != nil {
				if ctx.Err() == nil {
					fail(fmt.Errorf("reader %d (epoch %d): %w", r, epoch, err))
				}
				return
			}
			tlpChecks.Add(1)
			if pinned {
				start := time.Now()
				res, err := db.QueryAtContext(ctx, pinSQL, pinEpoch)
				if ctx.Err() != nil {
					return
				}
				if err != nil {
					fail(fmt.Errorf("pinned reader %d: %w", r, err))
					return
				}
				lat.add(time.Since(start))
				queries.Add(1)
				if got := strings.Join(sqltest.RenderRows(res), "\n"); got != pinCount {
					fail(fmt.Errorf("pinned reader %d: %s at epoch %d drifted from %s to %s across moveouts",
						r, pinSQL, pinEpoch, pinCount, got))
					return
				}
			}
		}
	}
	for r := 0; r < cfg.LiveReaders; r++ {
		wg.Add(1)
		go reader(r, false)
	}
	for r := 0; r < cfg.PinnedReaders; r++ {
		wg.Add(1)
		go reader(cfg.LiveReaders+r, true)
	}

	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return nil, runErr
	}
	if cfg.Inspect != nil {
		if err := cfg.Inspect(db); err != nil {
			return nil, err
		}
	}
	rep := &IngestReport{
		Elapsed:       elapsed,
		RowsIngested:  rows.Load(),
		MoverCycles:   moverRuns.Load(),
		RowsMovedOut:  movedOut.Load(),
		Merges:        merges.Load(),
		ReaderQueries: queries.Load(),
		TLPChecks:     tlpChecks.Load(),
		P50:           lat.percentile(0.50),
		P99:           lat.percentile(0.99),
	}
	rep.IngestRowsPerSec = float64(rep.RowsIngested) / elapsed.Seconds()
	return rep, nil
}

// tlpCheckAt runs one TLP identity (unpartitioned vs p / NOT p / p IS NULL)
// with all four queries pinned at the same epoch, so the identity holds even
// while writers and the tuple mover churn the storage underneath.
func tlpCheckAt(ctx context.Context, db *core.Database, epoch types.Epoch, pred string, lat *latencies, queries *atomic.Int64) error {
	base := "SELECT id, grp, val, note FROM events"
	sqls := []string{
		base,
		base + " WHERE " + pred,
		base + " WHERE NOT (" + pred + ")",
		base + " WHERE (" + pred + ") IS NULL",
	}
	parts := make([][]string, 0, len(sqls))
	for _, q := range sqls {
		start := time.Now()
		res, err := db.QueryAtContext(ctx, q, epoch)
		if ctx.Err() != nil {
			return nil // shutdown race, not a finding
		}
		if err != nil {
			return fmt.Errorf("%w\n  %s", err, q)
		}
		lat.add(time.Since(start))
		queries.Add(1)
		parts = append(parts, sqltest.RenderRows(res))
	}
	if err := sqltest.CheckTLP(parts[0], parts[1], parts[2], parts[3]); err != nil {
		return fmt.Errorf("TLP violation: %v\n  %s\n  WHERE %s", err, base, pred)
	}
	return nil
}

// insertBatch renders one multi-row INSERT with ids from base, ~12% NULLs
// per nullable column, and exactly representable float halves.
func insertBatch(rng *rand.Rand, base int64, n int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO events VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		grp, val, note := "NULL", "NULL", noteDomain[rng.Intn(len(noteDomain))]
		if rng.Intn(100) >= 12 {
			grp = fmt.Sprintf("%d", rng.Intn(8))
		}
		if rng.Intn(100) >= 12 {
			val = fmt.Sprintf("%d.5", rng.Intn(40)-20)
		}
		fmt.Fprintf(&b, "(%d, %s, %s, %s)", base+int64(i), grp, val, note)
	}
	return b.String()
}
