// Command vsql is the interactive SQL shell (the paper's "interactive vsql
// command prompt", §6): it reads statements separated by semicolons and
// prints results as aligned tables.
//
//	vsql -dir /path/to/db [-nodes 3] [-k 1]
//
// With -serve it instead runs the TCP SQL server on the given address,
// admission-controlled by the resource governor:
//
//	vsql -dir /path/to/db -serve :5433 -mem-pool 256MB -max-concurrency 4
//
// -debug-addr starts an HTTP listener serving the engine metrics registry
// (/metrics, plain text: the rows of v_monitor.metrics) and the standard Go
// profiling endpoints (/debug/pprof/*). -slow-query sets the threshold past which a
// statement's full per-operator profile is auto-retained in
// v_monitor.execution_engine_profiles. -dc-capacity sizes the Data
// Collector's per-stream ring buffers (v_monitor.query_phases,
// query_events, dc_* tables; v_monitor.data_collector shows what each
// retains and has dropped); 0 uses the default, negative disables
// collection.
//
// Meta commands: \q quits, \d lists tables and projections, \mover runs a
// tuple mover cycle, \epoch shows the epoch state, \stats shows governor
// workload stats.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sql"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	nodes := flag.Int("nodes", 1, "cluster size")
	k := flag.Int("k", 0, "K-safety level: 0 or 1 (1 keeps a buddy copy of every segment one node over)")
	parallel := flag.Int("parallel", 0, "intra-node parallelism")
	serveAddr := flag.String("serve", "", "run the TCP SQL server on this address instead of the shell (e.g. :5433)")
	memPool := flag.String("mem-pool", "", "global query-memory pool, e.g. 256MB or 1GB (default 1GB)")
	maxConc := flag.Int("max-concurrency", 0, "max simultaneously running queries (default 8)")
	queueTimeout := flag.Duration("queue-timeout", 0, "admission queue timeout (default 30s)")
	tempDir := flag.String("tmp", "", "spill directory (default system temp)")
	defaultPool := flag.String("pool", "", "resource pool new sessions admit against (default: general; see CREATE RESOURCE POOL)")
	debugAddr := flag.String("debug-addr", "", "serve engine metrics and pprof on this HTTP address (e.g. localhost:6060)")
	slowQuery := flag.Duration("slow-query", 0, "auto-retain full operator profiles of statements slower than this (default 1s; negative disables)")
	dcCapacity := flag.Int("dc-capacity", 0, "Data Collector ring capacity per event stream (default 1024; negative disables collection)")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "vsql: -dir is required")
		os.Exit(1)
	}
	poolBytes, err := parseBytes(*memPool)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsql: -mem-pool:", err)
		os.Exit(1)
	}
	db, err := core.Open(core.Options{
		Dir: *dir, Nodes: *nodes, K: *k, Parallelism: *parallel,
		MemPoolBytes:   poolBytes,
		MaxConcurrency: *maxConc,
		QueueTimeout:   *queueTimeout,
		TempDir:        *tempDir,
		DefaultPool:    *defaultPool,

		SlowQueryThreshold: *slowQuery,
		DCCapacity:         *dcCapacity,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vsql:", err)
		os.Exit(1)
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, metrics.Handler(metrics.Default)); err != nil {
				fmt.Fprintln(os.Stderr, "vsql: debug listener:", err)
			}
		}()
		fmt.Printf("vsql: debug HTTP on %s (/metrics, /debug/pprof/)\n", *debugAddr)
	}
	if *serveAddr != "" {
		if err := serve(db, *serveAddr); err != nil {
			fmt.Fprintln(os.Stderr, "vsql:", err)
			os.Exit(1)
		}
		return
	}
	session := db.NewSession()
	defer session.Close()
	fmt.Println("vsql — type \\q to quit, \\d to describe, statements end with ;")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "=> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !metaCommand(db, trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if !strings.HasSuffix(trimmed, ";") {
			prompt = "-> "
			continue
		}
		prompt = "=> "
		stmt := buf.String()
		buf.Reset()
		res, err := session.Execute(stmt)
		if err != nil {
			fmt.Println("ERROR:", err)
			continue
		}
		printResult(res)
	}
}

// serve runs the TCP server until SIGINT/SIGTERM, then drains gracefully.
func serve(db *core.Database, addr string) error {
	srv := server.New(db, server.Config{Addr: addr})
	if err := srv.Listen(); err != nil {
		return err
	}
	gcfg := db.Governor().Config()
	fmt.Printf("vsql: serving on %s (pool %s, concurrency %d, queue timeout %s)\n",
		srv.Addr(), formatBytes(gcfg.PoolBytes), gcfg.MaxConcurrency, gcfg.QueueTimeout)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if errors.Is(err, server.ErrServerClosed) {
			return nil
		}
		return err
	case s := <-sig:
		fmt.Printf("vsql: %s, draining (%d sessions served)\n", s, srv.Sessions.Load())
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// parseBytes reads "64MB", "1GB", "512KB" or a plain byte count.
// parseBytes accepts the same size grammar as SQL MEMORYSIZE literals
// ("256MB", "64K", "1G", plain bytes); empty means "use the default".
func parseBytes(s string) (int64, error) {
	if strings.TrimSpace(s) == "" {
		return 0, nil
	}
	return sql.ParseByteSize(s)
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func metaCommand(db *core.Database, cmd string) bool {
	switch {
	case cmd == "\\q":
		return false
	case cmd == "\\d":
		for _, t := range db.Catalog().Tables() {
			fmt.Printf("table %s %s\n", t.Name, t.Schema)
			for _, p := range db.Catalog().ProjectionsFor(t.Name) {
				kind := "projection"
				if p.IsSuper {
					kind = "super projection"
				}
				if p.IsBuddy {
					kind = "buddy projection"
				}
				seg := p.Seg.ExprText
				if p.Seg.Replicated {
					seg = "REPLICATED"
				}
				fmt.Printf("  %s %s order by %v seg %s\n", kind, p.Name, p.SortOrder, seg)
			}
		}
	case cmd == "\\mover":
		moved, merged, err := db.RunTupleMover()
		if err != nil {
			fmt.Println("ERROR:", err)
		} else {
			fmt.Printf("tuple mover: %d rows moved out, %d mergeouts\n", moved, merged)
		}
	case cmd == "\\epoch":
		e := db.Txns().Epochs
		fmt.Printf("current epoch %d, read epoch %d, AHM %d\n", e.Current(), e.ReadEpoch(), e.AHM())
	case cmd == "\\stats":
		fmt.Println(db.Governor().Stats())
	default:
		fmt.Println("unknown meta command; try \\q, \\d, \\mover, \\epoch, \\stats")
	}
	return true
}

func printResult(res *core.Result) {
	if plan := res.Explain.String(); plan != "" && res.Schema == nil {
		fmt.Print(plan)
		return
	}
	if res.Schema == nil {
		fmt.Println(res.Message)
		return
	}
	widths := make([]int, res.Schema.Len())
	names := res.Schema.Names()
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			cells[r][c] = v.String()
			if len(cells[r][c]) > widths[c] {
				widths[c] = len(cells[r][c])
			}
		}
	}
	printRow := func(vals []string) {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%-*s", widths[i], v)
		}
		fmt.Println(" " + strings.Join(parts, " | "))
	}
	printRow(names)
	sep := make([]string, len(names))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range cells {
		printRow(row)
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
