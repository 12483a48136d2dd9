#!/bin/sh
# bench-json: run the parallel-scaling and profiling-overhead benchmark
# suites and write BENCH_PR6.json — ns/op and rows/s for serial vs 4-way
# parallel aggregation / join / sort, the derived 4-way speedups, and the
# cost of operator wall-clock profiling over the always-on counters — then
# run the continuous-ingest scenario and write BENCH_PR7.json — sustained
# ingest throughput and reader latency percentiles under concurrent
# writers, a continuously cycling tuple mover, and TLP-checked live +
# epoch-pinned readers — then run the Data Collector overhead benchmark and
# write BENCH_PR8.json — the cost of always-on query-phase tracing over a
# collector-disabled engine, plus the engine's log-bucketed query-wall
# latency quantiles. (The serving path is measured by the serving_hot and
# serving_fetch workloads of benchmark/, not here.)
# CI smokes all three at 1 iteration (BENCH_ITERS=1x); for recorded numbers
# use the default on an idle machine. Set BENCH_SKIP_PR6=1, BENCH_SKIP_PR7=1
# or BENCH_SKIP_PR8=1 to regenerate a subset.
#
# The speedups scale with the host's cores: the parallel shapes fan worker
# pipelines out across GOMAXPROCS, so a single-CPU container records mostly
# the cache-locality win of partitioned operators (~1.3x) while multi-core
# hosts show the full scaling. The "cpus" field records what this run had.
set -eu

ITERS="${BENCH_ITERS:-2x}"
OUT="${BENCH_OUT:-BENCH_PR6.json}"
OUT7="${BENCH7_OUT:-BENCH_PR7.json}"
OUT8="${BENCH8_OUT:-BENCH_PR8.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

if [ -z "${BENCH_SKIP_PR6:-}" ]; then

go test -bench '^(BenchmarkParallelScaling|BenchmarkProfilingOverhead)$' \
  -benchtime "$ITERS" -run '^$' . | tee "$RAW"

awk -v iters="$ITERS" '
/^Benchmark(ParallelScaling|ProfilingOverhead)\// {
  # BenchmarkParallelScaling/agg/serial-8  2  1335412204 ns/op  299533 rows/s
  name = $1
  sub(/^Benchmark/, "", name)
  sub(/-[0-9]+$/, "", name)
  ns[name] = $3
  rows[name] = $5
  order[n++] = name
}
/^cpu:/ { cpumodel = $0; sub(/^cpu: /, "", cpumodel) }
END {
  if (n == 0) { print "bench-json: no benchmark output parsed" > "/dev/stderr"; exit 1 }
  "getconf _NPROCESSORS_ONLN" | getline cpus
  printf "{\n"
  printf "  \"benchtime\": \"%s\",\n", iters
  printf "  \"cpus\": %d,\n", cpus
  printf "  \"cpu_model\": \"%s\",\n", cpumodel
  printf "  \"results\": [\n"
  for (i = 0; i < n; i++) {
    name = order[i]
    printf "    {\"name\": \"%s\", \"ns_per_op\": %d, \"rows_per_s\": %d}%s\n",
      name, ns[name], rows[name], (i < n-1 ? "," : "")
  }
  printf "  ],\n"
  printf "  \"speedup_4way\": {\n"
  first = 1
  for (i = 0; i < n; i++) {
    name = order[i]
    if (name !~ /^ParallelScaling\/.*\/serial$/) continue
    w = name; sub(/\/serial$/, "", w); sub(/^ParallelScaling\//, "", w)
    p = "ParallelScaling/" w "/parallel4"
    if (!(p in ns)) continue
    if (!first) printf ",\n"
    printf "    \"%s\": %.2f", w, ns[name] / ns[p]
    first = 0
  }
  printf "\n  },\n"
  if (("ProfilingOverhead/off" in ns) && ("ProfilingOverhead/on" in ns))
    printf "  \"profiling_overhead_pct\": %.2f,\n", \
      (ns["ProfilingOverhead/on"] - ns["ProfilingOverhead/off"]) * 100.0 / ns["ProfilingOverhead/off"]
  printf "  \"note\": \"speedups are wall-clock and bounded by this host%s core count; on a single-CPU container they reflect the cache-locality win of partitioned hash tables and smaller per-worker sorts, not thread-level parallelism. profiling_overhead_pct is full wall-clock profiling over the always-on batch/row counters\"\n", "\\u0027s"
  printf "}\n"
}' "$RAW" > "$OUT"

echo "bench-json: wrote $OUT"
cat "$OUT"

fi # BENCH_SKIP_PR6

if [ -z "${BENCH_SKIP_PR7:-}" ]; then

go test -bench '^BenchmarkContinuousIngest$' -benchtime "$ITERS" -run '^$' . | tee "$RAW"

awk -v iters="$ITERS" '
/^BenchmarkContinuousIngest/ {
  # BenchmarkContinuousIngest-8  1  2034635413 ns/op  22931 ingest-rows/s  153.0 p50-us  45478 p99-us
  for (i = 4; i <= NF; i++) {
    if ($i == "ingest-rows/s") rows = $(i-1)
    if ($i == "p50-us") p50 = $(i-1)
    if ($i == "p99-us") p99 = $(i-1)
  }
  found = 1
}
/^cpu:/ { cpumodel = $0; sub(/^cpu: /, "", cpumodel) }
END {
  if (!found) { print "bench-json: no continuous-ingest output parsed" > "/dev/stderr"; exit 1 }
  "getconf _NPROCESSORS_ONLN" | getline cpus
  printf "{\n"
  printf "  \"benchtime\": \"%s\",\n", iters
  printf "  \"cpus\": %d,\n", cpus
  printf "  \"cpu_model\": \"%s\",\n", cpumodel
  printf "  \"ingest_rows_per_sec\": %.0f,\n", rows
  printf "  \"p50_us\": %.0f,\n", p50
  printf "  \"p99_us\": %.0f,\n", p99
  printf "  \"note\": \"continuous-ingest scenario: 2 writers batching INSERTs into the WOS, tuple mover cycling moveout/mergeout continuously, 1 live + 1 epoch-pinned reader issuing TLP-checked queries; p50/p99 are individual reader-query latencies over a 2s run. every reader query is a correctness probe, so the numbers carry oracle overhead by design\"\n"
  printf "}\n"
}' "$RAW" > "$OUT7"

echo "bench-json: wrote $OUT7"
cat "$OUT7"

fi # BENCH_SKIP_PR7

if [ -z "${BENCH_SKIP_PR8:-}" ]; then

go test -bench '^BenchmarkDCOverhead$' -benchtime "$ITERS" -run '^$' . | tee "$RAW"

awk -v iters="$ITERS" '
/^BenchmarkDCOverhead\/off-?/ { off = $3 }
/^BenchmarkDCOverhead\/on-?/ {
  # BenchmarkDCOverhead/on-8  2  1213... ns/op  329... rows/s  512 wall-p50-us  4096 wall-p99-us
  on = $3
  for (i = 4; i <= NF; i++) {
    if ($i == "wall-p50-us") p50 = $(i-1)
    if ($i == "wall-p99-us") p99 = $(i-1)
  }
}
/^cpu:/ { cpumodel = $0; sub(/^cpu: /, "", cpumodel) }
END {
  if (off == 0 || on == 0) { print "bench-json: no dc-overhead output parsed" > "/dev/stderr"; exit 1 }
  "getconf _NPROCESSORS_ONLN" | getline cpus
  printf "{\n"
  printf "  \"benchtime\": \"%s\",\n", iters
  printf "  \"cpus\": %d,\n", cpus
  printf "  \"cpu_model\": \"%s\",\n", cpumodel
  printf "  \"dc_overhead_pct\": %.2f,\n", (on - off) * 100.0 / off
  printf "  \"query_wall_p50_us\": %.0f,\n", p50
  printf "  \"query_wall_p99_us\": %.0f,\n", p99
  printf "  \"note\": \"dc_overhead_pct is the 400k-row aggregation with always-on Data Collector phase tracing vs the collector disabled (DCCapacity < 0). query_wall quantiles come from the engines log-bucketed latency histogram (power-of-two upper bounds), accumulated over the governed statements of this benchmark process\"\n"
  printf "}\n"
}' "$RAW" > "$OUT8"

echo "bench-json: wrote $OUT8"
cat "$OUT8"

fi # BENCH_SKIP_PR8
