GO ?= go

# Server defaults for `make serve`; override on the command line, e.g.
#   make serve DB_DIR=/data/db SERVE_ADDR=:6000 MEM_POOL=1GB
DB_DIR     ?= /tmp/vertica-repro
SERVE_ADDR ?= :5433
MEM_POOL   ?= 256MB
MAX_CONC   ?= 4

.PHONY: all build test race lint bench serve fmt fuzz cover loc sqltest-update test-metamorphic docs-check

all: build test docs-check

build:
	$(GO) build ./...

# Tier-1 verification: what CI and the roadmap gate on. The benchmark is a
# module of its own, so its smoke test (every workload and probe at 1/100
# scale, ~6 s) needs its own invocation: a refactor that breaks a probe must
# fail here, not in a later benchmark run.
test:
	$(GO) build ./... && $(GO) test ./... && $(GO) test -C benchmark .

race:
	$(GO) test -race ./...

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Short fuzz smoke, mirroring CI (10s per target).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$'  -fuzztime 10s ./internal/sql
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/encoding
	$(GO) test -run '^$$' -fuzz '^FuzzHistogramEstimate$$' -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzReadReply$$' -fuzztime 10s ./internal/server

# Per-package coverage report.
cover:
	$(GO) test -cover ./...

# Non-test and test Go lines of the root module — the figures every
# CHANGES.md entry reports (ROADMAP aim 2: lines are a cost).
loc:
	@echo "non-test: $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
	@echo "test:     $$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"

# Regenerate the SQL logic-test golden files from actual engine output.
sqltest-update:
	$(GO) test ./internal/sqltest -run TestSLTFiles -update

# Metamorphic + scenario oracles under the race detector: the TLP oracle
# with its parallel-vs-serial and seek-off axes (deterministic seed;
# override with TLP_SEED, reproduce failures with the seed a failure
# prints), the continuous-ingest burst, the recovery differential oracle
# with the stored-row reader's seeded case (override with ORACLE_SEED; more
# steps than the tier-1 run takes), the predicate oracles of the scan and
# of the expression evaluators, the sorted-stream oracle of everything
# that sorts, merges or spills, and the fan oracle of intra-node
# parallelism against the serial engine (ORACLE_SEED too). Mirrored in CI.
TLP_SEED ?= 20120827
ORACLE_SEED ?= 20120827
test-metamorphic:
	$(GO) test -race ./internal/sqltest -run 'TestTLP' -count=1 -tlp.seed $(TLP_SEED)
	$(GO) test -race ./internal/bench -run 'TestContinuousIngest(Short|DataCollector)' -count=1
	$(GO) test -race ./internal/cluster -run 'TestRecoveryOracle' -count=1 -oracle.seed $(ORACLE_SEED) -oracle.steps 60
	$(GO) test -race ./internal/storage -run 'TestStoredReaderMatchesDVStore|TestPlacedRowsReadBack' -count=1
	$(GO) test -race ./internal/exec -run 'TestPredicateOracle' -count=1 -pred.seed $(ORACLE_SEED) -pred.cases 200
	$(GO) test -race ./internal/exec -run 'TestSortedStreamOracle' -count=1 -sorted.seed $(ORACLE_SEED) -sorted.cases 200
	$(GO) test -race ./internal/expr -run 'MatchesEvalRow|LikeEvalRow' -count=1 -expr.seed $(ORACLE_SEED)
	$(GO) test -race ./internal/sqltest -run 'TestFanOracle' -count=1 -fan.seed $(ORACLE_SEED)

# Fail if the parser accepts a statement keyword docs/SQL.md never mentions,
# or if a system table's section there does not list exactly its columns
# (names and types, in order) as registered.
docs-check:
	sh scripts/check_sql_docs.sh
	$(GO) test ./internal/core -run '^TestSystemTablesDocumented$$' -count=1

serve:
	$(GO) run ./cmd/vsql -dir $(DB_DIR) -serve $(SERVE_ADDR) -mem-pool $(MEM_POOL) -max-concurrency $(MAX_CONC)

fmt:
	gofmt -w .
