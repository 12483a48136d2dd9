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

# gofmt and vet; CI runs this target.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# The paper's Tables 3 and 4 and Figure 3 as metrics and logs (root
# bench_test.go over internal/bench), plus the ablations; CI runs this target.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Short fuzz smoke (10s per target) of every func Fuzz* under internal/, found
# in the source: a new target needs no edit here, and a deleted or renamed one
# cannot leave a line that silently fuzzes nothing (go test -fuzz exits 0 when
# its pattern matches no target). CI runs this target.
fuzz:
	@targets="$$(grep -rEo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' internal | sed 's/:func /:/' | sort -u)"; \
	[ -n "$$targets" ] || { echo "fuzz: no func Fuzz* under internal/"; exit 1; }; \
	for t in $$targets; do \
		pkg="./$$(dirname "$${t%%:*}")"; name="$${t##*:}"; \
		echo "fuzz $$name $$pkg"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s "$$pkg" || exit 1; \
	done

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
# prints), the continuous-ingest burst, the recovery differential oracle,
# whose container check reads every node through the stored-batch reader
# (ForEachStored), with that reader's seeded case against the delete-vector
# store (override with ORACLE_SEED; more steps than the tier-1 run takes),
# the DML differential test of DELETE and UPDATE against a row-at-a-time
# model (ORACLE_SEED too; more tables than tier-1), the predicate oracles
# of the scan and
# of the expression evaluators, the sorted-stream oracle of everything
# that sorts, merges or spills, the fan oracle of intra-node parallelism
# against the serial engine, the decoder oracle of the Huffman and
# dictionary kernels against the decoders they replaced, and the mergeout
# oracle of the tuple mover's merge against a stable sort of its inputs
# (ORACLE_SEED too). The TLP, continuous-ingest, predicate, sorted-stream,
# fan and hash-join oracles also run poisoned (their *Poisoned twins, which
# each -run pattern below picks up): at a block-cache budget of about one
# block, with the recycle probe scribbling over every block a scan gives
# up, so an operator that keeps a batch past its loan without Retain fails
# them; each asserts that it recycled at all (docs/ARCHITECTURE.md, "Batch
# lifetime"). The exchange's teardown tests (every TestExchange*, the
# nested-teardown and failed-sibling guards among them, and the fan's
# shared-build leak test) run 20 times under -race: their races are
# timing-dependent, and a cancel a worker failed to surface has shown up
# under -race only. Mirrored in CI.
TLP_SEED ?= 20120827
ORACLE_SEED ?= 20120827
test-metamorphic:
	$(GO) test -race ./internal/sqltest -run 'TestTLP' -count=1 -tlp.seed $(TLP_SEED)
	$(GO) test -race ./internal/bench -run 'TestContinuousIngest(Short|DataCollector)' -count=1
	$(GO) test -race ./internal/cluster -run 'TestRecoveryOracle' -count=1 -oracle.seed $(ORACLE_SEED) -oracle.steps 60
	$(GO) test -race ./internal/storage -run 'TestStoredReaderMatchesDVStore|TestPlacedRowsReadBack' -count=1
	$(GO) test -race ./internal/core -run 'TestDMLMatchesModel' -count=1 -dml.seed $(ORACLE_SEED) -dml.cases 12
	$(GO) test -race ./internal/exec -run 'TestPredicateOracle|TestHashJoinOraclePoisoned' -count=1 -pred.seed $(ORACLE_SEED) -pred.cases 200
	$(GO) test -race ./internal/exec -run 'TestSortedStreamOracle' -count=1 -sorted.seed $(ORACLE_SEED) -sorted.cases 200
	$(GO) test -race ./internal/exec -run 'TestExchange|TestFanSharedBuildLeaksNothing' -count=20
	$(GO) test -race ./internal/expr -run 'MatchesEvalRow|LikeEvalRow' -count=1 -expr.seed $(ORACLE_SEED)
	$(GO) test -race ./internal/sqltest -run 'TestFanOracle' -count=1 -fan.seed $(ORACLE_SEED)
	$(GO) test -race ./internal/encoding -run 'TestDecodeOracle' -count=1 -decode.seed $(ORACLE_SEED) -decode.cases 20000
	$(GO) test -race ./internal/tuplemover -run 'TestMergeoutOracle|TestMergeoutHoldsABlockPerInput' -count=1 -mergeout.seed $(ORACLE_SEED) -mergeout.cases 300

# Fail if the parser accepts a statement keyword or a system table has a
# column docs/SQL.md never mentions, if a system table's section there
# does not list exactly its columns (names and types, in order) as
# registered, or if README.md or docs/*.md names an internal/ or cmd/
# path that does not exist.
docs-check:
	sh scripts/check_sql_docs.sh
	sh scripts/check_doc_paths.sh
	$(GO) test ./internal/core -run '^TestSystemTablesDocumented$$' -count=1

serve:
	$(GO) run ./cmd/vsql -dir $(DB_DIR) -serve $(SERVE_ADDR) -mem-pool $(MEM_POOL) -max-concurrency $(MAX_CONC)

fmt:
	gofmt -w .
