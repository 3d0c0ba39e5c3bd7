GO ?= go

# stress knobs: repeat the concurrent-serving stress suite STRESS_COUNT
# times (raise to shake out rare interleavings) within STRESS_TIMEOUT.
STRESS_COUNT ?= 3
STRESS_TIMEOUT ?= 10m
# fuzz budget per target (the nightly workflow raises it).
FUZZTIME ?= 10s

.PHONY: build vet fmt test race stress chaos chaos-repl lint docs differential fuzz check bench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would rewrite any tracked .go file, listing them
# (the benchmark's untracked build directory .bench_build/ is skipped).
fmt:
	@out=$$(git ls-files -- '*.go' ':!:.bench_build/**' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# race runs the full suite under the race detector — the gate for the
# parallel tensor-build path.
race:
	$(GO) test -race ./...

# stress repeats the concurrent-serving suite (parallel /query + /fleet +
# AddRCC over httptest, the /predict-under-hot-swap gate
# TestConcurrentPredictHotSwap, plus the catalog and index concurrency
# gates) under the race detector.
stress:
	$(GO) test -race -count $(STRESS_COUNT) -timeout $(STRESS_TIMEOUT) \
		-run 'Concurrent|SingleFlight|CachedEngine' \
		./internal/server/ ./internal/statusq/ ./internal/index/

# chaos runs the fault-injection and crash-recovery suites under the race
# detector: WAL torn-tail/replay recovery, kill-mid-ingest restart proofs
# (single-catalog and per-shard against the 4-shard router), injected
# disk and engine-build faults with cross-shard error isolation, load
# shedding, and panic recovery (see DESIGN.md "Durability & fault
# model").
chaos:
	$(GO) test -race -timeout $(STRESS_TIMEOUT) \
		-run 'Chaos|Fault|Torn|Recovery|Durable|Injected|Fire|Arm|Enable|Reset' \
		./internal/wal/ ./internal/statusq/ ./internal/server/ ./internal/faultinject/

# chaos-repl runs the replication-specific chaos suite under the race
# detector: quorum append/ack ordering, follower faults with bounded
# catch-up, quorum-loss refusal (no ack ever escapes), primary failover
# replayed through the dedup index, reopen repair of torn, diverged, and
# lost replica tails, kill-primary-mid-WAL crash recovery at the sharded
# tier, the health-ladder/breaker path at the HTTP tier (all replicas
# down serves stale while /readyz reports failed), and the
# replicated-vs-serial differential (see docs/OPERATIONS.md
# "Replication").
chaos-repl:
	$(GO) test -race -timeout $(STRESS_TIMEOUT) \
		-run 'ChaosRepl|Replicated|Rewind|Quorum' \
		./internal/wal/ ./internal/statusq/ ./internal/server/

# lint runs domdlint, the project's invariant analyzers (internal/lint):
# the per-function checks (lockguard, detrange, floateq, walltime,
# droppederr, ctxflow, docstring) plus the interprocedural call-graph
# analyzers (lockorder, goleak, ackorder, metriccatalog). Non-zero exit
# on any finding; suppress a deliberate violation with
# `//lint:ignore <analyzer> <reason>` (see DESIGN.md "Enforced
# invariants").
lint:
	$(GO) run ./cmd/domdlint ./...

# docs keeps the operator documentation honest: the docstring analyzer
# enforces godoc-convention comments on the operator-facing packages, the
# metriccatalog analyzer enforces bidirectional agreement between obs
# metric registrations and docs/OPERATIONS.md (file:line findings in both
# directions), and scripts/check_docs.sh cross-checks the served
# endpoints, serve flags, and failpoints — so documentation rot fails
# the build.
docs:
	$(GO) run ./cmd/domdlint -analyzers docstring,metriccatalog ./...
	sh scripts/check_docs.sh

# differential re-runs the incremental-maintenance equivalence suite
# under the race detector: random RCC streams applied via the O(delta)
# path must stay bitwise-identical (math.Float64bits) to engines rebuilt
# from scratch, at the engine, its event orders, catalog+WAL-replay, and
# sweep layers — including the 4-shard router
# (TestDeltaShardedEquivalence), whose answers must match a single
# catalog fed the same stream.
differential:
	$(GO) test -race -count 1 -run 'TestDelta' ./internal/statusq/

# fuzz runs each native fuzz target for FUZZTIME: the WAL record and
# snapshot decoders must never panic, and whatever they accept must
# survive a re-encode (seed corpora live in testdata/fuzz); the HTTP read
# and ingest surface (GET /query, /predict, /fleet, POST /query/batch,
# /predict, /rccs) must never answer a 5xx, and a 200 batch answer has one
# row per query. go test fuzzes one target per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/statusq/
	$(GO) test -run '^$$' -fuzz '^FuzzWALSnapshot$$' -fuzztime $(FUZZTIME) ./internal/statusq/
	$(GO) test -run '^$$' -fuzz '^FuzzReadRequests$$' -fuzztime $(FUZZTIME) ./internal/server/

# check is the CI gate: compile, vet, check gofmt, race-test everything, repeat the
# concurrency stress suite, re-run the chaos (fault-injection) suite and
# the delta-vs-rebuild differential suite, fuzz the WAL decoders and the
# HTTP read/ingest surface,
# enforce the lint invariants (domdlint must exit 0 on the tree) and the
# docs cross-checks, run the riskbands example end to end (it serves
# /predict through server.New over a one-shard catalog, the wiring
# `domd serve` uses), then vet and test domdbench, the nested benchmark
# module (its tests hold BENCHMARK.json to the report tables).
check:
	$(GO) build ./... && $(GO) vet ./... && $(MAKE) fmt && $(GO) test -race ./... && $(MAKE) stress && $(MAKE) chaos && $(MAKE) chaos-repl && $(MAKE) differential && $(MAKE) fuzz && $(MAKE) lint && $(MAKE) docs && $(GO) run ./examples/riskbands > /dev/null && (cd domdbench && $(GO) vet ./... && $(GO) test ./...)

# bench runs the Go micro-benchmarks (including the statusq
# ApplyRCC-vs-rebuild pair backing DESIGN.md §4.3), then domdbench, the
# serving benchmark declared in BENCHMARK.json, on both of its workloads:
# each run builds cmd/domd, serves it, and drives it over HTTP (see
# domdbench/README.md). The last line of each run is its JSON result.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
	$(GO) test -run '^$$' -bench 'ApplyRCC|RebuildAfterIngest' -benchmem ./internal/statusq/
	bash domdbench/run.sh --workload fleet-scan --seed 1 --seconds 21 --trace 0
	bash domdbench/run.sh --workload ingest-mix --seed 1 --seconds 21 --trace 0
