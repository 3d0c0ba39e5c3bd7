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
# ingest over httptest, the /predict-under-hot-swap gate
# TestConcurrentPredictHotSwap, plus the catalog, sweep and index
# concurrency gates, and TestQueryUsesCachedEngine, which pins that
# queries build no engine) under the race detector.
stress:
	$(GO) test -race -count $(STRESS_COUNT) -timeout $(STRESS_TIMEOUT) \
		-run 'Concurrent|CachedEngine' \
		./internal/server/ ./internal/statusq/ ./internal/index/

# chaos runs the fault-injection and crash-recovery suites under the race
# detector: WAL torn-tail/replay recovery, kill-mid-ingest restart proofs
# (single-catalog and per-shard against the 4-shard router), injected
# disk faults, a shard failed by them with cross-shard error isolation,
# load shedding, and panic recovery (see DESIGN.md "Durability & fault
# model").
chaos:
	$(GO) test -race -timeout $(STRESS_TIMEOUT) \
		-run 'Chaos|Fault|Torn|Recovery|Durable|Injected|Fire|Arm|Enable|Reset' \
		./internal/wal/ ./internal/statusq/ ./internal/server/ ./internal/faultinject/

# chaos-repl runs the replication-specific chaos suite under the race
# detector: quorum append/ack ordering, follower faults with catch-up
# from the primary's log however far behind, quorum-loss refusal (no ack
# ever escapes, and no refused record replays: a below-quorum append is
# undone on every replica), primary failover replayed through the dedup
# index, reopen repair of torn, diverged, and lost replica tails,
# kill-primary-mid-WAL crash recovery at the sharded tier, the
# health-ladder/breaker path at the HTTP tier (all replicas down serves
# stale while /readyz reports failed), and the replicated-vs-serial
# differential (see docs/OPERATIONS.md "Replication").
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
# under the race detector: random RCC streams applied via ApplyRCC must
# stay bitwise-identical (math.Float64bits) to engines rebuilt from
# scratch — in the serving engine's RCCs, event orders and the sweeps it
# hands out, and in Status Queries over an index of its RCCs — at the
# engine and catalog+WAL-replay layers, including the 4-shard router
# (TestDeltaShardedEquivalence), whose answers must match a single
# catalog fed the same stream.
differential:
	$(GO) test -race -count 1 -run 'TestDelta' ./internal/statusq/

# fuzz runs each native fuzz target for FUZZTIME: the WAL record decoder
# must never panic, and whatever it accepts must survive a re-encode
# (seed corpora live in testdata/fuzz); old-format replica bytes either
# make the upgrade refuse, leaving the root byte-identical, or upgrade to
# a log that replays what the old reader decodes; topology.json bytes are
# refused or round-trip; any byte string opened as a WAL log is cut to
# exactly its valid prefix, replays the same entries a second time, and
# reads back unchanged through Log.RecordsAfter, and so is any log built
# from valid frames with fuzzed sequence steps, payloads, a cut and a
# flipped byte (FuzzLogFrames); the HTTP read and ingest surface (GET /query,
# /predict, /fleet, POST /query/batch, /predict, /rccs) must never answer a 5xx, and a 200 batch answer has one
# row per query; every SWLIN code Parse accepts round-trips through
# String, and Subsystem agrees with Digit(0) and Prefix(1); every GBT model
# artifact UnmarshalJSON accepts compiles without panicking and predicts
# bitwise like its pointer trees; every exact tree grown over presorted
# columns equals, node for node and bit for bit, the tree of a reference
# builder that sorts each node's rows (FuzzTreeBuild: tie-heavy designs,
# fuzzed gradients, row and feature subsets in random order, varied
# configs); every date ParseDay accepts round-trips through Day.String.
# go test fuzzes one target per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime $(FUZZTIME) ./internal/statusq/
	$(GO) test -run '^$$' -fuzz '^FuzzUpgrade$$' -fuzztime $(FUZZTIME) ./internal/statusq/
	$(GO) test -run '^$$' -fuzz '^FuzzTopology$$' -fuzztime $(FUZZTIME) ./internal/statusq/
	$(GO) test -run '^$$' -fuzz '^FuzzLogReplay$$' -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzLogFrames$$' -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzReadRequests$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzSWLINCode$$' -fuzztime $(FUZZTIME) ./internal/swlin/
	$(GO) test -run '^$$' -fuzz '^FuzzGBTModel$$' -fuzztime $(FUZZTIME) ./internal/ml/gbt/
	$(GO) test -run '^$$' -fuzz '^FuzzTreeBuild$$' -fuzztime $(FUZZTIME) ./internal/ml/tree/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDay$$' -fuzztime $(FUZZTIME) ./internal/domain/

# check is the CI gate: compile, vet, check gofmt, race-test everything, repeat the
# concurrency stress suite, re-run the chaos (fault-injection) suite and
# the delta-vs-rebuild differential suite, fuzz the WAL decoders, the
# upgrade, topology.json and torn-tail replay, the HTTP read/ingest surface, SWLIN parsing, GBT
# model artifacts, exact tree growth and date parsing, run the in-process serving benchmarks,
# the tree-kernel benchmark and the tree-growth benchmark once each so they cannot rot,
# enforce the lint invariants (domdlint must exit 0 on the tree) and the
# docs cross-checks, run the riskbands example end to end (it serves
# /predict through server.New over a one-shard catalog, the wiring
# `domd serve` uses), then vet and test domdbench, the nested benchmark
# module (its tests hold BENCHMARK.json to the report tables).
check:
	$(GO) build ./... && $(GO) vet ./... && $(MAKE) fmt && $(GO) test -race ./... && $(MAKE) stress && $(MAKE) chaos && $(MAKE) chaos-repl && $(MAKE) differential && $(MAKE) fuzz && $(GO) test -run '^$$' -bench 'Fleet|QueryBatch' -benchtime 1x ./internal/server/ && $(GO) test -run '^$$' -bench 'GBTPredict' -benchtime 1x ./internal/ml/gbt/ && $(GO) test -run '^$$' -bench 'TreeBuild' -benchtime 1x ./internal/ml/tree/ && $(MAKE) lint && $(MAKE) docs && $(GO) run ./examples/riskbands > /dev/null && (cd domdbench && $(GO) vet ./... && $(GO) test ./...)

# bench runs the Go micro-benchmarks (including the statusq
# ApplyRCC-vs-rebuild pair backing DESIGN.md §4.3, the serving-engine
# build NewEngine at 260, 1000 and 4000 RCCs and NewCatalog, every engine
# of the domdbench fleet built up front, DurableIngest at fsync=never over
# 10k and 100k histories, the WAL's replica catch-up of a 1000-record lag
# behind a 100k-record history, the in-process
# GET /fleet and POST /query/batch pair, the compiled GBT tree kernel
# at depths 4 and 8, and one exact tree grown over presorted columns at
# the startup training shape), then domdbench, the
# serving benchmark declared in BENCHMARK.json, on both of its workloads:
# each run builds cmd/domd, serves it, and drives it over HTTP (see
# domdbench/README.md). The last line of each run is its JSON result.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
	$(GO) test -run '^$$' -bench 'ApplyRCC|RebuildAfterIngest|NewEngine|NewCatalog|DurableIngest' -benchmem ./internal/statusq/
	$(GO) test -run '^$$' -bench . -benchmem ./internal/wal/
	$(GO) test -run '^$$' -bench 'Fleet|QueryBatch' -benchmem ./internal/server/
	$(GO) test -run '^$$' -bench 'GBTPredict' -benchmem ./internal/ml/gbt/
	$(GO) test -run '^$$' -bench 'TreeBuild' -benchmem ./internal/ml/tree/
	bash domdbench/run.sh --workload fleet-scan --seed 1 --seconds 21 --trace 0
	bash domdbench/run.sh --workload ingest-mix --seed 1 --seconds 21 --trace 0
