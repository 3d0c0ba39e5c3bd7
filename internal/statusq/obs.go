package statusq

import "domd/internal/obs"

// Serving-path metrics, registered process-wide in obs.Default and
// exposed on GET /metrics (catalog: docs/OPERATIONS.md). Counters here
// aggregate across every Catalog in the process.
var (
	mEngineBuilds = obs.NewCounter("domd_engine_builds_total",
		"Status Query engines built, one per avail when a catalog opens.")
	mStaleServes = obs.NewCounter("domd_engine_stale_serves_total",
		"Answers served marked stale because their shard is in the failed health state.")
	mDeltaApplies = obs.NewCounter("domd_engine_delta_applies_total",
		"Ingested RCCs folded into their avail's live engine in place.")

	mIngestAcks = obs.NewCounter("domd_ingest_acks_total",
		"RCC ingests durably logged, applied, and acknowledged.")
	mIngestDuplicates = obs.NewCounter("domd_ingest_duplicates_total",
		"Ingest calls answered as idempotent replays of an earlier acknowledgment.")
	mIngestFailures = obs.NewCounter("domd_ingest_failures_total",
		"Ingest calls that failed without acknowledgment (storage fault, closed WAL, invalid record).")
	mIngestRestored = obs.NewCounterVec("domd_ingest_restored_total",
		"WAL-replayed delta RCCs at startup, by outcome.", "outcome")
	mDedupEvictions = obs.NewCounter("domd_ingest_dedup_evictions_total",
		"Idempotency keys evicted from the bounded dedup index (oldest acknowledgment first).")

	// Shard-labeled serving metrics. Label cardinality is bounded by the
	// -shards flag (one series per shard), so the registry stays small.
	mShardIngests = obs.NewCounterVec("domd_shard_ingests_total",
		"RCC ingests routed to each shard of a sharded catalog.", "shard")
	mShardEngineLookups = obs.NewCounterVec("domd_shard_engine_lookups_total",
		"Engine lookups (point queries, batch rows, fleet sweeps) routed to each shard.", "shard")
	mShardAvails = obs.NewGaugeVec("domd_shard_avails",
		"Avails owned by each shard of a sharded catalog.", "shard")

	// Shard health and resilience metrics (replicated WALs, retrying
	// router). The health gauge encodes the ladder numerically so alert
	// rules can threshold it: 0 healthy, 1 degraded, 2 failed.
	mShardHealth = obs.NewGaugeVec("domd_shard_health",
		"Shard health state: 0 healthy, 1 degraded, 2 failed.", "shard")
	mShardIngestRetries = obs.NewCounter("domd_shard_ingest_retries_total",
		"Ingest attempts retried by the router after a transient shard storage failure.")
	mShardBreakerTrips = obs.NewCounter("domd_shard_breaker_trips_total",
		"Per-shard circuit breakers tripped open after consecutive ingest failures.")
)
