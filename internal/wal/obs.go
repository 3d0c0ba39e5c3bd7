package wal

import "domd/internal/obs"

// Durability metrics, registered process-wide in obs.Default and exposed
// on GET /metrics (catalog: docs/OPERATIONS.md). They aggregate across
// every Log in the process.
var (
	mAppends = obs.NewCounter("domd_wal_appends_total",
		"WAL records appended (durably written per the sync policy).")
	mAppendFailures = obs.NewCounter("domd_wal_append_failures_total",
		"WAL appends that failed before acknowledgment (write or fsync error, injected fault).")
	mSyncs = obs.NewCounter("domd_wal_syncs_total",
		"WAL fsync calls issued by appends.")
	mSyncSeconds = obs.NewHistogram("domd_wal_sync_duration_seconds",
		"WAL fsync latency in seconds.", obs.DefBuckets)
	mTornTailCuts = obs.NewCounter("domd_wal_torn_tail_cuts_total",
		"Torn or corrupt log tails cut off during restore.")
)

// Replication metrics (ReplicatedLog). Every shard's WAL is a replica
// set, one-replica sets included, so these count faults at every -repl.
// Counters aggregate across every replica set in the process; the lag
// gauge is per set, labeled by the set name (the shard WAL directory).
var (
	mReplQuorumFailures = obs.NewCounter("domd_wal_repl_quorum_failures_total",
		"Appends that could not reach quorum and were not acknowledged.")
	mReplFailovers = obs.NewCounter("domd_wal_repl_failovers_total",
		"Primary failovers: the acting primary replica failed an append and a healthier replica was promoted.")
	mReplCatchupRecords = obs.NewCounter("domd_wal_repl_catchup_records_total",
		"Records re-appended to lagging replicas by catch-up.")
	mReplReplicaFaults = obs.NewCounter("domd_wal_repl_replica_faults_total",
		"Individual replica append or catch-up faults (the set may still have reached quorum).")
	mReplLag = obs.NewGaugeVec("domd_wal_repl_lag",
		"Records the most-behind non-failed replica is missing, per replica set.", "set")
)
