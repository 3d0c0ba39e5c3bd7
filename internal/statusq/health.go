package statusq

import (
	"errors"
	"sync"

	"domd/internal/wal"
)

// Per-shard health machinery for the sharded router: a three-state
// health ladder (healthy → degraded → failed) driven by ingest/storage
// outcomes and replica-set status, plus a count-based circuit breaker
// that stops hammering a failed shard's disks while still probing for
// recovery. Everything here is deliberately wall-clock-free (counts,
// not timers): the statusq pipeline must stay deterministic under test
// and replay, so recovery is driven by traffic, not elapsed time.

// ShardHealth is a shard's position on the healthy → degraded → failed
// ladder.
type ShardHealth int

const (
	// ShardHealthy means ingests acknowledge normally and (when
	// replicated) every replica is live.
	ShardHealthy ShardHealth = iota
	// ShardDegraded means the shard still acknowledges but something is
	// off: recent storage errors, or a replica lagging/failed.
	ShardDegraded
	// ShardFailed means the shard cannot acknowledge ingests (quorum
	// lost, or persistent storage errors); reads serve from memory,
	// marked stale.
	ShardFailed
)

// String names the state for logs, metrics, and /readyz rows.
func (h ShardHealth) String() string {
	switch h {
	case ShardHealthy:
		return "healthy"
	case ShardDegraded:
		return "degraded"
	case ShardFailed:
		return "failed"
	default:
		return "unknown"
	}
}

const (
	// DegradeAfterFailures consecutive storage failures demote a shard
	// to degraded.
	DegradeAfterFailures = 2
	// FailAfterFailures consecutive storage failures demote a shard to
	// failed even when quorum is nominally intact, and open its circuit
	// breaker.
	FailAfterFailures = 5
)

// breakerProbeEvery admits every Nth request through an open breaker
// as a recovery probe.
const breakerProbeEvery = 8

// ErrShardUnavailable is returned (wrapped) by the router when a
// shard's circuit breaker is open and the request was not selected as a
// recovery probe. The server maps it to 503 + Retry-After.
var ErrShardUnavailable = errors.New("statusq: shard circuit breaker open")

// healthTracker is one shard's consecutive ingest-failure streak and
// the two things read from it: the health state machine and a
// count-based circuit breaker. The breaker is open exactly when the
// streak has reached FailAfterFailures: it then fails fast without
// touching the shard's storage, admitting every breakerProbeEvery-th
// request as a probe, and one probe success closes it. The current
// replica-set status is folded into the health state on every read so
// /readyz sees a quorum loss even on an idle shard.
type healthTracker struct {
	mu         sync.Mutex // guards streak and sinceProbe
	streak     int        // consecutive storage failures
	sinceProbe int        // requests refused since the breaker opened or last probed
}

// allow reports whether the request may proceed to the shard (closed
// breaker, or selected as a recovery probe).
func (t *healthTracker) allow() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.streak < FailAfterFailures {
		return true
	}
	t.sinceProbe++
	if t.sinceProbe >= breakerProbeEvery {
		t.sinceProbe = 0
		return true
	}
	return false
}

// noteIngest records one allowed ingest's storage outcome (ok=false
// only for storage-level failures — validation rejects are not health
// signals), tripping the breaker as the streak reaches
// FailAfterFailures and closing it on a success.
func (t *healthTracker) noteIngest(ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		t.streak = 0
		return
	}
	t.streak++
	if t.streak == FailAfterFailures {
		t.sinceProbe = 0
		mShardBreakerTrips.Inc()
	}
}

// breakerOpen reports whether the breaker is failing fast.
func (t *healthTracker) breakerOpen() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streak >= FailAfterFailures
}

// state folds the failure streak and the shard's current replica status
// into a health state.
func (t *healthTracker) state(repl wal.ReplHealth, replicated bool) ShardHealth {
	t.mu.Lock()
	fails := t.streak
	t.mu.Unlock()
	if replicated && !repl.QuorumOK {
		return ShardFailed
	}
	if fails >= FailAfterFailures {
		return ShardFailed
	}
	if fails >= DegradeAfterFailures {
		return ShardDegraded
	}
	if replicated && (repl.Failed > 0 || repl.Lagging > 0) {
		return ShardDegraded
	}
	return ShardHealthy
}

// ShardHealthStatus is one shard's row in the router's health report
// (the /readyz per-shard JSON body).
type ShardHealthStatus struct {
	// Shard is the shard index.
	Shard int
	// State is the shard's current health.
	State ShardHealth
	// Replicas and Live describe the shard's WAL replica set (1/1 when
	// unreplicated and healthy-by-construction).
	Replicas int
	Live     int
	// Lag is the replica set's catch-up lag in records (0 when
	// unreplicated).
	Lag uint64
	// Promotable reports whether the shard can still acknowledge
	// appends: a quorum of live replicas remains. Always false when
	// unreplicated — there is no replica to promote.
	Promotable bool
	// BreakerOpen reports whether the router's circuit breaker is
	// currently failing fast for this shard.
	BreakerOpen bool
}
