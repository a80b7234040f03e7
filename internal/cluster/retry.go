package cluster

import (
	"math/rand"
	"time"
)

// The router's failover loop makes at most maxAttempts forward attempts
// per request (across replicas), with a full-jitter exponential backoff
// between consecutive attempts. Full jitter — a uniform draw in
// [0, min(backoffMax, backoffBase·2ⁿ)) — keeps retry storms from
// synchronizing: after a shard dies, the in-flight requests that all
// failed at the same instant spread their retries over the whole window
// instead of arriving as a second spike.
const (
	maxAttempts = 3
	// backoffBase is the backoff ceiling before the first retry; it
	// doubles per attempt up to backoffMax.
	backoffBase = 10 * time.Millisecond
	backoffMax  = 500 * time.Millisecond
)

// backoff draws the sleep before retry number `attempt` (1-based: the
// sleep between the first failure and the second attempt is attempt 1).
func backoff(attempt int, rng *rand.Rand) time.Duration {
	if attempt <= 0 {
		return 0
	}
	ceil := backoffBase
	for i := 1; i < attempt && ceil < backoffMax; i++ {
		ceil *= 2
	}
	return time.Duration(rng.Int63n(int64(min(ceil, backoffMax)) + 1))
}
