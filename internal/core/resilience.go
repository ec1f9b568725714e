package core

import (
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/rados"
	"repro/internal/sim"
)

// ResilienceConfig shapes the client-side fault tolerance of a testbed's
// stacks: per-attempt deadlines, bounded retries with seeded full-jitter
// backoff, read failover to replica OSDs, and degraded EC reads. The zero
// value (Enabled false) is the pre-fault-injection configuration — no
// policy objects are built and every hot path is bit-identical to a build
// without this file.
type ResilienceConfig struct {
	Enabled bool
	// Deadline bounds each attempt (lost messages surface as timeouts);
	// 0 waits forever.
	Deadline sim.Duration
	// MaxRetries is the number of re-issues after the first attempt.
	MaxRetries int
	// BackoffBase/BackoffCap bound the retry delay window (see
	// faults.Backoff).
	BackoffBase sim.Duration
	BackoffCap  sim.Duration
	// Seed drives the backoff jitter stream.
	Seed uint64
}

// DefaultResilienceConfig returns production-shaped resilience: deadlines
// well above the healthy p999, a handful of retries, and a backoff window
// wide enough to ride out transient fabric faults.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		Enabled:     true,
		Deadline:    5 * sim.Millisecond,
		MaxRetries:  4,
		BackoffBase: 50 * sim.Microsecond,
		BackoffCap:  2 * sim.Millisecond,
	}
}

// Resilience is the per-testbed runtime state: the policy, one seeded
// jitter stream shared by every stack on the testbed (draws happen in
// deterministic engine order), and the counters experiments report.
type Resilience struct {
	Cfg      ResilienceConfig
	Counters metrics.Resilience

	rng *sim.RNG
}

func newResilience(cfg ResilienceConfig) *Resilience {
	return &Resilience{Cfg: cfg, rng: sim.NewRNG(cfg.Seed ^ 0xBAC0FF)}
}

// backoff draws the delay before retry attempt (0-based).
func (r *Resilience) backoff(attempt int) sim.Duration {
	return faults.Backoff(r.Cfg.BackoffBase, r.Cfg.BackoffCap, attempt, r.rng)
}

// retryPolicy adapts the testbed policy for one fan-out endpoint (a
// rados.Client or a Fanout), sharing the counters and the jitter stream;
// it is nil when resilience is off.
func (r *Resilience) retryPolicy() *rados.RetryPolicy {
	if r == nil {
		return nil
	}
	return &rados.RetryPolicy{
		Deadline:   r.Cfg.Deadline,
		MaxRetries: r.Cfg.MaxRetries,
		Backoff:    r.backoff,
		Counters:   &r.Counters,
	}
}
