package rados

import (
	"errors"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrDeadline marks an attempt abandoned at its per-attempt deadline. The
// operation may still complete on the cluster (the attempt keeps running
// unobserved), which is why only idempotent ops are retried this way.
var ErrDeadline = errors.New("deadline exceeded")

// RetryPolicy configures client-side resilience: per-attempt deadlines,
// bounded retries with caller-supplied backoff, and read failover to
// replica OSDs. A nil policy is the zero-cost healthy path — every request
// is issued exactly once. Both fan-out protocols (Client.Retry and
// core.Fanout.Retry) drive their attempts through Run.
type RetryPolicy struct {
	// Deadline bounds each attempt; 0 disables (attempts wait forever).
	Deadline sim.Duration
	// MaxRetries is the number of re-issues after the first attempt.
	MaxRetries int
	// Backoff returns the delay before retry attempt (0-based); nil retries
	// immediately. Callers bind a seeded jitter source here (faults.Backoff)
	// so retry timing replays deterministically.
	Backoff func(attempt int) sim.Duration
	// Counters, when non-nil, receives resilience accounting.
	Counters *metrics.Resilience
}

// Run drives attempt through the policy and calls done exactly once, with
// the first successful result or the last error. Each attempt runs under a
// span named span on sink, whose ref it receives as atr so the attempt's
// own spans nest under it; a retry's span cause-links to the attempt it
// replaces. A failed attempt is re-issued after Backoff (in the same event
// when there is no delay) until MaxRetries re-issues are spent.
//
// A deadline abandons an attempt without stopping it: the attempt runs on
// to completion (the cluster may still apply the op), but its result is
// dropped — the semantics of a timed-out RPC. Write outcomes feed the
// counters' unavailability-window tracking: a write that exhausts its
// budget opens a stall window backdated to the op's start, the next
// committed write closes it.
func (r *RetryPolicy) Run(eng *sim.Engine, sink *trace.Sink, span string, isWrite bool, tr trace.Ref,
	attempt func(try int, atr trace.Ref, done func([]byte, error)), done func([]byte, error)) {
	start := eng.Now()
	var prev uint64 // span ID of the previous attempt (cause link)
	var issue func(try int)
	issue = func(try int) {
		h, atr := sink.Open(tr, span)
		if try > 0 {
			h.Link(trace.KindRetry, prev)
		}
		prev = h.ID()
		settled := false
		var timer sim.EventID
		observe := func(data []byte, err error) {
			// The attempt span ends when the driver stops observing it —
			// at completion or at deadline abandonment.
			settled = true
			h.End()
			if err == nil || try >= r.MaxRetries {
				if isWrite && r.Counters != nil {
					if err == nil {
						r.Counters.WriteOK(eng.Now())
					} else {
						r.Counters.WriteFailed(start)
					}
				}
				done(data, err)
				return
			}
			if r.Counters != nil {
				r.Counters.Retries++
			}
			if r.Backoff != nil {
				if d := r.Backoff(try); d > 0 {
					eng.Schedule(d, func() { issue(try + 1) })
					return
				}
			}
			issue(try + 1)
		}
		if r.Deadline > 0 {
			timer = eng.Schedule(r.Deadline, func() {
				if settled {
					return
				}
				if r.Counters != nil {
					r.Counters.DeadlineExceeded++
				}
				observe(nil, ErrDeadline)
			})
		}
		attempt(try, atr, func(data []byte, err error) {
			if settled {
				return // abandoned at the deadline
			}
			if r.Deadline > 0 {
				eng.Cancel(timer)
			}
			observe(data, err)
		})
	}
	issue(0)
}

// Failover counts a read that asks a non-primary replica and marks it on
// the op's trace as an instant cause marker. A nil policy only marks.
func (r *RetryPolicy) Failover(sink *trace.Sink, tr trace.Ref) {
	if r != nil && r.Counters != nil {
		r.Counters.Failovers++
	}
	sink.Mark(tr, "replica-failover", trace.KindFailover, 0)
}

// Degraded counts a read that needed parity reconstruction.
func (r *RetryPolicy) Degraded() {
	if r != nil && r.Counters != nil {
		r.Counters.DegradedReads++
	}
}
