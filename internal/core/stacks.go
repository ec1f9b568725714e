package core

import (
	"errors"
	"fmt"

	"repro/internal/blockmq"
	"repro/internal/fpga"
	"repro/internal/iouring"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the stack machinery shared across compositions: the
// io_uring ring set, the two ring targets (DMQ/card and software client),
// and the shell/client helpers. The layer implementations and BuildStack
// live in layers.go; the declarative specs in spec.go.

// DKInstances is the number of io_uring instances DeLiBA-K creates, each
// pinned to its own CPU core (paper §III-A: "DeLiBA-K uses 3 instances").
const DKInstances = 3

// ringEntries is the SQ depth per instance.
const ringEntries = 256

// SQ-full backoff: the application would spin on GetSQE; model the retry
// with a seeded full-jitter delay (mean sqRetryBase + sqRetrySpread/2 =
// 2µs, the old fixed retry) so contended replays are deterministic for a
// given build, including under the -parallel cell runner.
const (
	sqRetryBase   = sim.Microsecond
	sqRetrySpread = 2 * sim.Microsecond
	sqRetrySeed   = 0xDE11BA4B
)

// errIO converts a CQE result to an error.
func errIO(res int32) error {
	if res < 0 {
		return fmt.Errorf("core: I/O failed (res=%d)", res)
	}
	return nil
}

// errStackClosed fails a submission made after the stack's Close.
var errStackClosed = errors.New("core: stack closed")

// ringSet manages the io_uring instances, one ringQ each. It is shared by
// every io_uring host API; compositions differ only in the ring Target.
type ringSet struct {
	eng   *sim.Engine
	rng   *sim.RNG
	rings []*iouring.Ring
	qs    []*ringQ
	// closed fails every later submission, including SQ-full retries
	// still backing off when Close ran.
	closed bool
	// trace records SQ-full backoff spans for traced ops (nil = off).
	trace *trace.Sink
}

// ringQ is the application side of one ring: the completion callbacks by
// user data and the reaper that runs them. The reaper is a continuation
// bound once: it drains the CQ, then re-arms a one-shot CQ wake, so no
// thread waits on a ring.
type ringQ struct {
	eng       *sim.Engine
	ring      *iouring.Ring
	callbacks map[uint64]func(error)
	nextUD    uint64
	// wakeup is the interrupt-mode wake cost paid before each drain; 0
	// in polled modes.
	wakeup sim.Duration

	reapFn, wakeFn, enterFn func()
}

func newRingSet(tb *Testbed, spec StackSpec, target iouring.Target) (*ringSet, error) {
	rs := &ringSet{eng: tb.Eng, rng: sim.NewRNG(sqRetrySeed), trace: tb.traceHost}
	mode := iouring.SQPollMode
	if spec.RingInterrupt {
		mode = iouring.InterruptMode
	}
	for i := 0; i < spec.ringInstances(); i++ {
		ring, err := iouring.Setup(tb.Eng, iouring.Params{
			Entries:       uint32(spec.ringDepth()),
			Mode:          mode,
			CPU:           i,
			SyscallCost:   tb.CM.DKIOUringSyscall,
			PerSQECost:    tb.CM.DKPerSQE,
			SQPollLatency: tb.CM.DKSQPollLatency,
		}, target)
		if err != nil {
			return nil, err
		}
		q := &ringQ{eng: tb.Eng, ring: ring, callbacks: make(map[uint64]func(error)), nextUD: 1}
		if mode == iouring.InterruptMode {
			q.wakeup = ring.Params().WakeupCost
		}
		q.reapFn, q.wakeFn = q.reap, q.wake
		q.enterFn = func() { ring.Submit(nil) }
		rs.rings = append(rs.rings, ring)
		rs.qs = append(rs.qs, q)
		tb.Eng.Schedule(0, q.reapFn)
	}
	return rs, nil
}

// wake runs when the ring posts a completion (or closes); interrupt mode
// pays the wakeup before the drain.
func (q *ringQ) wake() {
	if q.wakeup > 0 {
		q.eng.Schedule(q.wakeup, q.reapFn)
		return
	}
	q.reap()
}

// reap drains the CQ, completing each CQE's callback, then re-arms the
// wake; on a closed ring with nothing in flight it arms nothing and the
// reaper ends.
func (q *ringQ) reap() {
	for {
		cqe, ok := q.ring.PeekCQE()
		if !ok {
			break
		}
		cb := q.callbacks[cqe.UserData]
		delete(q.callbacks, cqe.UserData)
		if cb != nil {
			cb(errIO(cqe.Res))
		}
	}
	q.ring.NotifyCQE(q.wakeFn)
}

// submit queues one SQE on the cpu's ring; if the SQ is momentarily full
// it retries after a seeded-jitter backoff.
func (rs *ringSet) submit(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, tr trace.Ref, done func(error)) {
	rs.submitBackoff(op, pattern, off, n, cpu, tenant, tr, -1, done)
}

// submitBackoff is submit carrying the first SQ-full observation time
// (-1 = none yet), so a successful queue after backing off can record
// one "sq-backoff" span covering the whole retry run.
func (rs *ringSet) submitBackoff(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, tr trace.Ref, backoffStart sim.Time, done func(error)) {
	if rs.closed {
		done(errStackClosed)
		return
	}
	q := rs.qs[cpu%len(rs.qs)]
	sqe := q.ring.GetSQE()
	if sqe == nil {
		if backoffStart < 0 {
			backoffStart = rs.eng.Now()
		}
		delay := sqRetryBase + sim.Duration(rs.rng.Int63n(int64(sqRetrySpread)))
		rs.eng.Schedule(delay, func() {
			rs.submitBackoff(op, pattern, off, n, cpu, tenant, tr, backoffStart, done)
		})
		return
	}
	if backoffStart >= 0 {
		rs.trace.Emit(tr, "sq-backoff", backoffStart, rs.eng.Now().Sub(backoffStart), 0, "", 0)
	}
	sqe.Trace = tr
	sqe.Tenant = tenant
	sqe.Op = iouring.OpRead
	if op == Write {
		sqe.Op = iouring.OpWrite
	}
	sqe.Off = off
	sqe.Len = uint32(n)
	sqe.BufIndex = 0 // registered buffers: the zero-copy configuration
	if pattern == Rand {
		sqe.RWFlags = blockmq.FlagRandom
	}
	ud := q.nextUD
	q.nextUD++
	sqe.UserData = ud
	q.callbacks[ud] = done
	if q.ring.Params().Mode != iouring.SQPollMode {
		// Without the kernel poller the submitting thread enters the
		// ring itself, one event later.
		rs.eng.Schedule(0, q.enterFn)
	}
}

func (rs *ringSet) close() {
	rs.closed = true
	for _, r := range rs.rings {
		r.Close()
	}
}

// buildShell constructs the FPGA design with the pool's EC geometry.
func buildShell(tb *Testbed, pool *rados.Pool, staticOnly bool) (*fpga.Shell, error) {
	return fpga.BuildShell(tb.Eng, fpga.ShellConfig{
		Code:       pool.Code,
		StaticOnly: staticOnly,
	})
}

// dmqTarget adapts io_uring requests into the DMQ block layer: the UIFD
// RBD driver's offset→object mapping cost is charged, then the request
// enters blk-mq (bypass) toward the card. Write-path card overhead
// (descriptor + doorbell + durability aggregation) rides on the request.
type dmqTarget struct {
	eng        *sim.Engine
	mq         *blockmq.MQ
	mapCost    sim.Duration
	writeExtra sim.Duration
	trace      *trace.Sink
	// bare skips the kernel span and RBD map cost: the cacheTarget
	// wrapping this target already charged them once above the cache.
	bare bool
}

func (t *dmqTarget) Submit(req iouring.Request, complete func(res int32)) {
	op := blockmq.OpRead
	extra := sim.Duration(0)
	if req.Op == iouring.OpWrite {
		op = blockmq.OpWrite
		extra = t.writeExtra
	}
	delay := extra
	tr := req.Trace
	var hk trace.H
	if !t.bare {
		delay += t.mapCost
		// The kernel span contains the whole below-ring residency;
		// blk-mq and the card pipeline nest under it.
		hk, tr = t.trace.Open(tr, StageKernel)
	}
	t.eng.Schedule(delay, func() {
		// blk-mq's own span is the transport stage: dispatch, QDMA H2C,
		// card residency, C2H. Subtract the card stages to isolate the
		// transport itself.
		length := req.Len
		t.mq.SubmitAsyncTenant(op, req.Off, int(req.Len), req.RWFlags, req.CPU, req.Tenant, tr, func(err error) {
			hk.End()
			if err != nil {
				complete(iouring.ResEIO)
				return
			}
			complete(int32(length))
		})
	})
}

// radosTarget routes ring submissions into the software Ceph client.
type radosTarget struct {
	tb      *Testbed
	client  *rados.Client
	image   *rbd.Image
	pool    *rados.Pool
	mapCost sim.Duration
	trace   *trace.Sink
	// bare skips the kernel span and RBD map cost: the cacheTarget
	// wrapping this target already charged them once above the cache.
	bare bool
}

func (t *radosTarget) Submit(req iouring.Request, complete func(res int32)) {
	eng := t.tb.Eng
	eng.Schedule(0, func() {
		if t.bare {
			t.issue(req, complete)
			return
		}
		// The kernel RBD residency is just the map cost here; the client
		// round trips are siblings, not children, of it.
		hk := t.trace.Begin(req.Trace, StageKernel)
		eng.Schedule(t.mapCost, func() {
			hk.End()
			t.issue(req, complete)
		})
	})
}

// issue runs the request's extents through the software client.
func (t *radosTarget) issue(req iouring.Request, complete func(res int32)) {
	op := Read
	if req.Op == iouring.OpWrite {
		op = Write
	}
	opts := rados.ReqOpts{Random: req.RWFlags&blockmq.FlagRandom != 0, Tenant: req.Tenant, Trace: req.Trace}
	clientExtents(t.trace, t.client, t.image, t.pool, op, req.Off, int(req.Len), true, opts, func(err error) {
		switch {
		case err == nil:
			complete(int32(req.Len))
		case errors.Is(err, rbd.ErrOutOfRange):
			complete(iouring.ResEINVAL)
		default:
			complete(iouring.ResEIO)
		}
	})
}

// newSWClient builds a rados client with software-path costs.
func newSWClient(tb *Testbed, name string) (*rados.Client, error) {
	client, err := rados.NewClient(tb.Cluster, name, tb.CM.NICBitsPerSec, tb.CM.HostStack)
	if err != nil {
		return nil, err
	}
	client.PlacementCost = tb.CM.SWPlacement
	client.ECEncodeCost = tb.CM.SWECEncode
	client.ECDecodeCost = tb.CM.SWECDecode
	client.Functional = tb.Cfg.Functional
	client.Retry = tb.Res.retryPolicy()
	client.TraceSink = tb.traceHost
	if tb.Cfg.SplitDomains {
		client.Split = true
		client.Eng = tb.Eng
	}
	return client, nil
}
