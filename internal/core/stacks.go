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
// Each request runs as one pooled dmqOp.
type dmqTarget struct {
	eng        *sim.Engine
	mq         *blockmq.MQ
	mapCost    sim.Duration
	writeExtra sim.Duration
	trace      *trace.Sink
	// bare skips the kernel span and RBD map cost: the cacheTarget
	// wrapping this target already charged them once above the cache.
	bare bool

	free []*dmqOp
}

// dmqOp is one ring request's kernel residency: the map cost, then blk-mq.
// Ops are pooled on the target with their steps bound once, and an op
// returns to the pool just before its completion runs.
type dmqOp struct {
	t        *dmqTarget
	req      iouring.Request // Trace is the kernel span's context
	kernel   trace.H
	complete func(res int32)

	submitFn func()
	doneFn   func(error)
}

func (t *dmqTarget) Submit(req iouring.Request, complete func(res int32)) {
	var o *dmqOp
	if k := len(t.free); k > 0 {
		o = t.free[k-1]
		t.free[k-1] = nil
		t.free = t.free[:k-1]
	} else {
		o = &dmqOp{t: t}
		o.submitFn, o.doneFn = o.submit, o.done
	}
	o.req, o.complete = req, complete
	delay := sim.Duration(0)
	if req.Op == iouring.OpWrite {
		delay = t.writeExtra
	}
	if !t.bare {
		delay += t.mapCost
		// The kernel span contains the whole below-ring residency;
		// blk-mq and the card pipeline nest under it.
		o.kernel, o.req.Trace = t.trace.Open(req.Trace, StageKernel)
	}
	t.eng.Schedule(delay, o.submitFn)
}

// submit enters blk-mq. blk-mq's own span is the transport stage:
// dispatch, QDMA H2C, card residency, C2H. Subtract the card stages to
// isolate the transport itself.
func (o *dmqOp) submit() {
	op := blockmq.OpRead
	if o.req.Op == iouring.OpWrite {
		op = blockmq.OpWrite
	}
	r := &o.req
	o.t.mq.SubmitAsyncTenant(op, r.Off, int(r.Len), r.RWFlags, r.CPU, r.Tenant, r.Trace, o.doneFn)
}

// done ends the kernel span, recycles the op and completes the request.
func (o *dmqOp) done(err error) {
	t, complete, length := o.t, o.complete, o.req.Len
	o.kernel.End()
	o.req, o.kernel, o.complete = iouring.Request{}, trace.H{}, nil
	t.free = append(t.free, o)
	if err != nil {
		complete(iouring.ResEIO)
		return
	}
	complete(int32(length))
}

// radosTarget routes ring submissions into the software Ceph client. Each
// request runs as one pooled clientIO.
type radosTarget struct {
	eng     *sim.Engine
	mapCost sim.Duration
	// bare skips the kernel span and RBD map cost: the cacheTarget
	// wrapping this target already charged them once above the cache.
	bare bool
	io   extentIssuer
}

func (t *radosTarget) Submit(req iouring.Request, complete func(res int32)) {
	o := t.io.get()
	o.t, o.req, o.complete = t, req, complete
	t.eng.Schedule(0, o.startFn)
}

// extentIssuer runs requests through the software client one
// backing-object extent after another, each under its own fan-out span,
// on pooled clientIO records. The DK-SW ring target stops a request at
// its first extent error (how the kernel RBD target aborts a request); the
// D2-SW daemon issues every extent and reports the first error (how the
// NBD daemons drain a request).
type extentIssuer struct {
	sink   *trace.Sink
	client *rados.Client
	image  *rbd.Image
	pool   *rados.Pool

	free []*clientIO
}

// clientIO is one request through the software client: on the ring target
// the kernel RBD residency first, then its extents in order. Records are
// pooled per issuer with their steps bound once and keep their extent
// scratch across reuse; a record returns to the pool just before its
// completion runs.
type clientIO struct {
	x *extentIssuer
	// t, req and complete are set on the ring target (t == nil for the
	// daemon path, which completes through done).
	t        *radosTarget
	req      iouring.Request
	complete func(res int32)
	done     func(error)

	op        OpType
	exts      []rbd.Extent
	next      int
	stopOnErr bool
	opts      rados.ReqOpts
	firstErr  error
	// span is the kernel span while the map cost runs, then the current
	// extent's fan-out span.
	span trace.H

	startFn, mappedFn func()
	extentFn          func(error)
	readFn            func([]byte, error)
}

func (x *extentIssuer) get() *clientIO {
	if k := len(x.free); k > 0 {
		o := x.free[k-1]
		x.free[k-1] = nil
		x.free = x.free[:k-1]
		return o
	}
	o := &clientIO{x: x}
	o.startFn, o.mappedFn = o.start, o.mapped
	o.extentFn, o.readFn = o.extentDone, o.readDone
	return o
}

// start is the ring request's first event. The kernel RBD residency is
// just the map cost here; the client round trips are siblings, not
// children, of it.
func (o *clientIO) start() {
	if o.t.bare {
		o.issue()
		return
	}
	o.span = o.x.sink.Begin(o.req.Trace, StageKernel)
	o.t.eng.Schedule(o.t.mapCost, o.mappedFn)
}

func (o *clientIO) mapped() {
	o.span.End()
	o.issue()
}

// issue runs the ring request's extents, stopping at the first error.
func (o *clientIO) issue() {
	op := Read
	if o.req.Op == iouring.OpWrite {
		op = Write
	}
	opts := rados.ReqOpts{Random: o.req.RWFlags&blockmq.FlagRandom != 0, Tenant: o.req.Tenant, Trace: o.req.Trace}
	o.run(op, o.req.Off, int(o.req.Len), true, opts)
}

// run maps [off, off+n) to its extents and issues the first. A mapping
// error fails the request before any extent is issued, synchronously.
func (o *clientIO) run(op OpType, off int64, n int, stopOnErr bool, opts rados.ReqOpts) {
	exts, err := o.x.image.Extents(o.exts[:0], off, n)
	if err != nil {
		o.finish(err)
		return
	}
	o.exts, o.next, o.firstErr = exts, 0, nil
	o.op, o.stopOnErr, o.opts = op, stopOnErr, opts
	o.visit()
}

// visit issues the next extent, or completes the request after the last.
func (o *clientIO) visit() {
	if o.next == len(o.exts) {
		o.finish(o.firstErr)
		return
	}
	x, e := o.x, o.exts[o.next]
	o.next++
	eopts := o.opts
	o.span, eopts.Trace = x.sink.Open(o.opts.Trace, StageFanout)
	if o.op == Write {
		x.client.WriteAsync(x.pool, e.Object, e.Off, rados.Zeros(e.Len), eopts, o.extentFn)
	} else {
		x.client.ReadAsync(x.pool, e.Object, e.Off, e.Len, eopts, o.readFn)
	}
}

func (o *clientIO) readDone(_ []byte, err error) { o.extentDone(err) }

func (o *clientIO) extentDone(err error) {
	o.span.End()
	if err != nil {
		if o.stopOnErr {
			o.finish(err)
			return
		}
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
	o.visit()
}

// finish recycles the record, then completes the request: a CQE result
// on the ring target, the error itself on the daemon path.
func (o *clientIO) finish(err error) {
	complete, done, length := o.complete, o.done, o.req.Len
	o.t, o.req, o.complete, o.done = nil, iouring.Request{}, nil, nil
	o.opts, o.firstErr, o.span = rados.ReqOpts{}, nil, trace.H{}
	o.x.free = append(o.x.free, o)
	switch {
	case complete == nil:
		done(err)
	case err == nil:
		complete(int32(length))
	case errors.Is(err, rbd.ErrOutOfRange):
		complete(iouring.ResEINVAL)
	default:
		complete(iouring.ResEIO)
	}
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
