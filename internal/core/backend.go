package core

import (
	"fmt"

	"repro/internal/blockmq"
	"repro/internal/fpga"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uifd"
)

// cardBackend is the FPGA-side pipeline shared by every card-bearing
// composition: once a block request reaches the card, it is mapped to
// backing objects, placed by the Placement layer's CRUSH kernel, (for EC
// writes) encoded by the RS accelerator, and fanned out to the OSD nodes
// over the card's own TCP/IP stack. The layer kinds parameterise the
// timing: the packetisation FSM cost follows the fan-out generation
// (RTL vs. HLS TCP stack) and the kernel penalty scale follows the
// placement generation.
//
// Each extent runs as one pooled cardOp, so a warm request allocates
// nothing here. Like the engine it feeds, a cardBackend is
// single-threaded; its freelist and extent scratch are unsynchronised on
// purpose.
type cardBackend struct {
	eng   *sim.Engine
	shell *fpga.Shell
	place *cardPlacement
	fan   *Fanout
	image *rbd.Image
	pool  *rados.Pool
	// procCost is the card's fixed per-I/O pipeline stage (descriptor
	// handling + packetisation FSM) for this fan-out generation.
	procCost sim.Duration
	// kernelScale is the HLS slowdown charged on non-placement kernels
	// (the RS encoder); 1 for RTL designs.
	kernelScale float64
	// trace records card-side spans for traced ops (nil = off).
	trace *trace.Sink
	// pipeNextFree serializes the card's fixed per-I/O pipeline stage.
	pipeNextFree sim.Time

	exts []rbd.Extent // scratch: the extents of the request being mapped
	free []*cardOp
}

// join invokes done(first error) after n sub-operations complete. A single
// sub-operation needs no counting, so join(1, done) is done itself.
func join(n int, done func(error)) func(error) {
	if n == 1 {
		return done
	}
	remaining := n
	var firstErr error
	return func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining == 0 {
			done(firstErr)
		}
	}
}

// reservePipe books the card pipeline FSM for cost, returning the wait
// until this I/O's slot completes.
func (cb *cardBackend) reservePipe(cost sim.Duration) sim.Duration {
	now := cb.eng.Now()
	start := now
	if cb.pipeNextFree > start {
		start = cb.pipeNextFree
	}
	cb.pipeNextFree = start.Add(cost)
	return cb.pipeNextFree.Sub(now)
}

// Process implements uifd.CardBackend (the DeLiBA-K entry point).
func (cb *cardBackend) Process(req uifd.CardRequest, done func(err error)) {
	op := Read
	if req.Op == blockmq.OpWrite {
		op = Write
	}
	pattern := Seq
	if req.Flags&blockmq.FlagRandom != 0 {
		pattern = Rand
	}
	cb.process(op, pattern, req.Off, req.Len, req.Tenant, req.Trace, done)
}

// process runs the card pipeline for one block I/O. It is also called
// directly by the DeLiBA-2 stack, which reaches the card via its legacy DMA
// path instead of UIFD/QDMA. A zero-length I/O maps to no extents and
// completes at once.
func (cb *cardBackend) process(op OpType, pattern Pattern, off int64, n, tenant int, tr trace.Ref, done func(error)) {
	exts, err := cb.image.Extents(cb.exts[:0], off, n)
	if err != nil {
		cb.eng.Schedule(0, func() { done(err) })
		return
	}
	cb.exts = exts
	if len(exts) == 0 {
		done(nil)
		return
	}
	// No extent completes inside start (placement always waits for the
	// kernel FSM), so the scratch slice is not reused under this loop.
	sub := join(len(exts), done)
	for _, e := range exts {
		cb.get(op, pattern, e, tenant, tr, sub).start()
	}
}

// cardOp is one backing-object extent's trip through the card pipeline:
// placement on the CRUSH kernel (stage ④), a slot in the pipeline FSM, the
// RS encoder for EC writes, then the fan-out over the card NIC (stage ⑥).
// Ops are pooled on the cardBackend with their step callbacks bound once,
// and an op returns to the pool just before its done runs.
type cardOp struct {
	cb   *cardBackend
	op   OpType
	ext  rbd.Extent
	opts rados.ReqOpts // Trace is the card-pipeline span's context
	span trace.H       // the card-pipeline span
	step trace.H       // the open crush-select, rs-encode, fanout or ec-reconstruct span
	done func(error)

	placedFn, pipedFn, fanECFn func()
	encodedFn, fannedFn        func(error)
	ecReadFn                   func(needDecode bool, err error)
}

// get takes an op for extent e from the pool. The card-pipeline span
// opens here and contains placement, encode and fan-out, so their spans
// nest under it.
func (cb *cardBackend) get(op OpType, pattern Pattern, e rbd.Extent, tenant int, tr trace.Ref, done func(error)) *cardOp {
	var o *cardOp
	if k := len(cb.free); k > 0 {
		o = cb.free[k-1]
		cb.free[k-1] = nil
		cb.free = cb.free[:k-1]
	} else {
		o = &cardOp{cb: cb}
		o.placedFn, o.pipedFn, o.fanECFn = o.placed, o.piped, o.fanEC
		o.encodedFn, o.fannedFn, o.ecReadFn = o.encoded, o.fanned, o.ecRead
	}
	o.op, o.ext, o.done = op, e, done
	o.span, tr = cb.trace.Open(tr, "card-pipeline")
	o.opts = rados.ReqOpts{Random: pattern == Rand, Tenant: tenant, Trace: tr}
	return o
}

// finish recycles the op and then completes its caller (in that order —
// the caller may immediately issue a request that reuses it).
func (o *cardOp) finish(err error) {
	cb, done := o.cb, o.done
	o.span.End()
	o.ext, o.opts, o.span, o.step, o.done = rbd.Extent{}, rados.ReqOpts{}, trace.H{}, trace.H{}, nil
	cb.free = append(cb.free, o)
	done(err)
}

// start books the placement on the card's CRUSH kernel.
func (o *cardOp) start() {
	o.step = o.cb.place.book(o.cb.pool, o.opts.Trace, o.placedFn)
}

// placed runs when the kernel retires: a placement error fails the extent
// before any fan-out; otherwise the op waits out the HLS penalty and its
// slot in the pipeline FSM. The fan-out places the object again itself,
// from the same epoch cache, so a retry after an epoch change re-places.
func (o *cardOp) placed() {
	cb := o.cb
	o.step.End()
	_, extra, err := cb.place.answer(cb.pool, cb.fan.Cluster.PGOf(cb.pool, o.ext.Object))
	if err != nil {
		o.finish(err)
		return
	}
	cb.after(extra+cb.reservePipe(cb.procCost), o.pipedFn)
}

// piped runs once the pipeline slot completes: EC writes go through the
// RS encoder first, everything else fans out.
func (o *cardOp) piped() {
	cb, e := o.cb, o.ext
	switch {
	case o.op == Write && cb.pool.Kind == rados.ECPool:
		o.step = cb.trace.Begin(o.opts.Trace, StageEncode)
		cb.shell.RS.Encode(e.Len, nil, o.encodedFn)
	case o.op == Write:
		cb.fan.WriteReplicated(cb.pool, e.Object, e.Off, e.Len, o.fanOpts(), o.fannedFn)
	case cb.pool.Kind == rados.ECPool:
		cb.fan.ReadEC(cb.pool, e.Object, e.Off, e.Len, o.fanOpts(), o.ecReadFn)
	default:
		cb.fan.ReadReplicated(cb.pool, e.Object, e.Off, e.Len, o.fanOpts(), o.fannedFn)
	}
}

// fanOpts opens the extent's fan-out span (stage ⑥) and returns the
// request options its fan-out call runs under.
func (o *cardOp) fanOpts() rados.ReqOpts {
	opts := o.opts
	o.step, opts.Trace = o.cb.trace.Open(o.opts.Trace, StageFanout)
	return opts
}

// encoded runs when the RS encoder retires; the shard fan-out follows the
// HLS penalty, if any.
func (o *cardOp) encoded(err error) {
	o.step.End()
	if err != nil {
		o.finish(err)
		return
	}
	o.cb.after(o.cb.hlsExtra(o.cb.shell.RS.Spec, 1), o.fanECFn)
}

func (o *cardOp) fanEC() {
	cb, e := o.cb, o.ext
	cb.fan.WriteEC(cb.pool, e.Object, e.Off, e.Len, o.fanOpts(), o.fannedFn)
}

// fanned completes the extent when its fan-out (or reconstruction) ends.
func (o *cardOp) fanned(err error) {
	o.step.End()
	o.finish(err)
}

// ecRead ends an EC read's gather; a degraded read reconstructs on the
// card before completing.
func (o *cardOp) ecRead(needDecode bool, err error) {
	o.step.End()
	if err != nil || !needDecode {
		o.finish(err)
		return
	}
	o.step = o.cb.trace.Begin(o.opts.Trace, "ec-reconstruct")
	o.step.Link(trace.KindDegraded, 0)
	o.cb.shell.RS.Encode(o.ext.Len, nil, o.fannedFn)
}

// hlsExtra returns the additional latency an HLS kernel pays over the RTL
// redesign (zero for DeLiBA-K).
func (cb *cardBackend) hlsExtra(spec fpga.KernelSpec, passes int) sim.Duration {
	if cb.kernelScale <= 1 {
		return 0
	}
	return sim.Duration(float64(spec.PipelineLatency()) * (cb.kernelScale - 1) * float64(passes))
}

func (cb *cardBackend) after(d sim.Duration, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	cb.eng.Schedule(d, fn)
}

// pcieTime is the legacy (pre-QDMA) host<->card transfer time for D1/D2.
func pcieTime(n int) sim.Duration {
	const legacyPCIeBps = 12e9 // Gen3 x16 with older DMA engine efficiency
	return sim.Duration(float64(n) / legacyPCIeBps * 1e9)
}

var errNoECInD1 = fmt.Errorf("core: DeLiBA-1 has no erasure-coding accelerators")
