package core

import (
	"repro/internal/blockmq"
	"repro/internal/iouring"
	"repro/internal/lsvd"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file wires the optional LSVD write-back cache tier (internal/lsvd)
// into the stack pipeline. The cache sits between the kernel block layer
// and the transport: ring submissions pay the RBD map cost once, then
// enter the cache; hits complete from the NVMe-class log device, misses
// ride the stack's own (bare) ring target down the normal data path, and
// the background flusher drains sealed segments to RADOS through a
// dedicated software client that reuses the testbed's retry policy.

// cacheTarget is the ring target for cache-lsvd stacks. It owns the
// kernel span and the RBD map cost; the wrapped inner target is built
// bare so neither is charged twice. Each request runs as one pooled
// cacheOp.
type cacheTarget struct {
	eng     *sim.Engine
	cache   *lsvd.Cache
	mapCost sim.Duration
	trace   *trace.Sink

	free []*cacheOp
}

// cacheOp is one ring request's trip through the cache tier: the map cost,
// then the cache read or write. Ops are pooled on the target with their
// steps bound once, and an op returns to the pool just before its
// completion runs.
type cacheOp struct {
	t        *cacheTarget
	req      iouring.Request // Trace is the kernel span's context
	kernel   trace.H
	cached   trace.H
	complete func(res int32)

	enterFn func()
	doneFn  func(error)
}

func (t *cacheTarget) Submit(req iouring.Request, complete func(res int32)) {
	var o *cacheOp
	if k := len(t.free); k > 0 {
		o = t.free[k-1]
		t.free[k-1] = nil
		t.free = t.free[:k-1]
	} else {
		o = &cacheOp{t: t}
		o.enterFn, o.doneFn = o.enter, o.done
	}
	o.req, o.complete = req, complete
	// Kernel span covers map cost + cache residency; the cache span and
	// any miss-fill descent nest under it.
	o.kernel, o.req.Trace = t.trace.Open(req.Trace, StageKernel)
	t.eng.Schedule(t.mapCost, o.enterFn)
}

// enter runs the request against the cache under its cache span.
func (o *cacheOp) enter() {
	t := o.t
	var ctr trace.Ref
	o.cached, ctr = t.trace.Open(o.req.Trace, StageCache)
	if o.req.Op == iouring.OpWrite {
		t.cache.WriteTraced(o.req.Off, int(o.req.Len), ctr, o.doneFn)
	} else {
		t.cache.ReadTraced(o.req.Off, int(o.req.Len), ctr, o.doneFn)
	}
}

// done ends both spans, recycles the op and completes the request.
func (o *cacheOp) done(err error) {
	t, complete, length := o.t, o.complete, o.req.Len
	o.cached.End()
	o.kernel.End()
	o.req, o.kernel, o.cached, o.complete = iouring.Request{}, trace.H{}, trace.H{}, nil
	t.free = append(t.free, o)
	if err != nil {
		complete(iouring.ResEIO)
		return
	}
	complete(int32(length))
}

// cacheBackend adapts the stack's data path to lsvd.Backend: read-around
// miss fills ride the bare inner ring target (the card pipeline or the
// software client, whichever the spec composed), while flush write-back
// goes through its own rados client so background draining shares the
// host NIC and the cluster's retry policy without occupying the
// foreground rings.
type cacheBackend struct {
	inner  iouring.Target
	client *rados.Client
	image  *rbd.Image
	pool   *rados.Pool

	// The flusher has at most one FlushExtent outstanding: its extents,
	// the next to write, its options and its completion, with the write
	// callback bound once.
	flushExts []rbd.Extent
	flushNext int
	flushOpts rados.ReqOpts
	flushDone func(error)
	wroteFn   func(error)

	misses []*missFill
}

// missFill is one miss fill in flight on the inner target, pooled with
// its completion bound once; it returns to the pool just before its done
// runs.
type missFill struct {
	b          *cacheBackend
	done       func(error)
	completeFn func(res int32)
}

// ReadMiss sends a miss fill down the inner data path under the caller's
// trace context.
func (b *cacheBackend) ReadMiss(off int64, n int, tr trace.Ref, done func(error)) {
	var m *missFill
	if k := len(b.misses); k > 0 {
		m = b.misses[k-1]
		b.misses[k-1] = nil
		b.misses = b.misses[:k-1]
	} else {
		m = &missFill{b: b}
		m.completeFn = m.complete
	}
	m.done = done
	req := iouring.Request{
		Op:      iouring.OpRead,
		Off:     off,
		Len:     uint32(n),
		RWFlags: blockmq.FlagRandom,
		Trace:   tr,
	}
	b.inner.Submit(req, m.completeFn)
}

func (m *missFill) complete(res int32) {
	done := m.done
	m.done = nil
	m.b.misses = append(m.b.misses, m)
	done(errIO(res))
}

// FlushExtent writes one live extent back through the flush client, one
// backing-object extent after another under the flusher's own span; the
// first error fails the flush.
func (b *cacheBackend) FlushExtent(off int64, n int, tr trace.Ref, done func(error)) {
	exts, err := b.image.Extents(b.flushExts[:0], off, n)
	if err != nil {
		done(err)
		return
	}
	b.flushExts, b.flushNext = exts, 0
	b.flushOpts = rados.ReqOpts{Random: true, Trace: tr}
	b.flushDone = done
	b.wrote(nil)
}

// wrote issues the flush's next extent, or completes the flush after the
// last one or on the first error.
func (b *cacheBackend) wrote(err error) {
	if err != nil || b.flushNext == len(b.flushExts) {
		done := b.flushDone
		b.flushDone, b.flushOpts = nil, rados.ReqOpts{}
		done(err)
		return
	}
	e := b.flushExts[b.flushNext]
	b.flushNext++
	b.client.WriteAsync(b.pool, e.Object, e.Off, rados.Zeros(e.Len), b.flushOpts, b.wroteFn)
}

// buildCacheTarget wires the cache tier over a bare inner target: the
// flush client, the cache geometry resolved from the spec, and the
// wrapping ring target.
func (tb *Testbed) buildCacheTarget(s *pipelineStack, inner iouring.Target) (*cacheTarget, error) {
	flush, err := newSWClient(tb, "cache-flush")
	if err != nil {
		return nil, err
	}
	cfg := lsvd.DefaultConfig()
	if s.spec.CacheLogMB > 0 {
		cfg.LogBytes = int64(s.spec.CacheLogMB) << 20
	}
	if s.spec.CacheReadMB > 0 {
		cfg.ReadCacheBytes = int64(s.spec.CacheReadMB) << 20
	}
	cfg.DiskBytes = s.image.Size
	cfg.Verify = s.spec.CacheVerify
	cfg.AdmitOnReuse = s.spec.CacheAdmit
	be := &cacheBackend{inner: inner, client: flush, image: s.image, pool: s.pool}
	be.wroteFn = be.wrote
	cache, err := lsvd.New(tb.Eng, cfg, be)
	if err != nil {
		return nil, err
	}
	cache.Trace = tb.traceHost
	s.cache = cache
	return &cacheTarget{eng: tb.Eng, cache: cache, mapCost: tb.CM.DKRBDMapCost, trace: tb.traceHost}, nil
}

// CacheOf returns the stack's LSVD cache tier, or nil for cache-none
// stacks and host APIs that cannot carry one.
func CacheOf(st Stack) *lsvd.Cache {
	if c, ok := st.(interface{ Cache() *lsvd.Cache }); ok {
		return c.Cache()
	}
	return nil
}
