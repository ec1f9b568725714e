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
// bare so neither is charged twice.
type cacheTarget struct {
	eng     *sim.Engine
	cache   *lsvd.Cache
	mapCost sim.Duration
	trace   *trace.Sink
}

func (t *cacheTarget) Submit(req iouring.Request, complete func(res int32)) {
	length := req.Len
	// Kernel span covers map cost + cache residency; the cache span and
	// any miss-fill descent nest under it.
	hk, tr := t.trace.Open(req.Trace, StageKernel)
	t.eng.Schedule(t.mapCost, func() {
		hc, ctr := t.trace.Open(tr, StageCache)
		done := func(err error) {
			hc.End()
			hk.End()
			if err != nil {
				complete(iouring.ResEIO)
				return
			}
			complete(int32(length))
		}
		if req.Op == iouring.OpWrite {
			t.cache.WriteTraced(req.Off, int(req.Len), ctr, done)
		} else {
			t.cache.ReadTraced(req.Off, int(req.Len), ctr, done)
		}
	})
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
}

// ReadMiss sends a miss fill down the inner data path under the caller's
// trace context.
func (b *cacheBackend) ReadMiss(off int64, n int, tr trace.Ref, done func(error)) {
	req := iouring.Request{
		Op:      iouring.OpRead,
		Off:     off,
		Len:     uint32(n),
		RWFlags: blockmq.FlagRandom,
		Trace:   tr,
	}
	b.inner.Submit(req, func(res int32) {
		done(errIO(res))
	})
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
