package core

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/trace"
)

// Fanout issues object operations from a client-side endpoint directly to
// the acting OSDs — the DeLiBA protocol. Unlike the software Ceph baseline
// (rados.Client), there is no primary-copy hop: the client (host CPU for
// DeLiBA-1, FPGA card for DeLiBA-2/-K) replicates or shards itself and
// talks to every OSD in parallel. The two protocols share everything below
// where the fan-out starts: the per-OSD round trip (rados.Leg), the target
// choice (rados.Cluster's WriteTargets, ECReadSources and ReadTarget) and
// the retry driver (rados.RetryPolicy.Run).
//
// The issue paths are allocation-free in steady state: per-request state
// lives in pooled ops, the per-OSD legs are pooled on the Fanout with their
// callbacks bound once, and target choice reuses a scratch slice; the EC
// paths allocate only the shard-key strings handed to the stores. Like the
// engine it feeds, a Fanout is single-threaded; its freelists and scratch
// buffer are unsynchronised on purpose.
type Fanout struct {
	Cluster *rados.Cluster
	From    *netsim.Host
	// Retry, when non-nil, arms deadlines, retries and read failover on
	// every data method, as Client.Retry does for the software client.
	Retry *rados.RetryPolicy
	// Trace, when non-nil, records a per-target span (issue → ack) for
	// traced ops, so the critical path can name the slowest replica/shard,
	// and a "fanout-attempt" span per retry attempt.
	Trace *trace.Sink
	// Repl, when non-nil, routes replicated I/O for Repl.Pool() through an
	// alternative replication protocol (repl-raft) instead of the direct
	// fan-out; other pools and EC stripes keep the paths below.
	Repl rados.Repl

	ranks   []int // scratch: target ranks of the request being issued
	free    []*fanOp
	legFree []*fanLeg
}

// fanOp is the in-flight state of one fan-out request, whose legs are
// counted down as their acks land.
type fanOp struct {
	remaining  int
	firstErr   error
	needDecode bool
	done       func(error)
	ecDone     func(needDecode bool, err error) // ReadEC's completion
}

// fanLeg is a pooled leg and the op it currently serves. Legs are pooled
// apart from ops, so any op can take any leg and a request of a new width
// never grows an op.
type fanLeg struct {
	f   *Fanout
	leg *rados.Leg
	op  *fanOp
}

// start takes an op for a request of n legs from the pool.
func (f *Fanout) start(n int, done func(error), ecDone func(bool, error)) *fanOp {
	var op *fanOp
	if k := len(f.free); k > 0 {
		op = f.free[k-1]
		f.free[k-1] = nil
		f.free = f.free[:k-1]
	} else {
		op = &fanOp{}
	}
	op.remaining, op.firstErr, op.needDecode, op.done, op.ecDone = n, nil, false, done, ecDone
	return op
}

// leg takes a pooled leg for op, aimed at osd from the Fanout's endpoint.
// The caller sets the request fields and sends it.
func (f *Fanout) leg(op *fanOp, osd int) *rados.Leg {
	var fl *fanLeg
	if k := len(f.legFree); k > 0 {
		fl = f.legFree[k-1]
		f.legFree[k-1] = nil
		f.legFree = f.legFree[:k-1]
	} else {
		fl = &fanLeg{f: f}
		fl.leg = rados.NewLeg(f.Cluster, fl.landed)
	}
	fl.op = op
	fl.leg.From, fl.leg.OSD = f.From, osd
	return fl.leg
}

// send issues leg l under opts and its own per-target span.
func (f *Fanout) send(l *rados.Leg, opts rados.ReqOpts, span string) {
	l.Opts = opts
	l.Span = f.Trace.Begin(opts.Trace, span)
	l.Issue()
}

// landed returns the leg to the pool and accounts its ack; the last one
// recycles the op and then completes the caller (in that order — the
// caller may immediately issue a new request that reuses both).
func (fl *fanLeg) landed(l *rados.Leg) {
	f, op, err := fl.f, fl.op, l.Err
	l.Release()
	fl.op = nil
	f.legFree = append(f.legFree, fl)
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	if op.remaining--; op.remaining > 0 {
		return
	}
	done, ecDone, nd := op.done, op.ecDone, op.needDecode
	err = op.firstErr
	op.firstErr, op.done, op.ecDone = nil, nil, nil
	f.free = append(f.free, op)
	if ecDone != nil {
		ecDone(nd, err)
		return
	}
	done(err)
}

// retry runs attempt through the retry policy. Each attempt gets a
// "fanout-attempt" span that its target spans nest under; unlike the
// primary-copy client, the card adds no event hop around an attempt.
func (f *Fanout) retry(isWrite bool, opts rados.ReqOpts, done func(error), attempt func(try int, opts rados.ReqOpts, done func(error))) {
	f.Retry.Run(f.Cluster.Eng, f.Trace, "fanout-attempt", isWrite, opts.Trace, func(try int, atr trace.Ref, adone func([]byte, error)) {
		aopts := opts
		aopts.Trace = atr
		attempt(try, aopts, func(err error) { adone(nil, err) })
	}, func(_ []byte, err error) { done(err) })
}

// WriteReplicated sends n bytes to every up member of the object's acting
// set in parallel and completes when all acks return. With repl-raft
// selected the write is instead routed to the object's Raft group and
// completes when the entry commits on a majority.
func (f *Fanout) WriteReplicated(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Retry != nil {
		f.retry(true, opts, done, func(_ int, o rados.ReqOpts, cb func(error)) {
			f.writeReplicated(pool, obj, off, n, o, cb)
		})
		return
	}
	f.writeReplicated(pool, obj, off, n, opts, done)
}

func (f *Fanout) writeReplicated(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Repl != nil && pool == f.Repl.Pool() {
		f.Repl.Write(obj, off, n, opts, done)
		return
	}
	acting, ranks, err := f.writeTargets(pool, obj)
	if err != nil {
		done(err)
		return
	}
	op := f.start(len(ranks), done, nil)
	for _, rank := range ranks {
		l := f.leg(op, acting[rank])
		l.Kind, l.Obj, l.Off, l.Data, l.N = rados.OpWrite, obj, off, rados.Zeros(n), 0
		f.send(l, opts, "replica-write")
	}
}

// ReadReplicated fetches n bytes from the acting primary — or, with
// repl-raft selected, from the group leader under its lease. Under a retry
// policy, attempt k fails over to the k-th up replica.
func (f *Fanout) ReadReplicated(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Retry != nil {
		f.retry(false, opts, done, func(try int, o rados.ReqOpts, cb func(error)) {
			f.readReplicated(pool, obj, off, n, o, try, cb)
		})
		return
	}
	f.readReplicated(pool, obj, off, n, opts, 0, done)
}

func (f *Fanout) readReplicated(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, shift int, done func(error)) {
	if f.Repl != nil && pool == f.Repl.Pool() {
		// repl-raft: the router rotates targets itself when the leader hint
		// goes stale; replica-shift failover belongs to primary-copy.
		f.Repl.Read(obj, off, n, opts, done)
		return
	}
	c := f.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(err)
		return
	}
	osd, failover, err := c.ReadTarget(obj, acting, shift)
	if err != nil {
		done(err)
		return
	}
	if failover {
		f.Retry.Failover(f.Trace, opts.Trace)
	}
	l := f.leg(f.start(1, done, nil), osd)
	l.Kind, l.Obj, l.Off, l.Data, l.N = rados.OpRead, obj, off, nil, n
	f.send(l, opts, "replica-read")
}

// WriteEC sends one shard of size ceil(n/k) to each up acting rank in
// parallel (the client has already erasure-encoded the stripe).
func (f *Fanout) WriteEC(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Retry != nil {
		f.retry(true, opts, done, func(_ int, o rados.ReqOpts, cb func(error)) {
			f.writeEC(pool, obj, off, n, o, cb)
		})
		return
	}
	f.writeEC(pool, obj, off, n, opts, done)
}

func (f *Fanout) writeEC(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if pool.Kind != rados.ECPool {
		done(fmt.Errorf("core: WriteEC on non-EC pool %q", pool.Name))
		return
	}
	acting, ranks, err := f.writeTargets(pool, obj)
	if err != nil {
		done(err)
		return
	}
	shardSize := (n + pool.K - 1) / pool.K
	op := f.start(len(ranks), done, nil)
	for _, rank := range ranks {
		l := f.leg(op, acting[rank])
		l.Kind, l.Obj, l.Off, l.Data, l.N = rados.OpWrite, rados.ShardKey(obj, off, rank), 0, rados.Zeros(shardSize), 0
		f.send(l, opts, "ec-shard-write")
	}
}

// writeTargets places obj and chooses its write targets' ranks, in the
// Fanout's scratch slice.
func (f *Fanout) writeTargets(pool *rados.Pool, obj string) (acting, ranks []int, err error) {
	c := f.Cluster
	if acting, err = c.ActingSet(pool, c.PGOf(pool, obj)); err != nil {
		return nil, nil, err
	}
	f.ranks, err = c.WriteTargets(f.ranks, pool, obj, acting)
	return acting, f.ranks, err
}

// ReadEC gathers k shards in parallel (data ranks preferred) and completes
// when the slowest arrives. needDecode is reported so the caller can charge
// reconstruction when parity shards were needed; under a retry policy it
// reports whether any attempt needed them, and each such attempt is
// counted as a degraded read.
func (f *Fanout) ReadEC(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(needDecode bool, err error)) {
	if f.Retry == nil {
		f.readEC(pool, obj, off, n, opts, done)
		return
	}
	degraded := false
	f.retry(false, opts, func(err error) { done(degraded, err) }, func(_ int, o rados.ReqOpts, cb func(error)) {
		f.readEC(pool, obj, off, n, o, func(needDecode bool, err error) {
			if needDecode {
				degraded = true
				f.Retry.Degraded()
			}
			cb(err)
		})
	})
}

func (f *Fanout) readEC(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(needDecode bool, err error)) {
	if pool.Kind != rados.ECPool {
		done(false, fmt.Errorf("core: ReadEC on non-EC pool %q", pool.Name))
		return
	}
	c := f.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(false, err)
		return
	}
	var needDecode bool
	f.ranks, needDecode, err = c.ECReadSources(f.ranks, pool, obj, acting)
	if err != nil {
		done(needDecode, err)
		return
	}
	shardSize := (n + pool.K - 1) / pool.K
	op := f.start(len(f.ranks), nil, done)
	op.needDecode = needDecode
	for _, rank := range f.ranks {
		l := f.leg(op, acting[rank])
		l.Kind, l.Obj, l.Off, l.Data, l.N = rados.OpRead, rados.ShardKey(obj, off, rank), 0, nil, shardSize
		f.send(l, opts, "ec-shard-read")
	}
}
