package core

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/raft"
	"repro/internal/trace"
)

// Fanout issues object operations from a client-side endpoint directly to
// the acting OSDs — the DeLiBA protocol. Unlike the software Ceph baseline
// (rados.Client), there is no primary-copy hop: the client (host CPU for
// DeLiBA-1, FPGA card for DeLiBA-2/-K) replicates or shards itself and
// talks to every OSD in parallel.
//
// The issue paths are allocation-free in steady state: per-operation state
// lives in pooled op structs whose callback closures are bound once at
// construction, acting-set filtering reuses a scratch slice, and EC shard
// keys are built with the rados append-style builders. Like the engine it
// feeds, a Fanout is single-threaded; its freelists and scratch buffers
// are unsynchronised on purpose.
type Fanout struct {
	Cluster *rados.Cluster
	From    *netsim.Host
	// Res, when non-nil, arms the resilient entry points (the *R methods in
	// resilience.go): deadlines, retries and read failover.
	Res *Resilience
	// Trace, when non-nil, records a per-target span (issue → ack) for
	// traced ops, so the critical path can name the slowest replica/shard.
	Trace *trace.Sink
	// Raft, when non-nil, routes replicated I/O for its pool through the
	// per-PG Raft backend (repl-raft) instead of the primary-copy fan-out;
	// other pools and EC stripes keep the paths below.
	Raft *raft.Router

	up       []int // scratch: up members of the current acting set
	replFree []*replOp
	readFree []*readOp
	ecwFree  []*ecWriteOp
	ecrFree  []*ecReadOp
}

// --- replicated write --------------------------------------------------

// replOp is the in-flight state of one replicated fan-out write. Ops are
// pooled on the Fanout; each holds its own pooled targets whose closures
// were bound to the target struct once, so reissue costs no allocation.
type replOp struct {
	f         *Fanout
	opts      rados.ReqOpts
	obj       string
	off, n    int
	remaining int
	firstErr  error
	done      func(error)
	targets   []*replTarget
}

// replTarget is one replica destination of a replOp. send fires on fabric
// arrival at the OSD's node, onResult when the OSD completes, ack when the
// ack hops back to the client.
type replTarget struct {
	op   *replOp
	osd  int
	node *netsim.Host
	err  error
	span trace.H

	send     func()
	onResult func(rados.Result)
	ack      func()
}

// target returns the i-th pooled target, growing the pool on first use.
func (op *replOp) target(i int) *replTarget {
	for len(op.targets) <= i {
		t := &replTarget{op: op}
		t.send = func() {
			o := t.op
			sopts := o.opts
			if t.span.On() {
				sopts.Trace = t.span.Ref()
			}
			o.f.Cluster.OSDs[t.osd].SubmitOpts(sopts, rados.OpWrite, o.obj, o.off, rados.Zeros(o.n), 0, t.onResult)
		}
		t.onResult = func(r rados.Result) {
			t.err = r.Err
			o := t.op
			o.f.Cluster.Fabric.Send(t.node, o.f.From, rados.HdrBytes, t.ack)
		}
		t.ack = func() {
			t.span.End()
			t.span = trace.H{}
			t.op.finish(t.err)
		}
		op.targets = append(op.targets, t)
	}
	return op.targets[i]
}

// finish accounts one completed replica; the last one recycles the op and
// then invokes done (in that order — done may immediately issue a new op
// that reuses this struct).
func (op *replOp) finish(err error) {
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	op.remaining--
	if op.remaining == 0 {
		done, ferr := op.done, op.firstErr
		op.done, op.firstErr, op.obj = nil, nil, ""
		op.f.replFree = append(op.f.replFree, op)
		done(ferr)
	}
}

func (f *Fanout) getRepl() *replOp {
	if n := len(f.replFree); n > 0 {
		op := f.replFree[n-1]
		f.replFree[n-1] = nil
		f.replFree = f.replFree[:n-1]
		return op
	}
	return &replOp{f: f}
}

// upSet filters the acting set's up members into the scratch slice.
func (f *Fanout) upSet(acting []int) []int {
	c := f.Cluster
	f.up = f.up[:0]
	for _, o := range acting {
		if o != crush.ItemNone && c.OSDs[o].Up() {
			f.up = append(f.up, o)
		}
	}
	return f.up
}

// WriteReplicated sends n bytes to every up member of the object's acting
// set in parallel and completes when all acks return. With repl-raft
// selected the write is instead routed to the object's Raft group and
// completes when the entry commits on a majority.
func (f *Fanout) WriteReplicated(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Raft != nil && pool == f.Raft.Sys.Pool {
		f.Raft.Write(obj, off, n, opts, done)
		return
	}
	c := f.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(err)
		return
	}
	up := f.upSet(acting)
	if len(up) == 0 {
		done(fmt.Errorf("core: pg for %q has no up replicas", obj))
		return
	}
	op := f.getRepl()
	op.opts, op.obj, op.off, op.n = opts, obj, off, n
	op.remaining, op.firstErr, op.done = len(up), nil, done
	for i, o := range up {
		t := op.target(i)
		t.osd, t.node, t.err = o, c.NodeOf(o), nil
		t.span = f.Trace.Begin(opts.Trace, "replica-write")
		c.Fabric.Send(f.From, t.node, rados.HdrBytes+n, t.send)
	}
}

// --- replicated read ---------------------------------------------------

// readOp is the in-flight state of one primary read.
type readOp struct {
	f    *Fanout
	opts rados.ReqOpts
	obj  string
	off  int
	n    int
	osd  int
	node *netsim.Host
	err  error
	span trace.H
	done func(error)

	send     func()
	onResult func(rados.Result)
	ack      func()
}

func (f *Fanout) getRead() *readOp {
	if n := len(f.readFree); n > 0 {
		op := f.readFree[n-1]
		f.readFree[n-1] = nil
		f.readFree = f.readFree[:n-1]
		return op
	}
	op := &readOp{f: f}
	op.send = func() {
		sopts := op.opts
		if op.span.On() {
			sopts.Trace = op.span.Ref()
		}
		op.f.Cluster.OSDs[op.osd].SubmitOpts(sopts, rados.OpRead, op.obj, op.off, nil, op.n, op.onResult)
	}
	op.onResult = func(r rados.Result) {
		op.err = r.Err
		op.f.Cluster.Fabric.Send(op.node, op.f.From, rados.HdrBytes+op.n, op.ack)
	}
	op.ack = func() {
		op.span.End()
		op.span = trace.H{}
		done, err := op.done, op.err
		op.done, op.err, op.obj = nil, nil, ""
		op.f.readFree = append(op.f.readFree, op)
		done(err)
	}
	return op
}

// ReadReplicated fetches n bytes from the acting primary — or, with
// repl-raft selected, from the group leader under its lease.
func (f *Fanout) ReadReplicated(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	if f.Raft != nil && pool == f.Raft.Sys.Pool {
		f.Raft.Read(obj, off, n, opts, done)
		return
	}
	c := f.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(err)
		return
	}
	primary, ok := c.PrimaryFor(acting)
	if !ok {
		done(fmt.Errorf("core: pg for %q has no up replicas", obj))
		return
	}
	op := f.getRead()
	op.opts, op.obj, op.off, op.n = opts, obj, off, n
	op.osd, op.node, op.err, op.done = primary, c.NodeOf(primary), nil, done
	op.span = f.Trace.Begin(opts.Trace, "replica-read")
	c.Fabric.Send(f.From, op.node, rados.HdrBytes, op.send)
}

// --- EC write ----------------------------------------------------------

// ecWriteOp is the in-flight state of one EC stripe write.
type ecWriteOp struct {
	f         *Fanout
	opts      rados.ReqOpts
	shardSize int
	remaining int
	firstErr  error
	done      func(error)
	targets   []*ecTarget
}

// ecTarget is one shard destination. key is rebuilt into keyBuf per issue;
// the string conversion at the store boundary is the EC path's one
// remaining per-shard allocation.
type ecTarget struct {
	op     *ecWriteOp
	osd    int
	node   *netsim.Host
	key    string
	keyBuf []byte
	err    error
	span   trace.H

	send     func()
	onResult func(rados.Result)
	ack      func()
}

func (op *ecWriteOp) target(i int) *ecTarget {
	for len(op.targets) <= i {
		t := &ecTarget{op: op}
		t.send = func() {
			o := t.op
			sopts := o.opts
			if t.span.On() {
				sopts.Trace = t.span.Ref()
			}
			o.f.Cluster.OSDs[t.osd].SubmitOpts(sopts, rados.OpWrite, t.key, 0, rados.Zeros(o.shardSize), 0, t.onResult)
		}
		t.onResult = func(r rados.Result) {
			t.err = r.Err
			o := t.op
			o.f.Cluster.Fabric.Send(t.node, o.f.From, rados.HdrBytes, t.ack)
		}
		t.ack = func() {
			t.span.End()
			t.span = trace.H{}
			t.op.finish(t.err)
		}
		op.targets = append(op.targets, t)
	}
	return op.targets[i]
}

func (op *ecWriteOp) finish(err error) {
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	op.remaining--
	if op.remaining == 0 {
		done, ferr := op.done, op.firstErr
		op.done, op.firstErr = nil, nil
		for _, t := range op.targets {
			t.key = ""
		}
		op.f.ecwFree = append(op.f.ecwFree, op)
		done(ferr)
	}
}

func (f *Fanout) getECWrite() *ecWriteOp {
	if n := len(f.ecwFree); n > 0 {
		op := f.ecwFree[n-1]
		f.ecwFree[n-1] = nil
		f.ecwFree = f.ecwFree[:n-1]
		return op
	}
	return &ecWriteOp{f: f}
}

// WriteEC sends one shard of size ceil(n/k) to each up acting rank in
// parallel (the client has already erasure-encoded the stripe).
func (f *Fanout) WriteEC(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	c := f.Cluster
	if pool.Kind != rados.ECPool {
		done(fmt.Errorf("core: WriteEC on non-EC pool %q", pool.Name))
		return
	}
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(err)
		return
	}
	shardSize := (n + pool.K - 1) / pool.K
	upCount := 0
	for _, o := range acting {
		if o != crush.ItemNone && c.OSDs[o].Up() {
			upCount++
		}
	}
	if upCount < pool.K {
		done(fmt.Errorf("core: pg for %q has %d up shards, need >= %d", obj, upCount, pool.K))
		return
	}
	op := f.getECWrite()
	op.opts, op.shardSize = opts, shardSize
	op.remaining, op.firstErr, op.done = upCount, nil, done
	i := 0
	for rank, o := range acting {
		if o == crush.ItemNone || !c.OSDs[o].Up() {
			continue
		}
		t := op.target(i)
		i++
		t.keyBuf = rados.AppendShardKey(t.keyBuf[:0], obj, off, rank)
		t.key = string(t.keyBuf)
		t.osd, t.node, t.err = o, c.NodeOf(o), nil
		t.span = f.Trace.Begin(opts.Trace, "ec-shard-write")
		c.Fabric.Send(f.From, t.node, rados.HdrBytes+shardSize, t.send)
	}
}

// --- EC read -----------------------------------------------------------

// ecReadOp is the in-flight state of one EC stripe read (k-shard gather).
type ecReadOp struct {
	f          *Fanout
	opts       rados.ReqOpts
	shardSize  int
	remaining  int
	needDecode bool
	firstErr   error
	done       func(needDecode bool, err error)
	targets    []*ecReadTarget
}

type ecReadTarget struct {
	op     *ecReadOp
	osd    int
	node   *netsim.Host
	key    string
	keyBuf []byte
	err    error
	span   trace.H

	send     func()
	onResult func(rados.Result)
	ack      func()
}

func (op *ecReadOp) target(i int) *ecReadTarget {
	for len(op.targets) <= i {
		t := &ecReadTarget{op: op}
		t.send = func() {
			o := t.op
			sopts := o.opts
			if t.span.On() {
				sopts.Trace = t.span.Ref()
			}
			o.f.Cluster.OSDs[t.osd].SubmitOpts(sopts, rados.OpRead, t.key, 0, nil, o.shardSize, t.onResult)
		}
		t.onResult = func(r rados.Result) {
			t.err = r.Err
			o := t.op
			o.f.Cluster.Fabric.Send(t.node, o.f.From, rados.HdrBytes+o.shardSize, t.ack)
		}
		t.ack = func() {
			t.span.End()
			t.span = trace.H{}
			t.op.finish(t.err)
		}
		op.targets = append(op.targets, t)
	}
	return op.targets[i]
}

func (op *ecReadOp) finish(err error) {
	if err != nil && op.firstErr == nil {
		op.firstErr = err
	}
	op.remaining--
	if op.remaining == 0 {
		done, ferr, nd := op.done, op.firstErr, op.needDecode
		op.done, op.firstErr = nil, nil
		for _, t := range op.targets {
			t.key = ""
		}
		op.f.ecrFree = append(op.f.ecrFree, op)
		done(nd, ferr)
	}
}

func (f *Fanout) getECRead() *ecReadOp {
	if n := len(f.ecrFree); n > 0 {
		op := f.ecrFree[n-1]
		f.ecrFree[n-1] = nil
		f.ecrFree = f.ecrFree[:n-1]
		return op
	}
	return &ecReadOp{f: f}
}

// ReadEC gathers k shards in parallel (data ranks preferred) and completes
// when the slowest arrives. needDecode is reported so the caller can charge
// reconstruction when parity shards were needed.
func (f *Fanout) ReadEC(pool *rados.Pool, obj string, off, n int, opts rados.ReqOpts, done func(needDecode bool, err error)) {
	c := f.Cluster
	if pool.Kind != rados.ECPool {
		done(false, fmt.Errorf("core: ReadEC on non-EC pool %q", pool.Name))
		return
	}
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(false, err)
		return
	}
	shardSize := (n + pool.K - 1) / pool.K
	op := f.getECRead()
	op.opts, op.shardSize = opts, shardSize

	// Choose k source ranks, preferring the data shards so no decode is
	// needed on the healthy path. Targets double as the source list.
	srcs := 0
	for rank := 0; rank < pool.K && srcs < pool.K; rank++ {
		if o := acting[rank]; o != crush.ItemNone && c.OSDs[o].Up() {
			t := op.target(srcs)
			srcs++
			t.keyBuf = rados.AppendShardKey(t.keyBuf[:0], obj, off, rank)
			t.osd = o
		}
	}
	op.needDecode = srcs < pool.K
	for rank := pool.K; rank < pool.K+pool.M && srcs < pool.K; rank++ {
		if o := acting[rank]; o != crush.ItemNone && c.OSDs[o].Up() {
			t := op.target(srcs)
			srcs++
			t.keyBuf = rados.AppendShardKey(t.keyBuf[:0], obj, off, rank)
			t.osd = o
		}
	}
	if srcs < pool.K {
		nd := op.needDecode
		op.f.ecrFree = append(op.f.ecrFree, op)
		done(nd, fmt.Errorf("core: pg for %q has too few up shards", obj))
		return
	}
	op.remaining, op.firstErr, op.done = srcs, nil, done
	for i := 0; i < srcs; i++ {
		t := op.targets[i]
		t.key = string(t.keyBuf)
		t.node, t.err = c.NodeOf(t.osd), nil
		t.span = f.Trace.Begin(opts.Trace, "ec-shard-read")
		c.Fabric.Send(f.From, t.node, rados.HdrBytes, t.send)
	}
}
