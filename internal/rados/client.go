package rados

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Repl is a pluggable replication protocol for one replicated pool (the
// per-PG Raft backend in internal/raft implements it). The client routes
// requests for the protocol's pool through it instead of the primary-copy
// paths; every other pool is untouched. Implementations complete done from
// fabric arrivals on the client's engine, like the client's own callbacks.
type Repl interface {
	// Pool returns the pool this protocol replicates.
	Pool() *Pool
	// Write commits n bytes at (obj, off) and completes done.
	Write(obj string, off, n int, opts ReqOpts, done func(error))
	// Read fetches n bytes at (obj, off) and completes done.
	Read(obj string, off, n int, opts ReqOpts, done func(error))
}

// Client executes object operations against a Cluster using the software
// primary-copy protocol (the Ceph baseline): the client talks to the acting
// primary, which fans replication or erasure shards out to the other acting
// OSDs. Host-side API costs (io_uring vs. NBD, context switches) are NOT
// charged here — they belong to the framework stacks in internal/core.
type Client struct {
	Cluster *Cluster
	Host    *netsim.Host

	// PlacementCost is the client CPU time to compute CRUSH placement per
	// operation (the software CRUSH kernel; 0 when an accelerator owns it).
	PlacementCost sim.Duration
	// ECEncodeCost returns the primary's CPU time to erasure-encode n
	// bytes; ECDecodeCost the time to reconstruct n bytes.
	ECEncodeCost func(n int) sim.Duration
	// ECDecodeCost is charged when a read needs parity reconstruction.
	ECDecodeCost func(n int) sim.Duration
	// Functional controls whether payload bytes are really moved through
	// the erasure codec and stores. Benchmarks switch it off to model
	// timing over synthetic payloads without the memory traffic.
	Functional bool
	// Retry, when non-nil, arms deadlines, retries and read failover.
	Retry *RetryPolicy
	// Repl, when non-nil, routes requests for Repl.Pool() through an
	// alternative replication protocol (repl-raft); other pools keep the
	// primary-copy paths. Unsupported on a split-domain client.
	Repl Repl
	// TraceSink, when non-nil, receives client-side recovery spans
	// (retry attempts, read failovers, degraded-read decodes) for traced
	// ops. It must belong to the client's own domain; split-domain mode
	// never touches it from OSD-side arrivals because retries, failover
	// and EC are all rejected there.
	TraceSink *trace.Sink

	// Split routes replicated I/O through the arrival-driven split-domain
	// protocol: the client host and the OSD nodes live in different
	// topology domains of a sharded engine group, so no completion or
	// queue state may be touched across the boundary. Erasure pools,
	// retries and fault injection are unsupported in this mode.
	Split bool
	// Eng is the engine the client's continuations run on; nil means the
	// cluster's engine (the single-domain default).
	Eng *sim.Engine

	free  []*clientOp // recycled data-path op records
	ranks []int       // scratch: target ranks of the request being issued
}

// NewClient attaches a client host to the cluster's fabric.
func NewClient(c *Cluster, name string, bitsPerSec float64, stack netsim.StackCost) (*Client, error) {
	h, err := c.Fabric.AddHost(name, bitsPerSec, stack)
	if err != nil {
		return nil, err
	}
	return &Client{
		Cluster:      c,
		Host:         h,
		ECEncodeCost: func(n int) sim.Duration { return 10*sim.Microsecond + sim.Duration(n/1024)*200*sim.Nanosecond },
		ECDecodeCost: func(n int) sim.Duration { return 12*sim.Microsecond + sim.Duration(n/1024)*250*sim.Nanosecond },
		Functional:   true,
	}, nil
}

func (cl *Client) fabric() *netsim.Fabric { return cl.Cluster.Fabric }

// eng returns the engine the client's continuations run on.
func (cl *Client) eng() *sim.Engine {
	if cl.Eng != nil {
		return cl.Eng
	}
	return cl.Cluster.Eng
}

// Write stores data at (obj, off) in the pool and returns when the write is
// durable on all reachable placement targets. It blocks the proc on
// WriteAsync and resumes it inside the event that completes the write.
func (cl *Client) Write(p *sim.Proc, pool *Pool, obj string, off int, data []byte) error {
	var err error
	p.Block(func(wake func()) {
		cl.WriteAsync(pool, obj, off, data, ReqOpts{}, func(e error) {
			err = e
			wake()
		})
	})
	return err
}

// Read returns n bytes at (obj, off); see ReadAsync for the result's
// lifetime.
func (cl *Client) Read(p *sim.Proc, pool *Pool, obj string, off, n int) ([]byte, error) {
	var data []byte
	var err error
	p.Block(func(wake func()) {
		cl.ReadAsync(pool, obj, off, n, ReqOpts{}, func(d []byte, e error) {
			data, err = d, e
			wake()
		})
	})
	return data, err
}

// WriteAsync stores data at (obj, off) in the pool and calls done once the
// write is durable on all reachable placement targets. done runs inside
// the event that completes the write, or synchronously when the write
// fails before anything is sent (no placement, too few up members).
func (cl *Client) WriteAsync(pool *Pool, obj string, off int, data []byte, opts ReqOpts, done func(error)) {
	if cl.Split {
		if pool.Kind == ECPool {
			done(fmt.Errorf("rados: erasure pools are not supported on a split-domain client"))
			return
		}
		cl.writeReplicatedSplit(pool, obj, off, data, opts, done)
		return
	}
	if cl.Retry == nil {
		cl.writeAttempt(pool, obj, off, data, opts, done)
		return
	}
	cl.Retry.Run(cl.eng(), cl.TraceSink, "rados-attempt", true, opts.Trace, cl.hopped(func(_ int, atr trace.Ref, adone func([]byte, error)) {
		aopts := opts
		aopts.Trace = atr
		cl.writeAttempt(pool, obj, off, data, aopts, func(err error) { adone(nil, err) })
	}), func(_ []byte, err error) { done(err) })
}

// writeAttempt issues one write through the pool's protocol.
func (cl *Client) writeAttempt(pool *Pool, obj string, off int, data []byte, opts ReqOpts, done func(error)) {
	switch {
	case cl.Repl != nil && pool == cl.Repl.Pool():
		cl.replWrite(obj, off, len(data), opts, done)
	case pool.Kind == ECPool:
		cl.writeEC(pool, obj, off, data, opts, done)
	default:
		cl.writeReplicated(pool, obj, off, data, opts, done)
	}
}

// ReadAsync fetches n bytes at (obj, off) and calls done with them, with
// the same timing of done as WriteAsync. The result is read-only: it may
// be a store's shared scratch buffer or a view of the shared zero slab
// (see Zeros), valid until the next read.
func (cl *Client) ReadAsync(pool *Pool, obj string, off, n int, opts ReqOpts, done func([]byte, error)) {
	if cl.Split {
		if pool.Kind == ECPool {
			done(nil, fmt.Errorf("rados: erasure pools are not supported on a split-domain client"))
			return
		}
		cl.readReplicatedSplit(pool, obj, off, n, opts, done)
		return
	}
	if cl.Retry == nil {
		cl.readAttempt(pool, obj, off, n, opts, 0, done)
		return
	}
	cl.Retry.Run(cl.eng(), cl.TraceSink, "rados-attempt", false, opts.Trace, cl.hopped(func(try int, atr trace.Ref, adone func([]byte, error)) {
		aopts := opts
		aopts.Trace = atr
		cl.readAttempt(pool, obj, off, n, aopts, try, adone)
	}), done)
}

// hopped starts a retry attempt one event after the driver issues it and
// hands its result back one event after it completes: the completion hops
// of the proc-based client, kept so event order is unchanged.
func (cl *Client) hopped(attempt func(try int, atr trace.Ref, done func([]byte, error))) func(int, trace.Ref, func([]byte, error)) {
	eng := cl.eng()
	return func(try int, atr trace.Ref, done func([]byte, error)) {
		eng.Schedule(0, func() {
			attempt(try, atr, func(data []byte, err error) {
				eng.Schedule(0, func() { done(data, err) })
			})
		})
	}
}

// readAttempt issues one read through the pool's protocol; shift picks the
// replica (see Cluster.ReadTarget).
func (cl *Client) readAttempt(pool *Pool, obj string, off, n int, opts ReqOpts, shift int, done func([]byte, error)) {
	switch {
	case cl.Repl != nil && pool == cl.Repl.Pool():
		cl.replRead(obj, off, n, opts, done)
	case pool.Kind == ECPool:
		cl.readEC(pool, obj, off, n, opts, done)
	default:
		cl.readReplicated(pool, obj, off, n, opts, shift, done)
	}
}

// afterPlacement charges the client's CRUSH placement time, then runs k.
func (cl *Client) afterPlacement(k func()) {
	if cl.PlacementCost > 0 {
		cl.eng().Schedule(cl.PlacementCost, k)
		return
	}
	k()
}

// replWrite routes a write through the pluggable replication protocol.
// Placement is still charged here — the protocol router computes PG
// placement just like the primary-copy path.
func (cl *Client) replWrite(obj string, off, n int, opts ReqOpts, done func(error)) {
	cl.afterPlacement(func() {
		cl.eng().AwaitFunc(func(cb func(error)) { cl.Repl.Write(obj, off, n, opts, cb) }, done)
	})
}

// replRead routes a read through the pluggable replication protocol. The
// protocol layer is a timing/availability model over synthetic payloads, so
// the client hands back zeros of the requested length.
func (cl *Client) replRead(obj string, off, n int, opts ReqOpts, done func([]byte, error)) {
	cl.afterPlacement(func() {
		cl.eng().AwaitFunc(func(cb func(error)) { cl.Repl.Read(obj, off, n, opts, cb) }, func(err error) {
			if err != nil {
				done(nil, err)
				return
			}
			done(Zeros(n), nil)
		})
	})
}

func (cl *Client) writeReplicated(pool *Pool, obj string, off int, data []byte, opts ReqOpts, done func(error)) {
	c := cl.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(err)
		return
	}
	cl.ranks, err = c.WriteTargets(cl.ranks, pool, obj, acting)
	if err != nil {
		done(err)
		return
	}
	op := cl.getOp(pool, true)
	for i, rank := range cl.ranks {
		// Every up member is a leg; the first is the primary, which
		// writes locally while replicating to the others.
		l := op.leg()
		l.OSD, l.Local = acting[rank], i == 0
		l.Kind, l.Obj, l.Off, l.Data, l.N = OpWrite, obj, off, data, 0
	}
	op.data, op.opts, op.writeDone = data, opts, done
	op.pNode = c.NodeOf(op.legs[0].OSD)
	op.advance()
}

// writeReplicatedSplit is the replicated write on a split-domain
// deployment. Every piece of OSD-side work runs inside a fabric arrival
// on the OSD shard; follower acks are counted at the primary rather than
// awaited on the client, and the client observes exactly one arrival, the
// final primary→client ack on its own shard. Fault injection is rejected
// in split mode, so the acting set is taken as healthy (no up/down
// filtering — reading OSD state from the host shard would cross the domain
// boundary).
func (cl *Client) writeReplicatedSplit(pool *Pool, obj string, off int, data []byte, opts ReqOpts, done func(error)) {
	c := cl.Cluster
	acting, err := c.ActingSetUncached(pool, c.PGOf(pool, obj))
	if err != nil {
		done(err)
		return
	}
	members := acting[:0]
	for _, o := range acting {
		if o != crush.ItemNone {
			members = append(members, o)
		}
	}
	if len(members) == 0 {
		done(fmt.Errorf("rados: pg for %q has no placed replicas", obj))
		return
	}
	cl.afterPlacement(func() {
		primary := members[0]
		pNode := c.NodeOf(primary)
		fab := cl.fabric()
		sent := cl.eng().Now()
		fab.Send(cl.Host, pNode, HdrBytes+len(data), func() {
			// OSD-shard context from here on; spans close against the
			// primary node's own domain clock.
			c.OSDs[primary].traceArrival(opts.Trace, sent)
			remaining := len(members)
			var firstErr error
			ackOne := func(err error) {
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if remaining--; remaining == 0 {
					e := firstErr
					fab.Send(pNode, cl.Host, HdrBytes, func() {
						cl.eng().Schedule(0, func() { done(e) })
					})
				}
			}
			c.OSDs[primary].SubmitOpts(opts, OpWrite, obj, off, data, 0, func(r Result) {
				ackOne(r.Err)
			})
			for _, o := range members[1:] {
				o := o
				oNode := c.NodeOf(o)
				fab.Send(pNode, oNode, HdrBytes+len(data), func() {
					c.OSDs[o].SubmitOpts(opts, OpWrite, obj, off, data, 0, func(r Result) {
						fab.Send(oNode, pNode, HdrBytes, func() { ackOne(r.Err) })
					})
				})
			}
		})
	})
}

// readReplicatedSplit is the primary read on a split-domain deployment:
// arrival-driven like writeReplicatedSplit, with the payload handed back
// to the host shard inside the response message.
func (cl *Client) readReplicatedSplit(pool *Pool, obj string, off, n int, opts ReqOpts, done func([]byte, error)) {
	c := cl.Cluster
	acting, err := c.ActingSetUncached(pool, c.PGOf(pool, obj))
	if err != nil {
		done(nil, err)
		return
	}
	primary := crush.ItemNone
	for _, o := range acting {
		if o != crush.ItemNone {
			primary = o
			break
		}
	}
	if primary == crush.ItemNone {
		done(nil, fmt.Errorf("rados: pg for %q has no placed replicas", obj))
		return
	}
	cl.afterPlacement(func() {
		pNode := c.NodeOf(primary)
		fab := cl.fabric()
		sent := cl.eng().Now()
		reply := func(data []byte, err error) {
			cl.eng().Schedule(0, func() { done(data, err) })
		}
		fab.Send(cl.Host, pNode, HdrBytes, func() {
			c.OSDs[primary].traceArrival(opts.Trace, sent)
			c.OSDs[primary].SubmitOpts(opts, OpRead, obj, off, nil, n, func(r Result) {
				if r.Err != nil {
					rerr := r.Err
					fab.Send(pNode, cl.Host, HdrBytes, func() { reply(nil, rerr) })
					return
				}
				data := r.Data
				fab.Send(pNode, cl.Host, HdrBytes+n, func() { reply(data, nil) })
			})
		})
	})
}

// readReplicated reads from the replica Cluster.ReadTarget picks for shift
// (retry attempt shift fails over to the shift-th up replica).
func (cl *Client) readReplicated(pool *Pool, obj string, off, n int, opts ReqOpts, shift int, done func([]byte, error)) {
	c := cl.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(nil, err)
		return
	}
	osd, failover, err := c.ReadTarget(obj, acting, shift)
	if err != nil {
		done(nil, err)
		return
	}
	if failover {
		cl.Retry.Failover(cl.TraceSink, opts.Trace)
	}
	op := cl.getOp(pool, false)
	op.n, op.opts, op.readDone = n, opts, done
	op.pNode = c.NodeOf(osd)
	l := op.leg()
	l.OSD, l.Local = osd, true
	l.Kind, l.Obj, l.Off, l.Data, l.N = OpRead, obj, off, nil, n
	op.advance()
}

func (cl *Client) writeEC(pool *Pool, obj string, off int, data []byte, opts ReqOpts, done func(error)) {
	c := cl.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(err)
		return
	}
	cl.ranks, err = c.WriteTargets(cl.ranks, pool, obj, acting)
	if err != nil {
		done(err)
		return
	}
	op := cl.getOp(pool, true)
	op.obj, op.off, op.data, op.opts, op.writeDone = obj, off, data, opts, done
	op.acting = acting
	op.primary = acting[cl.ranks[0]]
	op.pNode = c.NodeOf(op.primary)
	op.advance()
}

func (cl *Client) readEC(pool *Pool, obj string, off, n int, opts ReqOpts, done func([]byte, error)) {
	c := cl.Cluster
	acting, err := c.ActingSet(pool, c.PGOf(pool, obj))
	if err != nil {
		done(nil, err)
		return
	}
	primary, _, err := c.ReadTarget(obj, acting, 0)
	if err != nil {
		done(nil, err)
		return
	}
	op := cl.getOp(pool, false)
	op.obj, op.off, op.n, op.opts, op.readDone = obj, off, n, opts, done
	op.acting, op.primary, op.pNode = acting, primary, c.NodeOf(primary)
	op.advance()
}

// zeroSlab backs Zeros. It is never written or reassigned, so engines on
// parallel runner workers share it without a race.
var zeroSlab = make([]byte, 1<<20)

// Zeros returns n zero bytes for timing-only payloads and results. Up to
// 1 MiB the result is a read-only view of one shared slab (its capacity is
// clipped, so an append copies); larger requests allocate. Stores may
// receive it as a Write payload because Write data is read-only.
func Zeros(n int) []byte {
	if n <= len(zeroSlab) {
		return zeroSlab[:n:n]
	}
	return make([]byte, n)
}
