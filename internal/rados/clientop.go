package rados

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// clientOp is the in-flight state of one primary-copy data-path request: a
// replicated or erasure-coded write or read. All four share one shape, run
// by advance as a stage machine that reads top to bottom like the
// sequential proc code it replaced: placement, the request hop to the
// primary, (EC write) encode, the primary's legs to the acting OSDs, the
// in-order await of the legs, (EC read) decode, the reply hop. Every stage
// either arms exactly one hop that re-enters advance at the next stage, or
// moves on inline.
//
// The hops keep the proc code's event order exactly: a sleep is one
// Schedule(d); a Fabric.SendWait is the Send plus one Schedule(0) after the
// arrival (the old completion hop); awaiting the legs resumes one event
// after the first unobserved leg completes, as a sequential Await loop did.
//
// Ops are pooled on the Client and their callbacks (and those of their
// pooled legs) are bound once at construction, so a warm op allocates only
// what the request itself needs (EC shard keys). Like the engine, a Client
// is single-threaded; its freelist is unsynchronised on purpose.
type clientOp struct {
	cl  *Client
	eng *sim.Engine
	pc  int // stage advance re-enters at
	// step re-enters advance; arrive is a SendWait arrival, which hops one
	// event to step.
	step, arrive func()

	write   bool
	pool    *Pool
	obj     string
	off, n  int
	data    []byte
	opts    ReqOpts
	acting  []int
	primary int
	pNode   *netsim.Host
	decode  bool
	span    trace.H // EC reconstruction span
	out     []byte

	// legs are the primary's sub-requests to the acting OSDs, awaited in
	// order: next is the first one not yet observed, waiting is set while
	// the await is parked on it. inflight counts issued, unfinished legs;
	// a read that stopped at a failed leg is recycled only once the rest
	// are back.
	legs     []*leg
	nlegs    int
	next     int
	waiting  bool
	inflight int
	err      error
	finished bool

	writeDone func(error)
	readDone  func([]byte, error)
}

// Stages of advance.
const (
	stPlace   = iota // charge client CRUSH placement
	stRequest        // request hop client → primary
	stEncode         // EC write: the primary encodes the stripe
	stIssue          // the primary issues its legs
	stGather         // await the legs in order
	stReply          // (EC read: decoded) assemble the result, reply hop
	stDone           // complete the caller
)

// leg is one primary → OSD sub-request of a clientOp: a fabric hop from
// the primary's node (skipped when the OSD is the primary itself), the OSD
// service, and the ack hop back.
type leg struct {
	op       *clientOp
	osd      int
	rank     int
	node     *netsim.Host
	local    bool
	kind     OpType
	obj      string
	off, n   int
	data     []byte
	reqBytes int
	ackBytes int

	fired bool
	err   error
	res   []byte

	send     func()
	onResult func(Result)
	ack      func()
}

func (cl *Client) getOp(pool *Pool, write bool) *clientOp {
	var op *clientOp
	if n := len(cl.free); n > 0 {
		op = cl.free[n-1]
		cl.free[n-1] = nil
		cl.free = cl.free[:n-1]
	} else {
		op = &clientOp{cl: cl}
		op.step = op.advance
		op.arrive = func() { op.eng.Schedule(0, op.step) }
	}
	op.eng, op.pc, op.pool, op.write = cl.eng(), stPlace, pool, write
	return op
}

// advance runs the op's stages from op.pc.
func (op *clientOp) advance() {
	cl := op.cl
	ec := op.pool.Kind == ECPool
	for {
		switch op.pc {
		case stPlace:
			op.pc = stRequest
			if cl.PlacementCost > 0 {
				op.sleep(cl.PlacementCost, stRequest)
				return
			}
		case stRequest:
			n := HdrBytes
			if op.write {
				n += len(op.data)
			}
			op.sendWait(cl.Host, op.pNode, n, stEncode)
			return
		case stEncode:
			op.pc = stIssue
			if ec && op.write {
				op.sleep(cl.ECEncodeCost(len(op.data)), stIssue)
				return
			}
		case stIssue:
			var err error
			switch {
			case ec && op.write:
				err = op.issueECShards()
			case ec:
				err = op.issueECReads()
			default: // replicated: the legs were set up at submission
				for _, l := range op.legs[:op.nlegs] {
					l.issue()
				}
			}
			if err != nil {
				op.finish(nil, err)
				return
			}
			op.pc = stGather
		case stGather:
			if !op.awaitLegs() {
				return
			}
			if !op.write && op.err != nil {
				op.finish(nil, op.err)
				return
			}
			op.pc = stReply
			if op.decode {
				if cl.Retry != nil && cl.Retry.Counters != nil {
					cl.Retry.Counters.DegradedReads++
				}
				op.span = cl.TraceSink.Begin(op.opts.Trace, "ec-decode")
				op.span.Link(trace.KindDegraded, 0)
				op.sleep(cl.ECDecodeCost(op.n), stReply)
				return
			}
		case stReply:
			n := HdrBytes
			if !op.write {
				op.span.End()
				if ec {
					if err := op.assembleEC(); err != nil {
						op.finish(nil, err)
						return
					}
				} else {
					op.out = op.legs[0].res
				}
				n += op.n
			}
			op.sendWait(op.pNode, cl.Host, n, stDone)
			return
		case stDone:
			op.finish(op.out, op.err)
			return
		}
	}
}

// leg returns the op's next leg, growing the pool on first use.
func (op *clientOp) leg() *leg {
	if op.nlegs == len(op.legs) {
		l := &leg{op: op}
		l.send = func() {
			l.op.cl.Cluster.OSDs[l.osd].SubmitOpts(l.op.opts, l.kind, l.obj, l.off, l.data, l.n, l.onResult)
		}
		l.onResult = func(r Result) {
			l.err, l.res = r.Err, r.Data
			if l.local {
				l.fire()
				return
			}
			l.op.cl.fabric().Send(l.node, l.op.pNode, l.ackBytes, l.ack)
		}
		l.ack = l.fire
		op.legs = append(op.legs, l)
	}
	l := op.legs[op.nlegs]
	op.nlegs++
	l.fired, l.err, l.res = false, nil, nil
	return l
}

// issue starts the leg from the primary.
func (l *leg) issue() {
	l.op.inflight++
	if l.local {
		l.send()
		return
	}
	l.op.cl.fabric().Send(l.op.pNode, l.node, l.reqBytes, l.send)
}

// fire records the leg's completion. If the op's await is parked on this
// leg it resumes one event later, like a completion waking its awaiter.
func (l *leg) fire() {
	op := l.op
	l.fired = true
	op.inflight--
	if op.waiting && op.legs[op.next] == l {
		op.waiting = false
		op.eng.Schedule(0, op.step)
	}
	if op.finished && op.inflight == 0 {
		op.recycle()
	}
}

// sleep re-enters the machine at pc after d.
func (op *clientOp) sleep(d sim.Duration, pc int) {
	op.pc = pc
	op.eng.Schedule(d, op.step)
}

// sendWait sends n bytes from src to dst and re-enters the machine at pc
// one event after the receiver has processed them.
func (op *clientOp) sendWait(src, dst *netsim.Host, n, pc int) {
	op.pc = pc
	op.cl.fabric().Send(src, dst, n, op.arrive)
}

// awaitLegs observes the legs in issue order. It reports true once all are
// observed, or, for a read, at the first failed one; otherwise it parks on
// the first unfinished leg, whose completion re-enters the machine at the
// current stage. The first leg error is kept in op.err.
func (op *clientOp) awaitLegs() bool {
	for op.next < op.nlegs {
		l := op.legs[op.next]
		if !l.fired {
			op.waiting = true
			return false
		}
		op.next++
		if l.err != nil {
			if op.err == nil {
				op.err = l.err
			}
			if !op.write {
				return true
			}
		}
	}
	return true
}

// finish completes the caller (writes ignore data). The op is recycled
// first when no leg is still out, since done may issue a new op that
// reuses it.
func (op *clientOp) finish(data []byte, err error) {
	wdone, rdone := op.writeDone, op.readDone
	op.finished = true
	if op.inflight == 0 {
		op.recycle()
	}
	if wdone != nil {
		wdone(err)
		return
	}
	rdone(data, err)
}

func (op *clientOp) recycle() {
	for _, l := range op.legs[:op.nlegs] {
		l.obj, l.data, l.res, l.err = "", nil, nil, nil
	}
	op.pool, op.obj, op.data, op.opts, op.acting, op.out = nil, "", nil, ReqOpts{}, nil, nil
	op.span, op.err, op.writeDone, op.readDone = trace.H{}, nil, nil, nil
	op.nlegs, op.next, op.waiting, op.finished, op.decode = 0, 0, false, false, false
	op.cl.free = append(op.cl.free, op)
}

// issueECShards encodes the stripe (functional mode only) and issues one
// shard write per up acting rank.
func (op *clientOp) issueECShards() error {
	c, pool := op.cl.Cluster, op.pool
	shardSize := (len(op.data) + pool.K - 1) / pool.K
	var shards [][]byte
	if op.cl.Functional {
		shards = pool.Code.Split(op.data)
		if err := pool.Code.Encode(shards); err != nil {
			return err
		}
	}
	for rank, o := range op.acting {
		if o == crush.ItemNone || !c.OSDs[o].Up() {
			continue // degraded write: skip unreachable shard
		}
		payload := Zeros(shardSize) // timing-only: the size is what counts
		if shards != nil {
			payload = shards[rank]
		}
		l := op.leg()
		l.osd, l.node, l.local = o, c.NodeOf(o), o == op.primary
		l.kind, l.obj, l.off, l.data, l.n = OpWrite, ShardKey(op.obj, op.off, rank), 0, payload, 0
		l.reqBytes, l.ackBytes = HdrBytes+shardSize, HdrBytes
		l.issue()
	}
	return nil
}

// issueECReads chooses k source ranks, preferring the data shards, and
// issues one shard read to each.
func (op *clientOp) issueECReads() error {
	c, pool := op.cl.Cluster, op.pool
	shardSize := (op.n + pool.K - 1) / pool.K
	src := func(rank int) {
		o := op.acting[rank]
		if o == crush.ItemNone || !c.OSDs[o].Up() {
			return
		}
		l := op.leg()
		l.osd, l.rank, l.node, l.local = o, rank, c.NodeOf(o), o == op.primary
		l.kind, l.n, l.data, l.off = OpRead, shardSize, nil, 0
		l.reqBytes, l.ackBytes = HdrBytes, HdrBytes+shardSize
	}
	for rank := 0; rank < pool.K && op.nlegs < pool.K; rank++ {
		src(rank)
	}
	op.decode = op.nlegs < pool.K
	for rank := pool.K; rank < pool.K+pool.M && op.nlegs < pool.K; rank++ {
		src(rank)
	}
	if op.nlegs < pool.K {
		return fmt.Errorf("rados: pg for %q has too few up shards", op.obj)
	}
	for _, l := range op.legs[:op.nlegs] {
		l.obj = ShardKey(op.obj, op.off, l.rank)
		l.issue()
	}
	return nil
}

// assembleEC builds the read result from the gathered shards: decoded
// and joined in functional mode, zeros of the right length otherwise.
func (op *clientOp) assembleEC() error {
	if !op.cl.Functional {
		op.out = Zeros(op.n)
		return nil
	}
	pool := op.pool
	gathered := make([][]byte, pool.K+pool.M)
	for _, l := range op.legs[:op.nlegs] {
		gathered[l.rank] = l.res
	}
	if op.decode {
		// Degraded read: rebuild only the missing data shards — Join
		// never touches parity, so recomputing it would be wasted work.
		if err := pool.Code.ReconstructData(gathered); err != nil {
			return err
		}
	}
	out, err := pool.Code.Join(gathered, op.n)
	op.out = out
	return err
}
