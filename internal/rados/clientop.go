package rados

import (
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
// Schedule(d); a blocking send is the Send plus one Schedule(0) after the
// arrival (the old completion hop); awaiting the legs resumes one event
// after the first unobserved leg completes, as a sequential Await loop did.
//
// Ops are pooled on the Client and their callbacks (and those of their
// pooled legs) are bound once at construction, so a warm op allocates only
// what the request itself needs (EC shard keys). Like the engine, a Client
// is single-threaded; its freelist is unsynchronised on purpose.
//
// The legs are the shared per-OSD round trip (Leg) that core.Fanout also
// fans out, and the targets come from the same Cluster choices
// (WriteTargets, ECReadSources, ReadTarget); what differs is that this
// protocol issues them from the primary and awaits them in order.
type clientOp struct {
	cl  *Client
	eng *sim.Engine
	pc  int // stage advance re-enters at
	// step re-enters advance; arrive is a blocking send's arrival, which
	// hops one event to step; legDone is every leg's completion (fire).
	step, arrive func()
	legDone      func(*Leg)

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
	legs     []*Leg
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
		op.legDone = op.fire
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
					op.issue(l)
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
				cl.Retry.Degraded()
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
					op.out = op.legs[0].Res
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
func (op *clientOp) leg() *Leg {
	if op.nlegs == len(op.legs) {
		op.legs = append(op.legs, NewLeg(op.cl.Cluster, op.legDone))
	}
	l := op.legs[op.nlegs]
	op.nlegs++
	return l
}

// issue starts leg l from the primary.
func (op *clientOp) issue(l *Leg) {
	l.From, l.Opts = op.pNode, op.opts
	op.inflight++
	l.Issue()
}

// fire accounts a leg's completion. If the op's await is parked on this
// leg it resumes one event later, like a completion waking its awaiter.
func (op *clientOp) fire(l *Leg) {
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
		if !l.Acked {
			op.waiting = true
			return false
		}
		op.next++
		if l.Err != nil {
			if op.err == nil {
				op.err = l.Err
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
		l.Release()
	}
	op.pool, op.obj, op.data, op.opts, op.acting, op.out = nil, "", nil, ReqOpts{}, nil, nil
	op.span, op.err, op.writeDone, op.readDone = trace.H{}, nil, nil, nil
	op.nlegs, op.next, op.waiting, op.finished, op.decode = 0, 0, false, false, false
	op.cl.free = append(op.cl.free, op)
}

// issueECShards encodes the stripe (functional mode only) and issues one
// shard write per up acting rank. The up set is read again here, after the
// request hop and the encode, so a shard whose OSD went down meanwhile is
// skipped (a degraded write); the k-up check was made at submission.
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
	cl := op.cl
	cl.ranks, _ = c.WriteTargets(cl.ranks, pool, op.obj, op.acting)
	for _, rank := range cl.ranks {
		payload := Zeros(shardSize) // timing-only: the size is what counts
		if shards != nil {
			payload = shards[rank]
		}
		l := op.leg()
		l.OSD, l.Rank = op.acting[rank], rank
		l.Local = l.OSD == op.primary
		l.Kind, l.Obj, l.Off, l.Data, l.N = OpWrite, ShardKey(op.obj, op.off, rank), 0, payload, 0
		op.issue(l)
	}
	return nil
}

// issueECReads issues one shard read to each of the k source ranks the
// Cluster chooses.
func (op *clientOp) issueECReads() error {
	c, pool := op.cl.Cluster, op.pool
	shardSize := (op.n + pool.K - 1) / pool.K
	cl := op.cl
	var err error
	cl.ranks, op.decode, err = c.ECReadSources(cl.ranks, pool, op.obj, op.acting)
	if err != nil {
		return err
	}
	for _, rank := range cl.ranks {
		l := op.leg()
		l.OSD, l.Rank = op.acting[rank], rank
		l.Local = l.OSD == op.primary
		l.Kind, l.Obj, l.Off, l.Data, l.N = OpRead, ShardKey(op.obj, op.off, rank), 0, nil, shardSize
		op.issue(l)
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
		gathered[l.Rank] = l.Res
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
