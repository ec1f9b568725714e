package rados

import (
	"repro/internal/netsim"
	"repro/internal/trace"
)

// Leg is one per-OSD round trip of a fan-out: the request hop from the
// issuing node to the OSD's node, the OSD service, and the ack hop back,
// which carries the read payload. A local leg — the primary's own copy —
// skips both hops. Both fan-out protocols are built from legs: the
// primary-copy Client awaits its primary's legs in order, core.Fanout
// counts the card's or host NIC's legs down.
//
// Legs are pooled by their owner. NewLeg binds the callbacks, the owner's
// done among them, once, so a reissued leg allocates nothing. The owner
// sets the request fields before each Issue and reads the result fields in
// done; like the engine, a leg is single-threaded.
type Leg struct {
	From *netsim.Host // issuing node; the ack hop returns here
	OSD  int
	Rank int // the OSD's acting-set rank: an EC leg's shard index
	Kind OpType
	Obj  string
	Off  int
	Data []byte // write payload
	N    int    // read length
	Opts ReqOpts
	// Span, when on, is the per-target span (issue → ack): the OSD
	// service parents under it, and it ends when the ack lands.
	Span  trace.H
	Local bool // the OSD is on From: no request or ack hop

	// Acked is set once the ack has landed, just before done runs; Err
	// and Res are the OSD's result.
	Acked bool
	Err   error
	Res   []byte

	c    *Cluster
	done func(*Leg)

	send     func()
	onResult func(Result)
	ack      func()
}

// NewLeg returns a leg on c whose completion calls done.
func NewLeg(c *Cluster, done func(*Leg)) *Leg {
	l := &Leg{c: c, done: done}
	l.send = func() {
		opts := l.Opts
		if l.Span.On() {
			opts.Trace = l.Span.Ref()
		}
		l.c.OSDs[l.OSD].SubmitOpts(opts, l.Kind, l.Obj, l.Off, l.Data, l.N, l.onResult)
	}
	l.onResult = func(r Result) {
		l.Err, l.Res = r.Err, r.Data
		if l.Local {
			l.ack()
			return
		}
		l.c.Fabric.Send(l.c.NodeOf(l.OSD), l.From, HdrBytes+l.N, l.ack)
	}
	l.ack = func() {
		l.Span.End()
		l.Span = trace.H{}
		l.Acked = true
		l.done(l)
	}
	return l
}

// Issue starts the round trip.
func (l *Leg) Issue() {
	l.Err, l.Res, l.Acked = nil, nil, false
	if l.Local {
		l.send()
		return
	}
	l.c.Fabric.Send(l.From, l.c.NodeOf(l.OSD), HdrBytes+len(l.Data), l.send)
}

// Release drops the leg's references to request and result buffers, so a
// pooled leg pins neither.
func (l *Leg) Release() {
	l.Obj, l.Data, l.Res, l.Err = "", nil, nil, nil
}
