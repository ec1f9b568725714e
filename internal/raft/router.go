package raft

import (
	"repro/internal/netsim"
	"repro/internal/rados"
	"repro/internal/trace"
)

// Router is the client-side entry point of the multi-Raft backend: it maps
// objects to PG groups, remembers per-PG leader hints, follows redirects a
// bounded number of hops, and fails fast with ErrNoLeader when a group is
// mid-election — so the caller's retry/backoff policy (not the router)
// paces re-attempts during election storms.
//
// Like the Fanout it plugs into, a Router is single-threaded: it lives on
// the client's engine, which in repl-raft mode is the cluster engine
// (split-domain deployments are rejected at stack build time).
type Router struct {
	Sys  *System
	From *netsim.Host
	// Sink receives client-side spans (raft-commit-wait, raft-no-leader);
	// nil disables. Must belong to the client's domain.
	Sink *trace.Sink

	state map[uint32]*pgState
}

// pgState is the router's per-PG routing memory.
type pgState struct {
	hint    int // last confirmed or redirected leader index; -1 unknown
	strikes int // sends since the last confirming reply (rotates targets)
}

// NewRouter binds a router to a System from the client host.
func NewRouter(sys *System, from *netsim.Host) *Router {
	return &Router{Sys: sys, From: from, state: make(map[uint32]*pgState)}
}

// Pool returns the pool the system replicates (rados.Repl).
func (r *Router) Pool() *rados.Pool { return r.Sys.Pool }

func (r *Router) pgState(pg uint32) *pgState {
	st, ok := r.state[pg]
	if !ok {
		st = &pgState{hint: 0}
		r.state[pg] = st
	}
	return st
}

// target picks the member to try next: the hint when it has not struck
// out, otherwise a rotation from it — so a dead leader's hint is escaped
// after one unanswered send instead of being re-asked forever.
func (st *pgState) target(n int) int {
	base := st.hint
	if base < 0 {
		base = 0
	}
	return (base + st.strikes) % n
}

// Write routes a replicated write to the object's Raft group and completes
// done once the entry is committed on a majority.
func (r *Router) Write(obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	r.do(true, obj, off, n, opts, done)
}

// Read routes a read to the group leader, served locally under its lease.
func (r *Router) Read(obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	r.do(false, obj, off, n, opts, done)
}

func (r *Router) do(isWrite bool, obj string, off, n int, opts rados.ReqOpts, done func(error)) {
	sys := r.Sys
	pg := sys.Cluster.PGOf(sys.Pool, obj)
	g, err := sys.Group(pg)
	if err != nil {
		done(err)
		return
	}
	h, tr := r.Sink.Open(opts.Trace, "raft-commit-wait")
	r.issue(g, r.pgState(pg), isWrite, obj, off, n, tr, done, 0, h)
}

// issue sends one routed attempt to the current target member. A reply
// either completes the op, or redirects (bounded hops) — no reply at all
// (dead target, partition, lost message) is the caller's deadline to
// discover.
func (r *Router) issue(g *Group, st *pgState, isWrite bool, obj string, off, n int, tr trace.Ref, done func(error), hops int, h trace.H) {
	sys := r.Sys
	// Every attempt extends the group's activity window: leader liveness
	// (heartbeats, election timers) is maintained exactly while clients
	// are interested, and lapses afterwards so the engine can drain.
	g.pump()
	target := g.members[st.target(len(g.members))]
	st.strikes++
	reqBytes := rados.HdrBytes
	if isWrite {
		reqBytes += n
	}
	sys.Cluster.Fabric.Send(r.From, target.node, reqBytes, func() {
		if !target.alive() {
			return // black hole: the daemon died before processing
		}
		finish := func(ok bool, hint int, elect uint64) {
			respBytes := rados.HdrBytes
			if ok && !isWrite {
				respBytes += n
			}
			sys.Cluster.Fabric.Send(target.node, r.From, respBytes, func() {
				if ok {
					st.hint, st.strikes = target.idx, 0
					h.End()
					done(nil)
					return
				}
				if hint >= 0 && hint != target.idx {
					st.hint, st.strikes = hint, 0
				}
				hops++
				if hops > len(g.members)+2 {
					sys.stats.NoLeaderErrs++
					r.Sink.Mark(tr, "raft-no-leader", trace.KindElection, elect)
					h.End()
					done(ErrNoLeader)
					return
				}
				r.issue(g, st, isWrite, obj, off, n, tr, done, hops, h)
			})
		}
		if isWrite {
			g.propose(target, obj, off, n, tr, finish)
		} else {
			g.leaseRead(target, obj, off, n, tr, finish)
		}
	})
}
