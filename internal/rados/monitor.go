package rados

import (
	"fmt"

	"repro/internal/crush"
	"repro/internal/sim"
)

// Monitor is the cluster-map authority: it owns the osdmap epoch and the
// per-device in/out weights, detects failed OSDs through heartbeats, and
// notifies subscribers of map changes — a single-node distillation of the
// Ceph monitor quorum, enough to model the map-change dynamics DeLiBA-K's
// DFX reconfiguration reacts to (cluster shrink/grow, paper §IV-C).
type Monitor struct {
	c *Cluster

	epoch    uint64
	reweight []uint32
	// outSince records when a down OSD was first seen down.
	downSince map[int]sim.Time

	// HeartbeatEvery is the OSD liveness poll interval.
	HeartbeatEvery sim.Duration
	// Grace is how long an OSD may be down before being marked out.
	Grace sim.Duration

	subs    []func(epoch uint64)
	started bool

	// Stats.
	MarkedOut uint64
	MarkedIn  uint64
}

// NewMonitor attaches a monitor to the cluster. All devices start fully in.
func NewMonitor(c *Cluster) *Monitor {
	rw := make([]uint32, c.Map.MaxDevices())
	for i := range rw {
		rw[i] = crush.WeightOne
	}
	m := &Monitor{
		c:              c,
		epoch:          1,
		reweight:       rw,
		downSince:      make(map[int]sim.Time),
		HeartbeatEvery: 2 * sim.Second,
		Grace:          20 * sim.Second,
	}
	c.monitor = m
	// Attaching a monitor swaps the reweight table ActingSet consults
	// (nil -> all-in); any placements cached before that are stale.
	c.InvalidatePlacement()
	return m
}

// Epoch returns the current osdmap epoch.
func (m *Monitor) Epoch() uint64 { return m.epoch }

// Reweights returns a copy of the current in/out table.
func (m *Monitor) Reweights() []uint32 {
	return append([]uint32(nil), m.reweight...)
}

// Subscribe registers a map-change callback (invoked as an event with the
// new epoch). Ceph clients and the DeLiBA-K UIFD subscribe this way to
// refresh placements and, on cluster resize, trigger RM reconfiguration.
func (m *Monitor) Subscribe(fn func(epoch uint64)) { m.subs = append(m.subs, fn) }

func (m *Monitor) bump() {
	m.epoch++
	// Weight tables are placement inputs; every edit stales the cluster's
	// cached acting sets.
	m.c.InvalidatePlacement()
	for _, fn := range m.subs {
		fn := fn
		e := m.epoch
		m.c.Eng.Schedule(0, func() { fn(e) })
	}
}

// MarkOut sets an OSD's weight to zero (data remaps away from it).
func (m *Monitor) MarkOut(osd int) error {
	if osd < 0 || osd >= len(m.reweight) {
		return fmt.Errorf("rados: no osd.%d", osd)
	}
	if m.reweight[osd] == 0 {
		return nil
	}
	m.reweight[osd] = 0
	m.MarkedOut++
	m.bump()
	return nil
}

// MarkIn restores an OSD to full weight.
func (m *Monitor) MarkIn(osd int) error {
	if osd < 0 || osd >= len(m.reweight) {
		return fmt.Errorf("rados: no osd.%d", osd)
	}
	if m.reweight[osd] == crush.WeightOne {
		return nil
	}
	m.reweight[osd] = crush.WeightOne
	m.MarkedIn++
	m.bump()
	return nil
}

// Reweight sets an intermediate weight (the reweight-by-utilization dial).
func (m *Monitor) Reweight(osd int, w uint32) error {
	if osd < 0 || osd >= len(m.reweight) {
		return fmt.Errorf("rados: no osd.%d", osd)
	}
	if w > crush.WeightOne {
		w = crush.WeightOne
	}
	if m.reweight[osd] == w {
		return nil
	}
	m.reweight[osd] = w
	m.bump()
	return nil
}

// Start launches the heartbeat, a self-rescheduling timer: every
// HeartbeatEvery it checks OSD liveness; an OSD down for longer than Grace
// is marked out, and a marked-out OSD that has come back up is marked in.
//
// The heartbeat keeps an event scheduled at all times, so a started
// monitor prevents Engine.Run from draining: bound runs with RunUntil or
// call Stop when the scenario ends.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	eng := m.c.Eng
	var beat func()
	beat = func() {
		m.checkHeartbeats(eng.Now())
		if m.started {
			eng.Schedule(m.HeartbeatEvery, beat)
		}
	}
	eng.Schedule(0, func() {
		if m.started {
			eng.Schedule(m.HeartbeatEvery, beat)
		}
	})
}

// Stop ends the heartbeat after its current period.
func (m *Monitor) Stop() { m.started = false }

func (m *Monitor) checkHeartbeats(now sim.Time) {
	for id, osd := range m.c.OSDs {
		if !osd.Up() {
			since, seen := m.downSince[id]
			if !seen {
				m.downSince[id] = now
				continue
			}
			if now.Sub(since) >= m.Grace && m.reweight[id] != 0 {
				m.MarkOut(id)
			}
			continue
		}
		// Up again: clear and mark in if it had been ejected.
		if _, seen := m.downSince[id]; seen {
			delete(m.downSince, id)
			if m.reweight[id] == 0 {
				m.MarkIn(id)
			}
		}
	}
}

// RebalanceReport quantifies the data movement a map change causes.
type RebalanceReport struct {
	Pool      string
	TotalPGs  int
	MovedPGs  int
	MovedFrac float64
	// ShardMoves counts individual replica/shard relocations.
	ShardMoves int
}

// EstimateBackfill returns the time to move the data at the given per-PG
// size and aggregate backfill bandwidth.
func (r RebalanceReport) EstimateBackfill(bytesPerPG int64, aggregateBps float64) sim.Duration {
	if aggregateBps <= 0 {
		return 0
	}
	bytes := float64(r.ShardMoves) * float64(bytesPerPG)
	return sim.Duration(bytes / aggregateBps * 1e9)
}

// PlanRebalance computes the PG movement between two reweight tables for a
// pool: how many PGs change acting sets and how many shard relocations that
// implies. It is the planning half of Ceph's backfill machinery.
func (c *Cluster) PlanRebalance(pool *Pool, before, after []uint32) (RebalanceReport, error) {
	rep := RebalanceReport{Pool: pool.Name, TotalPGs: int(pool.PGs)}
	for pg := uint32(0); pg < pool.PGs; pg++ {
		x := crush.Hash2(pg, uint32(pool.ID))
		a, err := c.Map.Select(pool.rule, x, pool.Width(), before)
		if err != nil {
			return rep, err
		}
		b, err := c.Map.Select(pool.rule, x, pool.Width(), after)
		if err != nil {
			return rep, err
		}
		moves := shardDiff(a, b)
		if moves > 0 {
			rep.MovedPGs++
			rep.ShardMoves += moves
		}
	}
	if rep.TotalPGs > 0 {
		rep.MovedFrac = float64(rep.MovedPGs) / float64(rep.TotalPGs)
	}
	return rep, nil
}

// shardDiff counts members of b not present in a (new shard locations).
func shardDiff(a, b []int) int {
	in := make(map[int]bool, len(a))
	for _, v := range a {
		if v >= 0 {
			in[v] = true
		}
	}
	moves := 0
	for _, v := range b {
		if v >= 0 && !in[v] {
			moves++
		}
	}
	return moves
}
