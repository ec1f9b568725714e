package rados

import (
	"sort"

	"repro/internal/crush"
	"repro/internal/sim"
)

// Backfiller moves data to its new home after a map change — the execution
// half of Ceph's backfill, complementing PlanRebalance's estimate. It is
// functional: object bytes really move between MemStores, throttled by a
// per-stream bandwidth and a bounded number of concurrent streams, so
// recovery time and interference are measurable in virtual time.
type Backfiller struct {
	c *Cluster
	// Streams bounds concurrent object copies cluster-wide.
	Streams int
	// BytesPerSec is the per-stream copy bandwidth (network + media).
	BytesPerSec float64
	// PerObjectCost is the fixed overhead per object moved.
	PerObjectCost sim.Duration
}

// NewBackfiller returns a backfiller with Ceph-like default throttles.
func NewBackfiller(c *Cluster) *Backfiller {
	return &Backfiller{
		c:             c,
		Streams:       8,
		BytesPerSec:   200e6,
		PerObjectCost: 200 * sim.Microsecond,
	}
}

// BackfillReport summarises one recovery pass.
type BackfillReport struct {
	Pool         string
	ObjectsMoved int
	BytesMoved   int64
	// Degraded counts objects that could not be sourced (all old holders
	// down).
	Degraded int
	Elapsed  sim.Duration
}

// BackfillPool moves every object whose placement changed between the two
// reweight tables, from proc context. Replicated pools move whole objects;
// EC pools move rank-addressed shards.
func (b *Backfiller) BackfillPool(p *sim.Proc, pool *Pool, before, after []uint32) (BackfillReport, error) {
	start := p.Now()
	eng := b.c.Eng
	rep := BackfillReport{Pool: pool.Name}
	streams := eng.NewResource(b.Streams)
	done := eng.NewCompletion()
	outstanding := 0
	finishOne := func() {
		outstanding--
		if outstanding == 0 {
			done.Complete(nil, nil)
		}
	}

	objects := b.objectsByPG(pool)
	pgs := make([]uint32, 0, len(objects))
	for pg := range objects {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })

	for _, pg := range pgs {
		x := crush.Hash2(pg, uint32(pool.ID))
		old, err := b.c.Map.Select(pool.rule, x, pool.Width(), before)
		if err != nil {
			return rep, err
		}
		new_, err := b.c.Map.Select(pool.rule, x, pool.Width(), after)
		if err != nil {
			return rep, err
		}
		moves := b.movesFor(pool, old, new_)
		if len(moves) == 0 {
			continue
		}
		for _, obj := range objects[pg] {
			for _, mv := range moves {
				key := obj
				if pool.Kind == ECPool {
					key = StripeShard(obj, mv.rank)
				}
				var data []byte
				src := b.findSource(key, old, mv.to)
				switch {
				case src >= 0:
					ms := b.c.OSDs[src].Store.(*MemStore)
					size := ms.Size(key)
					if size == 0 {
						continue
					}
					data, _ = ms.Read(key, 0, size)
				case pool.Kind == ECPool:
					// The shard's only holder is gone: rebuild it from the
					// surviving shards (recovery, not plain backfill).
					data = b.reconstructShard(pool, obj, mv.rank, old)
					if data == nil {
						rep.Degraded++
						continue
					}
				default:
					rep.Degraded++
					continue
				}
				size := len(data)
				to := mv.to
				outstanding++
				rep.ObjectsMoved++
				rep.BytesMoved += int64(size)
				moveKey := key
				eng.Schedule(0, func() {
					streams.AcquireFunc(1, func() {
						eng.Schedule(b.PerObjectCost+sim.Duration(float64(size)/b.BytesPerSec*1e9), func() {
							streams.Release(1)
							b.c.OSDs[to].Store.Write(moveKey, 0, data)
							finishOne()
						})
					})
				})
			}
		}
	}
	if outstanding > 0 {
		p.Await(done)
	}
	rep.Elapsed = p.Now().Sub(start)
	return rep, nil
}

type shardMove struct {
	rank int
	to   int
}

// movesFor lists the (rank, destination) pairs that changed.
func (b *Backfiller) movesFor(pool *Pool, old, new_ []int) []shardMove {
	var moves []shardMove
	if pool.Kind == ECPool {
		// Rank-addressed: a change at rank r moves shard r.
		for r := 0; r < len(new_) && r < len(old); r++ {
			if new_[r] != old[r] && new_[r] >= 0 && new_[r] != crush.ItemNone {
				moves = append(moves, shardMove{rank: r, to: new_[r]})
			}
		}
		return moves
	}
	// Replicated: any new member absent from the old set gets a full copy.
	in := map[int]bool{}
	for _, o := range old {
		in[o] = true
	}
	for _, n := range new_ {
		if n >= 0 && n != crush.ItemNone && !in[n] {
			moves = append(moves, shardMove{rank: 0, to: n})
		}
	}
	return moves
}

// reconstructShard rebuilds one EC shard from the stripe's surviving
// shards on the old acting set, or nil when fewer than k survive.
func (b *Backfiller) reconstructShard(pool *Pool, stripe string, rank int, old []int) []byte {
	shards := make([][]byte, pool.K+pool.M)
	have := 0
	for r, o := range old {
		if r >= len(shards) || r == rank || o < 0 || o >= len(b.c.OSDs) || !b.c.OSDs[o].Up() {
			continue
		}
		ms, ok := b.c.OSDs[o].Store.(*MemStore)
		if !ok {
			continue
		}
		key := StripeShard(stripe, r)
		if ms.Size(key) == 0 {
			continue
		}
		d, _ := ms.Read(key, 0, ms.Size(key))
		shards[r] = d
		have++
	}
	if have < pool.K {
		return nil
	}
	if err := pool.Code.Reconstruct(shards); err != nil {
		return nil
	}
	return shards[rank]
}

// findSource picks an up old holder of key, excluding the destination.
func (b *Backfiller) findSource(key string, old []int, exclude int) int {
	for _, o := range old {
		if o < 0 || o == exclude || o >= len(b.c.OSDs) || !b.c.OSDs[o].Up() {
			continue
		}
		ms, ok := b.c.OSDs[o].Store.(*MemStore)
		if !ok {
			continue
		}
		if ms.Size(key) > 0 {
			return o
		}
	}
	return -1
}

// objectsByPG groups the pool's logical objects by placement group by
// scanning the MemStores (EC shard keys collapse to stripes).
func (b *Backfiller) objectsByPG(pool *Pool) map[uint32][]string {
	seen := map[string]bool{}
	for _, osd := range b.c.OSDs {
		ms, ok := osd.Store.(*MemStore)
		if !ok {
			continue
		}
		for _, name := range ms.ObjectNames() {
			if pool.Kind == ECPool {
				if i := lastIndex(name, ".s"); i > 0 {
					name = name[:i]
				}
			}
			seen[name] = true
		}
	}
	out := map[uint32][]string{}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pg := b.c.PGOf(pool, stripeBase(n))
		out[pg] = append(out[pg], n)
	}
	return out
}
