package rados

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Scrubber performs replica consistency checks — the deep-scrub half of
// Ceph's data-integrity machinery. For replicated pools it byte-compares
// every copy of every object; for EC pools it re-verifies each stripe's
// parity with the pool's codec. Scrubbing requires functional (MemStore)
// clusters, since metadata-only stores have nothing to compare.
type Scrubber struct {
	c *Cluster
	// ReadCost is the simulated media cost per scanned object per replica.
	ReadCost sim.Duration
}

// NewScrubber attaches a scrubber to the cluster.
func NewScrubber(c *Cluster) *Scrubber {
	return &Scrubber{c: c, ReadCost: 50 * sim.Microsecond}
}

// Inconsistency describes one damaged object.
type Inconsistency struct {
	Pool   string
	Object string
	// BadOSDs are the devices whose copy/shard disagrees with the
	// majority (replicated) or breaks parity (EC).
	BadOSDs []int
}

func (i Inconsistency) String() string {
	return fmt.Sprintf("%s/%s on osds %v", i.Pool, i.Object, i.BadOSDs)
}

// ScrubReport summarises one pass.
type ScrubReport struct {
	Pool            string
	ObjectsScanned  int
	Inconsistencies []Inconsistency
}

// Clean reports whether the scrub found no damage.
func (r ScrubReport) Clean() bool { return len(r.Inconsistencies) == 0 }

// scrubCopy is one copy or EC shard a scrub reads or a repair writes.
type scrubCopy struct {
	osd, rank int
	key       string
	data      []byte
}

// ScrubPool scans every object of the pool and calls done with the report.
// It charges ReadCost of virtual time before each copy it reads; an
// object's copies are chosen when the scan reaches it. done runs inside the
// event of the last read, or at once when nothing is read or a lookup
// fails.
func (s *Scrubber) ScrubPool(pool *Pool, done func(ScrubReport, error)) {
	rep := ScrubReport{Pool: pool.Name}
	objs := s.objectsOf(pool)
	// record adds object i's verdict; false means the scrub has failed.
	record := func(i int, copies []scrubCopy) bool {
		inc, err := s.verdict(pool, objs[i], copies)
		if err != nil {
			done(rep, err)
			return false
		}
		if inc != nil {
			rep.Inconsistencies = append(rep.Inconsistencies, *inc)
		}
		return true
	}
	var scan func(i int)
	scan = func(i int) {
		for ; i < len(objs); i++ {
			rep.ObjectsScanned++
			copies, err := s.copiesOf(pool, objs[i])
			if err != nil {
				done(rep, err)
				return
			}
			if len(copies) > 0 {
				i := i
				s.charge(copies, s.readCopy, func(error) {
					if record(i, copies) {
						scan(i + 1)
					}
				})
				return
			}
			if !record(i, copies) {
				return
			}
		}
		done(rep, nil)
	}
	scan(0)
}

// charge runs io on each copy in turn, ReadCost of virtual time after the
// previous one, then calls k. An io error stops the walk and goes to k;
// with no copies k runs at once.
func (s *Scrubber) charge(copies []scrubCopy, io func(*scrubCopy) error, k func(error)) {
	var step func(j int)
	step = func(j int) {
		if j == len(copies) {
			k(nil)
			return
		}
		s.c.Eng.Schedule(s.ReadCost, func() {
			if err := io(&copies[j]); err != nil {
				k(err)
				return
			}
			step(j + 1)
		})
	}
	step(0)
}

// readCopy reads a whole copy from its MemStore.
func (s *Scrubber) readCopy(c *scrubCopy) error {
	ms := s.c.OSDs[c.osd].Store.(*MemStore)
	c.data, _ = ms.Read(c.key, 0, ms.Size(c.key))
	return nil
}

// objectsOf enumerates logical object names for the pool by scanning OSD
// stores. For EC pools, shard keys ("obj:off.sN") collapse to stripes.
func (s *Scrubber) objectsOf(pool *Pool) []string {
	seen := map[string]bool{}
	for _, osd := range s.c.OSDs {
		ms, ok := osd.Store.(*MemStore)
		if !ok {
			continue
		}
		for _, name := range ms.ObjectNames() {
			if pool.Kind == ECPool {
				// strip the ".sN" rank suffix
				if i := lastIndex(name, ".s"); i > 0 {
					name = name[:i]
				}
			}
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lastIndex(s, sub string) int {
	for i := len(s) - len(sub); i >= 0; i-- {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// copiesOf lists the copies a scrub of obj reads: every up acting
// member's copy (replicated) or every stored shard of the stripe (EC).
func (s *Scrubber) copiesOf(pool *Pool, obj string) ([]scrubCopy, error) {
	ec := pool.Kind == ECPool
	base := obj
	if ec {
		base = stripeBase(obj)
	}
	acting, err := s.c.ActingSet(pool, s.c.PGOf(pool, base))
	if err != nil {
		return nil, err
	}
	var copies []scrubCopy
	for rank, o := range acting {
		if (ec && rank >= pool.K+pool.M) || o < 0 || !s.c.OSDs[o].Up() {
			continue
		}
		ms, ok := s.c.OSDs[o].Store.(*MemStore)
		if !ok {
			return nil, fmt.Errorf("rados: scrub requires MemStore clusters")
		}
		key := obj
		if ec {
			key = StripeShard(obj, rank)
			if ms.Size(key) == 0 {
				continue
			}
		}
		copies = append(copies, scrubCopy{osd: o, rank: rank, key: key})
	}
	return copies, nil
}

// verdict judges the copies read of obj: a majority vote by content for a
// replicated object, a parity check for an EC stripe.
func (s *Scrubber) verdict(pool *Pool, obj string, copies []scrubCopy) (*Inconsistency, error) {
	if pool.Kind == ECPool {
		return verifyStripe(pool, obj, copies)
	}
	if len(copies) < 2 {
		return nil, nil
	}
	counts := map[string][]int{}
	for _, c := range copies {
		counts[string(c.data)] = append(counts[string(c.data)], c.osd)
	}
	if len(counts) == 1 {
		return nil, nil
	}
	// The most common content wins; everything else is bad.
	var bestKey string
	best := -1
	for k, osds := range counts {
		if len(osds) > best {
			best = len(osds)
			bestKey = k
		}
	}
	inc := &Inconsistency{Pool: pool.Name, Object: obj}
	for k, osds := range counts {
		if k != bestKey {
			inc.BadOSDs = append(inc.BadOSDs, osds...)
		}
	}
	sort.Ints(inc.BadOSDs)
	return inc, nil
}

// verifyStripe checks a stripe's parity over the shards read.
func verifyStripe(pool *Pool, stripe string, copies []scrubCopy) (*Inconsistency, error) {
	shards := make([][]byte, pool.K+pool.M)
	osdOf := make([]int, pool.K+pool.M)
	for _, c := range copies {
		shards[c.rank] = c.data
		osdOf[c.rank] = c.osd
	}
	for _, sh := range shards {
		if sh == nil {
			return nil, nil // degraded, not inconsistent
		}
	}
	ok, err := pool.Code.Verify(shards)
	if err != nil || ok {
		return nil, err
	}
	// Identify the bad shard(s): try dropping each rank and reconstructing;
	// if the reconstruction differs from what is stored, that rank is bad.
	inc := &Inconsistency{Pool: pool.Name, Object: stripe}
	for rank := range shards {
		work := make([][]byte, len(shards))
		copy(work, shards)
		work[rank] = nil
		if err := pool.Code.Reconstruct(work); err != nil {
			continue
		}
		if okNow, _ := pool.Code.Verify(work); okNow && !bytes.Equal(work[rank], shards[rank]) {
			inc.BadOSDs = append(inc.BadOSDs, osdOf[rank])
		}
	}
	sort.Ints(inc.BadOSDs)
	return inc, nil
}

// stripeBase strips the ":off" suffix of a stripe key to recover the
// logical object name used for placement.
func stripeBase(stripe string) string {
	if i := lastIndex(stripe, ":"); i > 0 {
		return stripe[:i]
	}
	return stripe
}

// Repair overwrites the bad copies found by a scrub with the majority /
// reconstructed content, charging ReadCost before each write, and calls
// done with how many copies were fixed. done runs inside the event of the
// last write, or at once when there is nothing to write or a lookup fails.
func (s *Scrubber) Repair(pool *Pool, rep ScrubReport, done func(fixed int, err error)) {
	fixed := 0
	write := func(c *scrubCopy) error {
		if err := s.c.OSDs[c.osd].Store.Write(c.key, 0, c.data); err != nil {
			return err
		}
		fixed++
		return nil
	}
	var next func(i int)
	next = func(i int) {
		for ; i < len(rep.Inconsistencies); i++ {
			fixes, err := s.fixesFor(pool, rep.Inconsistencies[i])
			if err != nil {
				done(fixed, err)
				return
			}
			if len(fixes) > 0 {
				i := i
				s.charge(fixes, write, func(err error) {
					if err != nil {
						done(fixed, err)
						return
					}
					next(i + 1)
				})
				return
			}
		}
		done(fixed, nil)
	}
	next(0)
}

// fixesFor lists the writes that repair inc: a good copy onto each bad
// replica, or each bad EC shard rebuilt from the good ones.
func (s *Scrubber) fixesFor(pool *Pool, inc Inconsistency) ([]scrubCopy, error) {
	ec := pool.Kind == ECPool
	base := inc.Object
	if ec {
		base = stripeBase(inc.Object)
	}
	acting, err := s.c.ActingSet(pool, s.c.PGOf(pool, base))
	if err != nil {
		return nil, err
	}
	bad := map[int]bool{}
	for _, o := range inc.BadOSDs {
		bad[o] = true
	}
	var fixes []scrubCopy
	if !ec {
		// Find a good copy.
		var good []byte
		for _, o := range acting {
			if o < 0 || bad[o] || !s.c.OSDs[o].Up() {
				continue
			}
			ms := s.c.OSDs[o].Store.(*MemStore)
			good, _ = ms.Read(inc.Object, 0, ms.Size(inc.Object))
			break
		}
		if good == nil {
			return nil, fmt.Errorf("rados: no good copy of %s to repair from", inc.Object)
		}
		for _, o := range inc.BadOSDs {
			fixes = append(fixes, scrubCopy{osd: o, key: inc.Object, data: good})
		}
		return fixes, nil
	}
	shards := make([][]byte, pool.K+pool.M)
	for rank, o := range acting {
		if rank >= len(shards) || o < 0 || bad[o] || !s.c.OSDs[o].Up() {
			continue
		}
		ms := s.c.OSDs[o].Store.(*MemStore)
		key := StripeShard(inc.Object, rank)
		if ms.Size(key) == 0 {
			continue
		}
		d, _ := ms.Read(key, 0, ms.Size(key))
		shards[rank] = d
	}
	if err := pool.Code.Reconstruct(shards); err != nil {
		return nil, err
	}
	for rank, o := range acting {
		if rank >= len(shards) || o < 0 || !bad[o] {
			continue
		}
		key := StripeShard(inc.Object, rank)
		fixes = append(fixes, scrubCopy{osd: o, rank: rank, key: key, data: shards[rank]})
	}
	return fixes, nil
}
