package rados

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

var keySink string

// TestShardKeyOneAlloc pins the string shard-key builders at exactly one
// allocation: the returned string, built from a stack buffer.
func TestShardKeyOneAlloc(t *testing.T) {
	if a := testing.AllocsPerRun(100, func() { keySink = ShardKey("rbd_data.vol.0000000000000042", 1<<22, 5) }); a != 1 {
		t.Errorf("ShardKey allocated %.1f/op, want 1", a)
	}
	if a := testing.AllocsPerRun(100, func() { keySink = StripeShard("rbd_data.vol.0000000000000042:4194304", 5) }); a != 1 {
		t.Errorf("StripeShard allocated %.1f/op, want 1", a)
	}
}

// TestOSDSubmitAllocBound pins the OSD's continuation path: with its op
// pool, the lane queue and the engine's event freelist warm, submitting a
// burst deeper than the lanes and serving it to completion allocates
// nothing beyond the caller's own done closure, made once outside.
func TestOSDSubmitAllocBound(t *testing.T) {
	eng := sim.NewEngine()
	o := NewOSD(eng, 0, DefaultOSDProfile(), NewNullStore())
	payload := make([]byte, 4096)
	completed := 0
	done := func(r Result) {
		if r.Err != nil {
			t.Error(r.Err)
		}
		completed++
	}
	burst := func() {
		for i := 0; i < 2*o.Profile.Lanes; i++ {
			o.SubmitOpts(ReqOpts{Random: true}, OpWrite, "obj", 0, payload, 0, done)
			o.SubmitOpts(ReqOpts{}, OpRead, "obj", 0, nil, 4096, done)
		}
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		burst()
	}
	if a := testing.AllocsPerRun(50, burst); a != 0 {
		t.Errorf("OSD submit+service allocated %.1f per burst, want 0", a)
	}
	if want := (8 + 51) * 4 * o.Profile.Lanes; completed != want {
		t.Fatalf("completed %d requests, want %d", completed, want)
	}
	if o.InFlight() != 0 || o.lanes.InUse() != 0 {
		t.Fatalf("after drain: %d in flight, %d lanes held", o.InFlight(), o.lanes.InUse())
	}
}

// TestClientSynchronousFailure checks both halves of the proc wrappers'
// contract for an op that fails before anything is sent: WriteAsync calls
// done synchronously, and Write returns the error without suspending the
// proc or consuming an event.
func TestClientSynchronousFailure(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, _ := c.CreateReplicatedPool("rbd", 3, 64)
	acting, err := c.ActingSet(pool, c.PGOf(pool, "obj"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range acting {
		c.OSDs[o].SetUp(false)
	}
	var asyncErr error
	called := false
	cl.WriteAsync(pool, "obj", 0, []byte("x"), ReqOpts{}, func(err error) { asyncErr, called = err, true })
	if !called || asyncErr == nil {
		t.Fatalf("WriteAsync: called=%v err=%v, want a synchronous error", called, asyncErr)
	}
	var procErr error
	var events uint64
	eng.Spawn("io", func(p *sim.Proc) {
		before := eng.Executed()
		_, procErr = cl.Read(p, pool, "obj", 0, 1)
		events = eng.Executed() - before
	})
	eng.Run()
	if procErr == nil || events != 0 {
		t.Fatalf("Read: err=%v after %d events, want an error after 0", procErr, events)
	}
}

// TestECReadStopsAtFailedShard crashes the primary while an EC read's four
// shard reads are all queued: the read fails at the primary's shard without
// waiting for the others, the op record is recycled only once the other
// shards are back, and a later read on the same client round-trips.
func TestECReadStopsAtFailedShard(t *testing.T) {
	eng, c, cl := newTestCluster(t)
	pool, err := c.CreateECPool("ecpool", 4, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("continuation"), 1000)
	acting, _ := c.ActingSet(pool, c.PGOf(pool, "stripe"))
	primary := c.OSDs[acting[0]]
	// A slow primary keeps its local shard read queued until the remote
	// shard reads have crossed the fabric and queued too.
	primary.SetSlow(20)
	var readErr, againErr error
	var again []byte
	eng.Spawn("io", func(p *sim.Proc) {
		if err := cl.Write(p, pool, "stripe", 0, payload); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		reading := true
		var crash func()
		crash = func() {
			for _, o := range acting[:pool.K] {
				if c.OSDs[o].InFlight() == 0 {
					if reading {
						eng.Schedule(100*sim.Nanosecond, crash)
					}
					return
				}
			}
			primary.SetUp(false)
		}
		eng.Schedule(0, crash)
		_, readErr = cl.Read(p, pool, "stripe", 0, len(payload))
		reading = false
		if n := len(cl.free); n != 0 {
			t.Errorf("read op recycled with shard reads still out (%d free)", n)
		}
		p.Sleep(sim.Millisecond)
		primary.SetUp(true)
		primary.SetSlow(1)
		again, againErr = cl.Read(p, pool, "stripe", 0, len(payload))
	})
	eng.Run()
	if !errors.Is(readErr, ErrOSDDown) {
		t.Fatalf("read across the crash: err=%v, want ErrOSDDown", readErr)
	}
	if againErr != nil || !bytes.Equal(again, payload) {
		t.Fatalf("read after recovery: err=%v, %d bytes match=%v", againErr, len(again), bytes.Equal(again, payload))
	}
	for _, op := range cl.free {
		if op.inflight != 0 || op.nlegs != 0 {
			t.Fatalf("recycled op with %d legs in flight, %d legs held", op.inflight, op.nlegs)
		}
	}
}
