package sim

import (
	"errors"
	"testing"
)

// TestResourceFIFOMixedWaiters checks that waiters queued by a sequential
// driver's event hops and by plain AcquireFunc callers share one FIFO
// queue: with the single unit held, four waiters of alternating kinds are
// served in arrival order, each when the previous holder releases. A
// driver waiter is a spawn event, a sleep until it arrives, AcquireFunc,
// then a sleep while it holds the unit.
func TestResourceFIFOMixedWaiters(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var got []string
	var at []Time
	served := func(name string) {
		got = append(got, name)
		at = append(at, e.Now())
	}
	hold := func(name string) func() {
		return func() {
			served(name)
			e.Schedule(10, func() { r.Release(1) })
		}
	}
	driverWaiter := func(name string, arrive Duration) {
		e.Schedule(0, func() {
			e.Schedule(arrive, func() { r.AcquireFunc(1, hold(name)) })
		})
	}
	r.AcquireFunc(1, hold("holder")) // free: runs inline
	driverWaiter("p1", 1)
	e.Schedule(2, func() { r.AcquireFunc(1, hold("f1")) })
	driverWaiter("p2", 3)
	e.Schedule(4, func() { r.AcquireFunc(1, hold("f2")) })
	e.Run()
	want := []string{"holder", "p1", "f1", "p2", "f2"}
	if len(got) != len(want) {
		t.Fatalf("served %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || at[i] != Time(10*i) {
			t.Fatalf("served %v at %v, want %v at 0,10,20,...", got, at, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after drain", r.InUse())
	}
}

// TestAcquireFuncRespectsQueue checks that AcquireFunc does not jump the
// queue: units freed while a waiter is queued go to the waiter first.
func TestAcquireFuncRespectsQueue(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(2)
	var order []string
	r.AcquireFunc(2, func() { order = append(order, "big") })
	r.AcquireFunc(2, func() { order = append(order, "big2") }) // queued
	r.Release(1)
	r.AcquireFunc(1, func() { order = append(order, "small") }) // must queue behind big2
	r.Release(1)
	e.Run()
	if len(order) != 2 || order[1] != "big2" {
		t.Fatalf("order = %v, want [big big2]", order)
	}
	r.Release(2)
	e.Run()
	if len(order) != 3 || order[2] != "small" {
		t.Fatalf("order = %v, want small last", order)
	}
}

// TestResourceBacklogBounded keeps a lane queue permanently backlogged —
// one waiter arrives for every one served, so it never drains — and checks
// that the wait queue's storage stays proportional to the backlog.
func TestResourceBacklogBounded(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	served := 0
	var serve func()
	serve = func() {
		served++
		e.Schedule(1, func() {
			if served < 10000 {
				r.AcquireFunc(1, serve)
			}
			r.Release(1)
		})
	}
	for i := 0; i < 16; i++ {
		r.AcquireFunc(1, serve)
	}
	e.Run()
	if served != 10000+15 {
		t.Fatalf("served %d, want %d", served, 10000+15)
	}
	if c := cap(r.waiters); c > 64 {
		t.Fatalf("wait queue capacity %d after a 15-deep backlog, want <= 64", c)
	}
}

// TestAwaitFuncHop pins AwaitFunc's timing, the one-shot wait of the
// event-hop rule: an operation completing from a later event hands its
// error to k in one more event at the same time, and one completing
// synchronously hands it to k inline, after call returns, in no event.
func TestAwaitFuncHop(t *testing.T) {
	e := NewEngine()
	errBoom := errors.New("boom")
	var gotErr error
	var at Time
	var hops uint64
	e.AwaitFunc(func(done func(error)) {
		e.Schedule(42, func() {
			done(errBoom)
			hops = e.Executed()
		})
	}, func(err error) {
		gotErr, at = err, e.Now()
		hops = e.Executed() - hops
	})
	e.Run()
	if gotErr != errBoom || at != 42 || hops != 1 {
		t.Fatalf("async: err=%v at %v after %d events, want boom at 42 after 1", gotErr, at, hops)
	}

	e.Schedule(10, func() {
		returned, ran := false, false
		before := e.Executed()
		e.AwaitFunc(func(done func(error)) {
			done(errBoom)
			returned = true
		}, func(err error) {
			ran = true
			if !returned || err != errBoom || e.Now() != 52 || e.Executed() != before {
				t.Errorf("sync: k ran before call returned=%v err=%v at %v", !returned, err, e.Now())
			}
		})
		if !ran {
			t.Error("sync: k did not run inline")
		}
	})
	e.Run()
}
