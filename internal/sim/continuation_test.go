package sim

import "testing"

// TestResourceFIFOMixedWaiters checks that proc waiters (Acquire) and
// continuation waiters (AcquireFunc) share one FIFO queue: with the single
// unit held, four waiters of alternating kinds are served in arrival order,
// each when the previous holder releases.
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
	procWaiter := func(name string, arrive Duration) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(arrive)
			r.Acquire(p, 1)
			served(name)
			p.Sleep(10)
			r.Release(1)
		})
	}
	r.AcquireFunc(1, hold("holder")) // free: runs inline
	procWaiter("p1", 1)
	e.Schedule(2, func() { r.AcquireFunc(1, hold("f1")) })
	procWaiter("p2", 3)
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

// TestBlockSynchronousWake checks that a wake invoked inside register
// returns from Block at once, without suspending the proc or consuming an
// event, and that a later wake resumes the proc inside the waking event.
func TestBlockSynchronousWake(t *testing.T) {
	e := NewEngine()
	var syncAt, asyncAt Time
	var events uint64
	e.Spawn("p", func(p *Proc) {
		before := e.Executed()
		p.Block(func(wake func()) { wake() })
		syncAt = p.Now()
		events = e.Executed() - before
		p.Block(func(wake func()) { e.Schedule(25, wake) })
		asyncAt = p.Now()
	})
	e.Run()
	if syncAt != 0 || events != 0 {
		t.Fatalf("synchronous wake returned at %v after %d events, want 0 and 0", syncAt, events)
	}
	if asyncAt != 25 {
		t.Fatalf("asynchronous wake resumed at %v, want 25", asyncAt)
	}
	if e.Spawned() != 1 {
		t.Fatalf("Spawned = %d, want 1", e.Spawned())
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
