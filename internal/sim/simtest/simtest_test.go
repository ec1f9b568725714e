package simtest

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/sim"
)

func TestProcSleep(t *testing.T) {
	e := sim.NewEngine()
	var wake []sim.Time
	Spawn(e, "sleeper", func(p *Proc) {
		p.Sleep(10)
		wake = append(wake, p.Now())
		p.Sleep(20)
		wake = append(wake, p.Now())
	})
	e.Run()
	if len(wake) != 2 || wake[0] != 10 || wake[1] != 30 {
		t.Fatalf("wake times = %v, want [10 30]", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := sim.NewEngine()
	var order []string
	Spawn(e, "a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(10)
		order = append(order, "a20")
	})
	Spawn(e, "b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a20"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := sim.NewEngine()
	var childAt sim.Time
	Spawn(e, "parent", func(p *Proc) {
		p.Sleep(10)
		Spawn(e, "child", func(c *Proc) {
			c.Sleep(5)
			childAt = c.Now()
		})
		p.Sleep(100)
	})
	e.Run()
	if childAt != 15 {
		t.Fatalf("child woke at %v, want 15", childAt)
	}
}

// TestBlockSynchronousWake checks that a wake invoked inside register
// returns from Block at once, without suspending the proc or consuming an
// event, and that a later wake resumes the proc inside the waking event.
func TestBlockSynchronousWake(t *testing.T) {
	e := sim.NewEngine()
	var syncAt, asyncAt sim.Time
	var events, wakeEvents uint64
	Spawn(e, "p", func(p *Proc) {
		before := e.Executed()
		p.Block(func(wake func()) { wake() })
		syncAt = p.Now()
		events = e.Executed() - before
		p.Block(func(wake func()) { e.Schedule(25, wake) })
		asyncAt = p.Now()
		wakeEvents = e.Executed() - before
	})
	e.Run()
	if syncAt != 0 || events != 0 {
		t.Fatalf("synchronous wake returned at %v after %d events, want 0 and 0", syncAt, events)
	}
	if asyncAt != 25 || wakeEvents != 1 {
		t.Fatalf("asynchronous wake resumed at %v after %d events, want 25 and 1", asyncAt, wakeEvents)
	}
}

// TestAwaitHop checks that Await resumes the proc one event after an
// asynchronous completion, with its error, and inline after a synchronous
// one.
func TestAwaitHop(t *testing.T) {
	e := sim.NewEngine()
	errBoom := errors.New("boom")
	Spawn(e, "p", func(p *Proc) {
		var doneAt uint64
		err := p.Await(func(done func(error)) {
			e.Schedule(7, func() {
				doneAt = e.Executed()
				done(errBoom)
			})
		})
		if err != errBoom || p.Now() != 7 || e.Executed()-doneAt != 1 {
			t.Errorf("async: err=%v at %v after %d events, want boom at 7 after 1", err, p.Now(), e.Executed()-doneAt)
		}
		before := e.Executed()
		err = p.Await(func(done func(error)) { done(errBoom) })
		if err != errBoom || e.Executed() != before {
			t.Errorf("sync: err=%v after %d events, want boom after 0", err, e.Executed()-before)
		}
	})
	e.Run()
}

// TestFatalInsideProcReleasesEngine checks that a proc ending through
// runtime.Goexit, as t.Fatal inside a scenario does, hands control back so
// the engine runs the remaining events instead of deadlocking.
func TestFatalInsideProcReleasesEngine(t *testing.T) {
	e := sim.NewEngine()
	ran := false
	Spawn(e, "exits", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	e.Schedule(5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 5 {
		t.Fatalf("engine stopped at %v (later event ran: %v)", e.Now(), ran)
	}
}
