// Package simtest runs sequential test scenarios on a sim.Engine. A Proc
// is ordinary Go code that advances virtual time with Sleep and waits on a
// continuation-style operation with Block or Await. Each Proc owns a goroutine and
// hands control to and from the engine over two channels, so the engine
// runs exactly one of {event loop, some Proc} at any instant: scenarios
// need no locking and interleave deterministically.
//
// Model code is written as continuations only; Procs are a test driver,
// and no non-test file may import this package.
package simtest

import "repro/internal/sim"

// Proc is a coroutine-style test scenario on an engine.
type Proc struct {
	eng    *sim.Engine
	resume chan struct{}
	yield  chan struct{}
	done   bool
}

// Spawn starts fn as a proc at the current virtual time. fn begins when
// the engine reaches the spawn event, not immediately. The name only
// labels the scenario for a reader of the call.
func Spawn(eng *sim.Engine, name string, fn func(p *Proc)) {
	p := &Proc{
		eng:    eng,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	go func() {
		// A deferred hand-back lets fn end with t.Fatal (runtime.Goexit)
		// without stranding the engine.
		defer func() {
			p.done = true
			p.yield <- struct{}{}
		}()
		<-p.resume
		fn(p)
	}()
	eng.Schedule(0, p.step)
}

// step hands control to p and blocks until p yields or finishes. It runs
// only in engine context, inside an event.
func (p *Proc) step() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
}

// pause yields control back to the engine and blocks until resumed. It
// runs only on the proc's own goroutine.
func (p *Proc) pause() {
	p.yield <- struct{}{}
	<-p.resume
}

// Engine returns the engine the proc runs on.
func (p *Proc) Engine() *sim.Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.eng.Now() }

// Sleep suspends the proc for d of virtual time.
func (p *Proc) Sleep(d sim.Duration) {
	p.eng.Schedule(d, p.step)
	p.pause()
}

// Block suspends the proc until the wake callback handed to register is
// invoked. register runs at once in the proc's context; wake must be
// invoked exactly once, either from engine context, which resumes the proc
// inside that event, or synchronously inside register, in which case Block
// returns without suspending. It is how a Proc calls a continuation-style
// operation.
func (p *Proc) Block(register func(wake func())) {
	woke, registering := false, true
	register(func() {
		woke = true
		if !registering {
			p.step()
		}
	})
	registering = false
	for !woke {
		p.pause()
	}
}

// Await runs call and returns the error it completes with. The proc
// resumes one event after call completes, or at once when call completes
// synchronously (Engine.AwaitFunc): the timing of a wait on a one-shot
// completion.
func (p *Proc) Await(call func(done func(error))) error {
	var err error
	p.Block(func(wake func()) {
		p.eng.AwaitFunc(call, func(e error) {
			err = e
			wake()
		})
	})
	return err
}
