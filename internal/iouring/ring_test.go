package iouring

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// stubTarget completes each request after a fixed latency and records what
// it saw.
type stubTarget struct {
	eng     *sim.Engine
	latency sim.Duration
	reqs    []Request
}

func (s *stubTarget) Submit(req Request, complete func(res int32)) {
	s.reqs = append(s.reqs, req)
	res := int32(req.Len)
	s.eng.Schedule(s.latency, func() { complete(res) })
}

// submitP is Ring.Submit blocking the calling proc until the enter returns.
func submitP(p *simtest.Proc, r *Ring) (n int, err error) {
	p.Block(func(wake func()) {
		r.Submit(func(m int, e error) {
			n, err = m, e
			wake()
		})
	})
	return n, err
}

// waitCQE is Ring.WaitCQE blocking the calling proc until a completion is
// reaped.
func waitCQE(p *simtest.Proc, r *Ring) (cqe CQE, err error) {
	p.Block(func(wake func()) {
		r.WaitCQE(func(c CQE, e error) {
			cqe, err = c, e
			wake()
		})
	})
	return cqe, err
}

func newRingT(t *testing.T, eng *sim.Engine, params Params, lat sim.Duration) (*Ring, *stubTarget) {
	t.Helper()
	st := &stubTarget{eng: eng, latency: lat}
	r, err := Setup(eng, params, st)
	if err != nil {
		t.Fatal(err)
	}
	return r, st
}

func TestSetupDefaults(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 100}, 0)
	if r.SQSize() != 128 {
		t.Fatalf("SQ size = %d, want 128 (pow2 round-up)", r.SQSize())
	}
	if r.Params().SyscallCost != DefaultSyscallCost {
		t.Fatal("defaults not applied")
	}
	if _, err := Setup(eng, Params{}, nil); err == nil {
		t.Fatal("nil target accepted")
	}
}

func TestSubmitAndComplete(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 8}, 10*sim.Microsecond)
	var got []CQE
	simtest.Spawn(eng, "app", func(p *simtest.Proc) {
		for i := 0; i < 4; i++ {
			sqe := r.GetSQE()
			if sqe == nil {
				t.Error("GetSQE returned nil")
				return
			}
			sqe.Op = OpWrite
			sqe.Len = 4096
			sqe.UserData = uint64(i)
		}
		n, err := submitP(p, r)
		if err != nil || n != 4 {
			t.Errorf("Submit = %d, %v", n, err)
			return
		}
		for i := 0; i < 4; i++ {
			cqe, err := waitCQE(p, r)
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, cqe)
		}
	})
	eng.Run()
	if len(got) != 4 {
		t.Fatalf("reaped %d CQEs", len(got))
	}
	seen := map[uint64]bool{}
	for _, c := range got {
		if c.Res != 4096 {
			t.Fatalf("Res = %d", c.Res)
		}
		seen[c.UserData] = true
	}
	if len(seen) != 4 {
		t.Fatal("duplicate user data")
	}
	if len(st.reqs) != 4 {
		t.Fatalf("target saw %d requests", len(st.reqs))
	}
	enters, submitted, completed, overflow, _ := r.Stats()
	if enters != 1 || submitted != 4 || completed != 4 || overflow != 0 {
		t.Fatalf("stats: %d %d %d %d", enters, submitted, completed, overflow)
	}
}

func TestBatchingAmortizesSyscalls(t *testing.T) {
	// Submitting 32 SQEs in one Enter must cost far less app time than 32
	// single-SQE Enters.
	run := func(batch int) sim.Duration {
		eng := sim.NewEngine()
		r, _ := newRingT(t, eng, Params{Entries: 64}, 0)
		var spent sim.Duration
		simtest.Spawn(eng, "app", func(p *simtest.Proc) {
			start := p.Now()
			for i := 0; i < 32; i += batch {
				for j := 0; j < batch; j++ {
					sqe := r.GetSQE()
					sqe.Op = OpNop
					sqe.UserData = uint64(i + j)
				}
				if _, err := submitP(p, r); err != nil {
					t.Error(err)
				}
			}
			spent = p.Now().Sub(start)
		})
		eng.Run()
		return spent
	}
	batched := run(32)
	single := run(1)
	if batched >= single {
		t.Fatalf("batched submit (%v) not cheaper than singles (%v)", batched, single)
	}
	// 32 syscalls vs 1: the difference must be ~31 syscall costs.
	if single-batched < 30*DefaultSyscallCost {
		t.Fatalf("syscall amortization too small: %v", single-batched)
	}
}

func TestSQFull(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 4}, 0)
	for i := 0; i < 4; i++ {
		if r.GetSQE() == nil {
			t.Fatal("premature SQ full")
		}
	}
	if r.GetSQE() != nil {
		t.Fatal("SQ overfilled")
	}
	if r.SQPending() != 4 {
		t.Fatalf("pending = %d", r.SQPending())
	}
}

func TestSQPollModeNoSyscalls(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 8, Mode: SQPollMode}, 5*sim.Microsecond)
	simtest.Spawn(eng, "app", func(p *simtest.Proc) {
		for i := 0; i < 3; i++ {
			sqe := r.GetSQE()
			sqe.Op = OpRead
			sqe.Len = 512
			sqe.UserData = uint64(i)
		}
		// No Submit call at all: the kernel poller must pick the SQEs up.
		for i := 0; i < 3; i++ {
			if _, err := waitCQE(p, r); err != nil {
				t.Error(err)
			}
		}
	})
	eng.Run()
	enters, submitted, _, _, _ := r.Stats()
	if enters != 0 {
		t.Fatalf("SQPOLL mode made %d enter syscalls", enters)
	}
	if submitted != 3 || len(st.reqs) != 3 {
		t.Fatalf("submitted=%d target=%d", submitted, len(st.reqs))
	}
}

func TestSQPollPickupLatency(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 8, Mode: SQPollMode}, 0)
	sqe := r.GetSQE()
	sqe.Op = OpNop
	eng.Run()
	if len(st.reqs) != 1 {
		t.Fatal("poller never picked up SQE")
	}
	if eng.Now() != sim.Time(DefaultSQPollLatency) {
		t.Fatalf("pickup at %v, want %v", eng.Now(), DefaultSQPollLatency)
	}
}

func TestInterruptModeWakeupCost(t *testing.T) {
	lat := 20 * sim.Microsecond
	run := func(mode Mode) sim.Duration {
		eng := sim.NewEngine()
		r, _ := newRingT(t, eng, Params{Entries: 8, Mode: mode}, lat)
		var done sim.Duration
		simtest.Spawn(eng, "app", func(p *simtest.Proc) {
			sqe := r.GetSQE()
			sqe.Op = OpRead
			sqe.Len = 4096
			sqe.BufIndex = 0 // registered: no copy cost in either mode
			start := p.Now()
			submitP(p, r)
			waitCQE(p, r)
			done = p.Now().Sub(start)
		})
		eng.Run()
		return done
	}
	intr := run(InterruptMode)
	poll := run(PolledMode)
	if intr <= poll {
		t.Fatalf("interrupt (%v) not slower than polled (%v)", intr, poll)
	}
	if intr-poll != DefaultWakeupCost {
		t.Fatalf("wakeup delta = %v, want %v", intr-poll, DefaultWakeupCost)
	}
}

func TestRegisteredBuffersSkipCopy(t *testing.T) {
	lat := sim.Duration(0)
	run := func(bufIndex int32) sim.Time {
		eng := sim.NewEngine()
		r, st := newRingT(t, eng, Params{Entries: 8}, lat)
		simtest.Spawn(eng, "app", func(p *simtest.Proc) {
			sqe := r.GetSQE()
			sqe.Op = OpWrite
			sqe.Len = 128 * 1024
			sqe.BufIndex = bufIndex
			submitP(p, r)
			waitCQE(p, r)
		})
		eng.Run()
		if len(st.reqs) != 1 {
			t.Fatal("no request seen")
		}
		if (bufIndex >= 0) != st.reqs[0].Registered {
			t.Fatal("Registered flag wrong")
		}
		return eng.Now()
	}
	registered := run(0)
	unregistered := run(-1)
	if unregistered <= registered {
		t.Fatalf("unregistered (%v) not slower than registered (%v)", unregistered, registered)
	}
}

func TestCQOverflowCounted(t *testing.T) {
	eng := sim.NewEngine()
	// SQ 4 → CQ 8. Complete 10 ops without reaping: 2 must overflow.
	r, _ := newRingT(t, eng, Params{Entries: 4}, 0)
	simtest.Spawn(eng, "app", func(p *simtest.Proc) {
		for round := 0; round < 3; round++ {
			for i := 0; i < 4; i++ {
				if sqe := r.GetSQE(); sqe != nil {
					sqe.Op = OpNop
				}
			}
			submitP(p, r)
		}
	})
	eng.Run()
	_, _, _, overflow, _ := r.Stats()
	if overflow != 4 { // 12 submitted, 8 CQ slots
		t.Fatalf("overflow = %d, want 4", overflow)
	}
}

func TestPeekCQEEmpty(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 4}, 0)
	if _, ok := r.PeekCQE(); ok {
		t.Fatal("PeekCQE on empty CQ returned ok")
	}
}

func TestClosedRing(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 4}, 0)
	r.Close()
	if r.GetSQE() != nil {
		t.Fatal("GetSQE on closed ring")
	}
	simtest.Spawn(eng, "app", func(p *simtest.Proc) {
		if _, err := submitP(p, r); err != ErrRingClosed {
			t.Errorf("Submit err = %v", err)
		}
		if _, err := waitCQE(p, r); err != ErrRingClosed {
			t.Errorf("WaitCQE err = %v", err)
		}
	})
	eng.Run()
}

func TestCPUAffinityForwarded(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 4, CPU: 5}, 0)
	simtest.Spawn(eng, "app", func(p *simtest.Proc) {
		sqe := r.GetSQE()
		sqe.Op = OpRead
		submitP(p, r)
	})
	eng.Run()
	if st.reqs[0].CPU != 5 {
		t.Fatalf("CPU = %d, want 5", st.reqs[0].CPU)
	}
}

// Property: the ring never loses or duplicates completions for any
// interleaving of batch sizes that fits the SQ.
func TestRingConservationProperty(t *testing.T) {
	f := func(batchSizes []uint8) bool {
		eng := sim.NewEngine()
		st := &stubTarget{eng: eng, latency: 3 * sim.Microsecond}
		r, err := Setup(eng, Params{Entries: 256}, st)
		if err != nil {
			return false
		}
		var want uint64
		seen := make(map[uint64]int)
		ok := true
		simtest.Spawn(eng, "app", func(p *simtest.Proc) {
			var id uint64
			for _, bs := range batchSizes {
				n := int(bs%16) + 1
				for i := 0; i < n; i++ {
					sqe := r.GetSQE()
					if sqe == nil {
						break
					}
					sqe.Op = OpNop
					sqe.UserData = id
					id++
					want++
				}
				if _, err := submitP(p, r); err != nil {
					ok = false
					return
				}
				// Reap everything before the next batch.
				for r.InFlight() > 0 || r.CQReady() > 0 {
					cqe, err := waitCQE(p, r)
					if err != nil {
						ok = false
						return
					}
					seen[cqe.UserData]++
				}
			}
		})
		eng.Run()
		if !ok || uint64(len(seen)) != want {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Regression: concurrent enter "threads" must not double-consume SQEs.
// Each of several procs observes the same pending count and calls Submit;
// the ring may only dispatch each SQE once and the head must never pass
// the tail.
func TestConcurrentEntersNoDoubleDrain(t *testing.T) {
	eng := sim.NewEngine()
	r, st := newRingT(t, eng, Params{Entries: 16}, 5*sim.Microsecond)
	for i := 0; i < 8; i++ {
		sqe := r.GetSQE()
		sqe.Op = OpNop
		sqe.UserData = uint64(i)
	}
	for i := 0; i < 8; i++ {
		simtest.Spawn(eng, "enter", func(p *simtest.Proc) {
			submitP(p, r)
		})
	}
	eng.Run()
	if len(st.reqs) != 8 {
		t.Fatalf("target saw %d requests, want 8", len(st.reqs))
	}
	if r.SQPending() != 0 {
		t.Fatalf("SQPending = %d after concurrent enters (head overran tail?)", r.SQPending())
	}
	_, submitted, _, _, _ := r.Stats()
	if submitted != 8 {
		t.Fatalf("submitted = %d, want 8", submitted)
	}
	// The ring must be reusable afterwards.
	sqe := r.GetSQE()
	if sqe == nil {
		t.Fatal("ring unusable after concurrent enters")
	}
}

func TestMaxInFlightTracked(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 16}, 50*sim.Microsecond)
	simtest.Spawn(eng, "app", func(p *simtest.Proc) {
		for i := 0; i < 8; i++ {
			sqe := r.GetSQE()
			sqe.Op = OpNop
		}
		submitP(p, r)
	})
	eng.Run()
	_, _, _, _, maxIF := r.Stats()
	if maxIF != 8 {
		t.Fatalf("maxInFlight = %d, want 8", maxIF)
	}
}

// TestWarmCQEReapZeroAlloc pins the completion side of a reaper built on
// NotifyCQE: posting a CQE, the wake event, the PeekCQE drain and the
// re-armed one-shot wake allocate nothing once warm.
func TestWarmCQEReapZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newRingT(t, eng, Params{Entries: 8, Mode: SQPollMode}, 0)
	reaped := 0
	var reap func()
	reap = func() {
		for {
			if _, ok := r.PeekCQE(); !ok {
				break
			}
			reaped++
		}
		r.NotifyCQE(reap)
	}
	r.NotifyCQE(reap)
	post := func() {
		r.postCQE(CQE{UserData: 1})
		eng.Run()
	}
	post()
	if allocs := testing.AllocsPerRun(100, post); allocs != 0 {
		t.Errorf("warm CQE reap allocates %.1f times, want 0", allocs)
	}
	if reaped != 102 {
		t.Fatalf("reaped %d CQEs, want 102", reaped)
	}
}
