package iouring

import (
	"testing"

	"repro/internal/sim"
)

// orderTarget records dispatch order and can fail selected offsets.
type orderTarget struct {
	eng     *sim.Engine
	latency sim.Duration
	order   []int64
	failOff map[int64]bool
}

func (o *orderTarget) Submit(req Request, complete func(res int32)) {
	o.order = append(o.order, req.Off)
	res := int32(req.Len)
	if o.failOff[req.Off] {
		res = -5
	}
	o.eng.Schedule(o.latency, func() { complete(res) })
}

func TestLinkedChainExecutesSequentially(t *testing.T) {
	eng := sim.NewEngine()
	ot := &orderTarget{eng: eng, latency: 10 * sim.Microsecond, failOff: map[int64]bool{}}
	r, err := Setup(eng, Params{Entries: 16}, ot)
	if err != nil {
		t.Fatal(err)
	}
	var starts []sim.Time
	wrapped := &hookTarget{inner: ot, onSubmit: func() { starts = append(starts, eng.Now()) }}
	r.target = wrapped

	eng.Spawn("app", func(p *sim.Proc) {
		// write(0) -> write(1) -> fsync, linked.
		for i, op := range []Op{OpWrite, OpWrite, OpFsync} {
			sqe := r.GetSQE()
			sqe.Op = op
			sqe.Off = int64(i)
			sqe.Len = 512
			sqe.UserData = uint64(i)
			if i < 2 {
				sqe.Flags = FlagIOLink
			}
		}
		submitP(p, r)
		for i := 0; i < 3; i++ {
			cqe, err := waitCQE(p, r)
			if err != nil {
				t.Error(err)
				return
			}
			if cqe.Res < 0 {
				t.Errorf("cqe %d res %d", cqe.UserData, cqe.Res)
			}
		}
	})
	eng.Run()
	if len(starts) != 3 {
		t.Fatalf("dispatches = %d", len(starts))
	}
	// Each link starts only after the previous completes (≥ latency apart).
	for i := 1; i < 3; i++ {
		if starts[i].Sub(starts[i-1]) < 10*sim.Microsecond {
			t.Fatalf("link %d started early: %v", i, starts)
		}
	}
	if ot.order[0] != 0 || ot.order[1] != 1 || ot.order[2] != 2 {
		t.Fatalf("order = %v", ot.order)
	}
}

// hookTarget wraps a target with a dispatch hook.
type hookTarget struct {
	inner    Target
	onSubmit func()
}

func (h *hookTarget) Submit(req Request, complete func(res int32)) {
	h.onSubmit()
	h.inner.Submit(req, complete)
}

func TestLinkedChainFailureCancelsRest(t *testing.T) {
	eng := sim.NewEngine()
	ot := &orderTarget{eng: eng, latency: 5 * sim.Microsecond,
		failOff: map[int64]bool{1: true}}
	r, err := Setup(eng, Params{Entries: 16}, ot)
	if err != nil {
		t.Fatal(err)
	}
	results := map[uint64]int32{}
	eng.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			sqe := r.GetSQE()
			sqe.Op = OpWrite
			sqe.Off = int64(i)
			sqe.Len = 512
			sqe.UserData = uint64(i)
			if i < 3 {
				sqe.Flags = FlagIOLink
			}
		}
		submitP(p, r)
		for i := 0; i < 4; i++ {
			cqe, err := waitCQE(p, r)
			if err != nil {
				t.Error(err)
				return
			}
			results[cqe.UserData] = cqe.Res
		}
	})
	eng.Run()
	if results[0] != 512 {
		t.Fatalf("op0 res = %d", results[0])
	}
	if results[1] != -5 {
		t.Fatalf("op1 res = %d, want -5", results[1])
	}
	for _, ud := range []uint64{2, 3} {
		if results[ud] != ECanceled {
			t.Fatalf("op%d res = %d, want ECANCELED", ud, results[ud])
		}
	}
	// Ops 2 and 3 must never reach the device.
	if len(ot.order) != 2 {
		t.Fatalf("device saw %v", ot.order)
	}
}

func TestDrainBarrierWaitsForInflight(t *testing.T) {
	eng := sim.NewEngine()
	ot := &orderTarget{eng: eng, latency: 50 * sim.Microsecond, failOff: map[int64]bool{}}
	r, err := Setup(eng, Params{Entries: 16}, ot)
	if err != nil {
		t.Fatal(err)
	}
	var fsyncStart sim.Time
	r.target = &hookTarget{inner: ot, onSubmit: func() {
		if len(ot.order) == 2 { // about to record the third dispatch
			fsyncStart = eng.Now()
		}
	}}
	eng.Spawn("app", func(p *sim.Proc) {
		// Two writes, then a drain-flagged fsync, then reap all.
		for i := 0; i < 2; i++ {
			sqe := r.GetSQE()
			sqe.Op = OpWrite
			sqe.Off = int64(i)
			sqe.Len = 512
			sqe.UserData = uint64(i)
		}
		fs := r.GetSQE()
		fs.Op = OpFsync
		fs.Off = 99
		fs.UserData = 99
		fs.Flags = FlagIODrain
		submitP(p, r)
		for i := 0; i < 3; i++ {
			if _, err := waitCQE(p, r); err != nil {
				t.Error(err)
				return
			}
		}
	})
	eng.Run()
	// The fsync dispatch must wait for the 50µs writes.
	if fsyncStart < sim.Time(50*sim.Microsecond) {
		t.Fatalf("drain barrier violated: fsync at %v", fsyncStart)
	}
	if ot.order[len(ot.order)-1] != 99 {
		t.Fatalf("fsync not last: %v", ot.order)
	}
}

func TestRegisterBuffers(t *testing.T) {
	eng := sim.NewEngine()
	ot := &orderTarget{eng: eng, latency: 0, failOff: map[int64]bool{}}
	r, err := Setup(eng, Params{Entries: 8}, ot)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterBuffers(nil); err == nil {
		t.Fatal("empty table accepted")
	}
	if err := r.RegisterBuffers([]int{4096, 0}); err == nil {
		t.Fatal("zero-size buffer accepted")
	}
	if err := r.RegisterBuffers([]int{4096, 65536}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterBuffers([]int{1}); err == nil {
		t.Fatal("double registration accepted")
	}
	if r.RegisteredBuffers() != 2 {
		t.Fatalf("table size = %d", r.RegisteredBuffers())
	}

	results := map[uint64]int32{}
	eng.Spawn("app", func(p *sim.Proc) {
		// Valid fixed buffer.
		a := r.GetSQE()
		a.Op = OpWrite
		a.Len = 4096
		a.BufIndex = 0
		a.UserData = 1
		// Out-of-table index.
		b := r.GetSQE()
		b.Op = OpWrite
		b.Len = 512
		b.BufIndex = 9
		b.UserData = 2
		// Length exceeding the registered buffer.
		c := r.GetSQE()
		c.Op = OpWrite
		c.Len = 8192
		c.BufIndex = 0
		c.UserData = 3
		submitP(p, r)
		for i := 0; i < 3; i++ {
			cqe, err := waitCQE(p, r)
			if err != nil {
				t.Error(err)
				return
			}
			results[cqe.UserData] = cqe.Res
		}
	})
	eng.Run()
	if results[1] != 4096 {
		t.Fatalf("valid fixed write res = %d", results[1])
	}
	if results[2] != ResEFAULT || results[3] != ResEFAULT {
		t.Fatalf("invalid fixed writes res = %d, %d (want -EFAULT)", results[2], results[3])
	}
	// Only the valid op reached the device.
	if len(ot.order) != 1 {
		t.Fatalf("device saw %d ops", len(ot.order))
	}
	r.UnregisterBuffers()
	if r.RegisteredBuffers() != 0 {
		t.Fatal("unregister failed")
	}
}

// TestLinkedChainSpansSQPollBatches covers the chain-straddles-drains case:
// GetSQE publishes entries one at a time, so the SQPOLL poller can drain a
// link chain whose tail has not been written yet. The open chain must be
// parked and resumed by the next drain — not silently split into two
// independent chains.
func TestLinkedChainSpansSQPollBatches(t *testing.T) {
	for _, fail := range []bool{false, true} {
		name := "complete"
		if fail {
			name = "headFails"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			failOff := map[int64]bool{}
			if fail {
				failOff[0] = true
			}
			ot := &orderTarget{eng: eng, latency: 10 * sim.Microsecond, failOff: failOff}
			r, err := Setup(eng, Params{Entries: 16, Mode: SQPollMode}, ot)
			if err != nil {
				t.Fatal(err)
			}
			var starts []sim.Time
			r.target = &hookTarget{inner: ot, onSubmit: func() { starts = append(starts, eng.Now()) }}

			results := map[uint64]int32{}
			eng.Spawn("app", func(p *sim.Proc) {
				// Publish the first two links, then stall long enough for the
				// poller to drain them with the chain still open.
				for i := 0; i < 2; i++ {
					sqe := r.GetSQE()
					sqe.Op = OpWrite
					sqe.Off = int64(i)
					sqe.Len = 512
					sqe.UserData = uint64(i)
					sqe.Flags = FlagIOLink
				}
				p.Sleep(10 * r.Params().SQPollLatency)
				if r.SQPending() != 0 {
					t.Errorf("poller did not drain the open chain: %d pending", r.SQPending())
				}
				if len(starts) != 0 {
					t.Errorf("open chain dispatched early: %d starts", len(starts))
				}
				// Now publish the chain's tail; the next poll must resume the
				// parked chain rather than start a fresh one.
				sqe := r.GetSQE()
				sqe.Op = OpFsync
				sqe.Off = 2
				sqe.Len = 512
				sqe.UserData = 2
				for i := 0; i < 3; i++ {
					cqe, err := waitCQE(p, r)
					if err != nil {
						t.Error(err)
						return
					}
					results[cqe.UserData] = cqe.Res
				}
			})
			eng.Run()
			if fail {
				if results[0] != -5 {
					t.Fatalf("op0 res = %d, want -5", results[0])
				}
				for _, ud := range []uint64{1, 2} {
					if results[ud] != ECanceled {
						t.Fatalf("op%d res = %d, want ECANCELED", ud, results[ud])
					}
				}
				// The cancelled links — including the tail published after the
				// park — must never reach the device.
				if len(ot.order) != 1 {
					t.Fatalf("device saw %v", ot.order)
				}
				return
			}
			for i := uint64(0); i < 3; i++ {
				if results[i] != 512 {
					t.Fatalf("op%d res = %d, want 512", i, results[i])
				}
			}
			if len(ot.order) != 3 || ot.order[0] != 0 || ot.order[1] != 1 || ot.order[2] != 2 {
				t.Fatalf("order = %v", ot.order)
			}
			// Each link waits for its predecessor even across the drain gap.
			for i := 1; i < 3; i++ {
				if starts[i].Sub(starts[i-1]) < 10*sim.Microsecond {
					t.Fatalf("link %d started early: %v", i, starts)
				}
			}
		})
	}
}

// TestLinkedChainTruncatesAtSubmitBoundary checks the submit-boundary rule:
// an explicit enter whose final SQE still carries FlagIOLink has nothing to
// link to, so the chain dispatches truncated (as Linux treats a chain cut by
// the to_submit window) and later submissions start a fresh chain.
func TestLinkedChainTruncatesAtSubmitBoundary(t *testing.T) {
	eng := sim.NewEngine()
	ot := &orderTarget{eng: eng, latency: 10 * sim.Microsecond,
		failOff: map[int64]bool{1: true}}
	r, err := Setup(eng, Params{Entries: 16}, ot)
	if err != nil {
		t.Fatal(err)
	}
	results := map[uint64]int32{}
	eng.Spawn("app", func(p *sim.Proc) {
		// Both SQEs carry FlagIOLink: the second one's link dangles past the
		// submit window.
		for i := 0; i < 2; i++ {
			sqe := r.GetSQE()
			sqe.Op = OpWrite
			sqe.Off = int64(i)
			sqe.Len = 512
			sqe.UserData = uint64(i)
			sqe.Flags = FlagIOLink
		}
		if _, err := submitP(p, r); err != nil {
			t.Error(err)
			return
		}
		// A later submission must not join the truncated chain — op1 fails,
		// but op2 still runs.
		sqe := r.GetSQE()
		sqe.Op = OpWrite
		sqe.Off = 2
		sqe.Len = 512
		sqe.UserData = 2
		if _, err := submitP(p, r); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 3; i++ {
			cqe, err := waitCQE(p, r)
			if err != nil {
				t.Error(err)
				return
			}
			results[cqe.UserData] = cqe.Res
		}
	})
	eng.Run()
	if results[0] != 512 {
		t.Fatalf("op0 res = %d, want 512", results[0])
	}
	if results[1] != -5 {
		t.Fatalf("op1 res = %d, want -5", results[1])
	}
	if results[2] != 512 {
		t.Fatalf("op2 res = %d, want 512 (must not be chain-cancelled)", results[2])
	}
	// All three reach the device: 0 and 1 as a truncated two-link chain, 2
	// independently.
	if len(ot.order) != 3 {
		t.Fatalf("device saw %v", ot.order)
	}
}
