package iouring

import (
	"testing"

	"repro/internal/sim"
)

// Benchmarks measure the simulator's real (host) cost of ring operations —
// the model must stay cheap enough that experiment wall-clock time is
// dominated by the modelled system, not by the model.

func BenchmarkSubmitCompleteBatch32(b *testing.B) {
	eng := sim.NewEngine()
	st := &stubTarget{eng: eng, latency: 0}
	r, err := Setup(eng, Params{Entries: 64}, st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Spawn("app", func(p *sim.Proc) {
			for j := 0; j < 32; j++ {
				sqe := r.GetSQE()
				sqe.Op = OpNop
				sqe.UserData = uint64(j)
			}
			submitP(p, r)
			for j := 0; j < 32; j++ {
				waitCQE(p, r)
			}
		})
		eng.Run()
	}
}

func BenchmarkSQPollPickup(b *testing.B) {
	eng := sim.NewEngine()
	st := &stubTarget{eng: eng, latency: 0}
	r, err := Setup(eng, Params{Entries: 256, Mode: SQPollMode}, st)
	if err != nil {
		b.Fatal(err)
	}
	reaped := 0
	eng.Spawn("reaper", func(p *sim.Proc) {
		for {
			if _, err := waitCQE(p, r); err != nil {
				return
			}
			reaped++
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqe := r.GetSQE()
		if sqe == nil {
			eng.Run()
			sqe = r.GetSQE()
		}
		sqe.Op = OpNop
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
	b.StopTimer()
	r.Close()
}
