package iouring

import (
	"testing"

	"repro/internal/sim"
)

// syncTarget completes every request inside Submit, so a round trip costs
// only what the ring itself does.
type syncTarget struct{}

func (syncTarget) Submit(req Request, complete func(res int32)) { complete(int32(req.Len)) }

// TestRoundTripZeroAlloc pins that a warm SQE→CQE round trip on an SQPOLL
// ring allocates nothing: the poller pickup is bound once per ring, and
// each SQE rides a pooled in-flight record whose deliver and complete
// steps are bound once.
func TestRoundTripZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	r, err := Setup(eng, Params{Entries: 8, Mode: SQPollMode}, syncTarget{})
	if err != nil {
		t.Fatal(err)
	}
	reaped := 0
	var reap func()
	reap = func() {
		for {
			cqe, ok := r.PeekCQE()
			if !ok {
				break
			}
			if cqe.Res != 4096 || cqe.UserData != uint64(reaped) {
				t.Errorf("CQE %d = %+v", reaped, cqe)
			}
			reaped++
		}
		r.NotifyCQE(reap)
	}
	r.NotifyCQE(reap)
	submitted := 0
	roundTrip := func() {
		sqe := r.GetSQE()
		sqe.Op = OpWrite
		sqe.Len = 4096
		sqe.BufIndex = 0
		sqe.UserData = uint64(submitted)
		submitted++
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("warm SQE→CQE round trip allocates %.1f times, want 0", allocs)
	}
	if reaped != submitted || r.InFlight() != 0 {
		t.Fatalf("reaped %d of %d, %d in flight", reaped, submitted, r.InFlight())
	}
}

// TestLinkedChainFailureReusesRecords runs a failing link chain twice on a
// warm ring: each time the failed link posts its error, the links after
// it post -ECANCELED without reaching the target, and the records the
// chain used go back to the pool for the plain SQE that follows.
func TestLinkedChainFailureReusesRecords(t *testing.T) {
	eng := sim.NewEngine()
	ot := &orderTarget{eng: eng, latency: 5 * sim.Microsecond, failOff: map[int64]bool{1: true}}
	r, err := Setup(eng, Params{Entries: 16, Mode: SQPollMode}, ot)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		ot.order = ot.order[:0]
		base := uint64(round * 10)
		for i := 0; i < 4; i++ {
			sqe := r.GetSQE()
			sqe.Op = OpWrite
			sqe.Off = int64(i)
			sqe.Len = 512
			sqe.UserData = base + uint64(i)
			if i < 3 {
				sqe.Flags = FlagIOLink
			}
		}
		eng.Run()
		sqe := r.GetSQE()
		sqe.Op = OpWrite
		sqe.Off = 7
		sqe.Len = 512
		sqe.UserData = base + 7
		eng.Run()
		results := map[uint64]int32{}
		for {
			cqe, ok := r.PeekCQE()
			if !ok {
				break
			}
			if _, dup := results[cqe.UserData]; dup {
				t.Fatalf("round %d: CQE %d posted twice", round, cqe.UserData)
			}
			results[cqe.UserData] = cqe.Res
		}
		want := map[uint64]int32{base: 512, base + 1: -5, base + 2: ECanceled, base + 3: ECanceled, base + 7: 512}
		if len(results) != len(want) {
			t.Fatalf("round %d: CQEs %v, want %v", round, results, want)
		}
		for ud, res := range want {
			if results[ud] != res {
				t.Fatalf("round %d: op %d res = %d, want %d", round, ud, results[ud], res)
			}
		}
		if len(ot.order) != 3 || ot.order[2] != 7 {
			t.Fatalf("round %d: target saw %v, want [0 1 7]", round, ot.order)
		}
		if r.InFlight() != 0 {
			t.Fatalf("round %d: %d still in flight", round, r.InFlight())
		}
	}
	if n := len(r.free); n != 1 {
		t.Fatalf("pool holds %d records, want 1 (one SQE in flight at a time)", n)
	}
}
