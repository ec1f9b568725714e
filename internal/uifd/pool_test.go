package uifd

import (
	"testing"

	"repro/internal/blockmq"
	"repro/internal/qdma"
	"repro/internal/sim"
	"repro/internal/trace"
)

// syncBackend finishes card processing at once.
type syncBackend struct{}

func (syncBackend) Process(_ CardRequest, done func(error)) { done(nil) }

// TestQueueRqZeroAlloc pins that a warm block request through the driver
// — QueueRq, the H2C transfer on a real QDMA engine, the card backend, the
// C2H transfer, EndIO — allocates nothing: the driver pools its request
// records and the engine its transfer records, each with steps bound once.
func TestQueueRqZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	qe := qdma.New(eng, qdma.DefaultConfig())
	drv, err := NewDriver(eng, qe, syncBackend{}, Config{HWQueues: 2, Queue: qdma.ReplicationQueue})
	if err != nil {
		t.Fatal(err)
	}
	mq, err := blockmq.New(eng, blockmq.Config{CPUs: 2, HWQueues: 2, TagsPerHW: 16, Bypass: true}, drv)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
	}
	roundTrip := func() {
		mq.SubmitAsyncTenant(blockmq.OpWrite, 4096, 4096, blockmq.FlagRandom, 0, 0, trace.Ref{}, done)
		mq.SubmitAsyncTenant(blockmq.OpRead, 8192, 4096, blockmq.FlagRandom, 1, 0, trace.Ref{}, done)
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("warm QueueRq→EndIO allocates %.1f times, want 0", allocs)
	}
	if reads, writes := drv.Stats(); completed != 2*105 || reads != 105 || writes != 105 {
		t.Fatalf("completed %d, driver reads %d writes %d", completed, reads, writes)
	}
}

// batchBackend holds card requests until want of them have arrived, then
// finishes them all in one event.
type batchBackend struct {
	eng     *sim.Engine
	want    int
	held    []func(error)
	release func()
}

func (b *batchBackend) Process(_ CardRequest, done func(error)) {
	b.held = append(b.held, done)
	if len(b.held) == b.want {
		b.eng.Schedule(0, b.release)
	}
}

// TestC2HRingFullCompletesOnce finishes several reads on the card at the
// same instant over a one-deep C2H ring: all but one response find the
// ring full and retry, and every request still completes exactly once.
func TestC2HRingFullCompletesOnce(t *testing.T) {
	const reads = 5
	eng := sim.NewEngine()
	cfg := qdma.DefaultConfig()
	cfg.RingDepth = 1
	qe := qdma.New(eng, cfg)
	be := &batchBackend{eng: eng, want: reads}
	drv, err := NewDriver(eng, qe, be, Config{HWQueues: 1, Queue: qdma.ReplicationQueue})
	if err != nil {
		t.Fatal(err)
	}
	mq, err := blockmq.New(eng, blockmq.Config{CPUs: 1, HWQueues: 1, TagsPerHW: 8, Bypass: true}, drv)
	if err != nil {
		t.Fatal(err)
	}
	qs := drv.QueueSets()[0]
	be.release = func() {
		for _, done := range be.held {
			done(nil)
		}
		if got := qs.Pending(qdma.C2H); got != 1 {
			t.Errorf("C2H pending after release = %d, want 1 (ring full)", got)
		}
		if got := mq.Stats().Completed; got != 0 {
			t.Errorf("%d requests completed before any C2H finished", got)
		}
	}
	fired := make([]int, reads)
	for i := 0; i < reads; i++ {
		i := i
		// Space the submissions so each command clears the one-deep H2C
		// ring before the next arrives.
		eng.Schedule(sim.Duration(i)*10*sim.Microsecond, func() {
			mq.SubmitAsync(blockmq.OpRead, int64(i)<<20, 64<<10, 0, 0, func(err error) {
				if err != nil {
					t.Error(err)
				}
				fired[i]++
			})
		})
	}
	eng.Run()
	for i, n := range fired {
		if n != 1 {
			t.Errorf("read %d completed %d times, want 1", i, n)
		}
	}
	if r, _ := drv.Stats(); r != reads {
		t.Fatalf("driver completed %d reads, want %d", r, reads)
	}
	if qs.Pending(qdma.C2H) != 0 || qs.Pending(qdma.H2C) != 0 {
		t.Fatal("descriptors left pending")
	}
}
