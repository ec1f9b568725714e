package blockmq

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fifoDevice completes requests in issue order after a fixed latency,
// with one completion callback bound once, so the device itself
// allocates nothing once its queue has grown.
type fifoDevice struct {
	eng        *sim.Engine
	latency    sim.Duration
	queue      []*Request
	completeFn func()
}

func newFIFODevice(eng *sim.Engine, latency sim.Duration) *fifoDevice {
	d := &fifoDevice{eng: eng, latency: latency}
	d.completeFn = d.complete
	return d
}

func (d *fifoDevice) QueueRq(_ int, req *Request) bool {
	d.queue = append(d.queue, req)
	d.eng.Schedule(d.latency, d.completeFn)
	return true
}

func (d *fifoDevice) complete() {
	req := d.queue[0]
	d.queue = d.queue[:copy(d.queue, d.queue[1:])]
	req.EndIO(nil)
}

// TestBypassRoundTripZeroAlloc pins that a warm bypass request —
// SubmitAsyncTenant, direct issue, EndIO, callback — allocates nothing:
// requests are pooled per MQ with their callback slice kept, EndIO's
// callback events and the dispatch kick are bound once.
func TestBypassRoundTripZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFIFODevice(eng, 5*sim.Microsecond)
	mq, err := New(eng, Config{CPUs: 2, HWQueues: 2, TagsPerHW: 8, Bypass: true}, dev)
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
		for cpu := 0; cpu < 2; cpu++ {
			mq.SubmitAsyncTenant(OpWrite, 4096, 4096, FlagRandom, cpu, 0, trace.Ref{}, done)
		}
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("warm bypass round trip allocates %.1f times, want 0", allocs)
	}
	if st := mq.Stats(); completed != 2*105 || st.Completed != st.Submitted || st.DirectHits != st.Submitted {
		t.Fatalf("completed %d, stats %+v", completed, st)
	}
}

// carrierDevice records the merged request it is handed.
type carrierDevice struct {
	*fakeDevice
	carrier *Request
}

func (d *carrierDevice) QueueRq(hctx int, req *Request) bool {
	if req.MergedBios() > 1 {
		d.carrier = req
	}
	return d.fakeDevice.QueueRq(hctx, req)
}

// TestMergedCallbacksFireOnceAndCarrierNotReused drives merges under
// mq-deadline while every completion callback submits a new request:
// each merged bio's callback fires exactly once, and no request submitted
// before the carrier's last callback reuses the carrier. The merged bios
// went back to the pool when they merged, so a carrier recycled too early
// would be the first request the pool hands out.
func TestMergedCallbacksFireOnceAndCarrierNotReused(t *testing.T) {
	eng := sim.NewEngine()
	sched := NewDeadlineScheduler(eng, sim.Microsecond, 5*sim.Millisecond)
	dev := &carrierDevice{fakeDevice: newFakeDevice(eng, 100*sim.Microsecond, 0)}
	mq, err := New(eng, Config{CPUs: 1, HWQueues: 1, TagsPerHW: 1, Scheduler: sched}, dev)
	if err != nil {
		t.Fatal(err)
	}

	const bios = 4
	fired := make([]int, bios+1)
	pending := bios
	followUps := 0
	eng.Schedule(0, func() {
		// The first request holds the only tag; the next bios contiguous
		// writes merge into one carrier behind it.
		mq.SubmitAsync(OpWrite, 1<<20, 4096, 0, 0, func(error) { fired[bios]++ })
		for i := 0; i < bios; i++ {
			i := i
			mq.SubmitAsync(OpWrite, int64(4096*i), 4096, 0, 0, func(err error) {
				fired[i]++
				pending--
				if dev.carrier == nil {
					t.Fatal("merged callback ran before the carrier was issued")
				}
				req := mq.SubmitAsync(OpRead, int64(8+i)<<20, 4096, 0, 0, func(error) { followUps++ })
				if pending > 0 && req == dev.carrier {
					t.Errorf("callback %d: carrier reused with %d callbacks still pending", i, pending)
				}
			})
		}
	})
	eng.Run()
	if sched.Merges != bios-1 {
		t.Fatalf("merges = %d, want %d", sched.Merges, bios-1)
	}
	for i, n := range fired {
		if n != 1 {
			t.Errorf("callback %d fired %d times, want 1", i, n)
		}
	}
	if followUps != bios {
		t.Fatalf("%d follow-ups completed, want %d", followUps, bios)
	}
	// Merged bios never complete on their own.
	if st := mq.Stats(); st.Submitted != st.Completed+bios-1 {
		t.Fatalf("stats %+v: submitted != completed + merged", st)
	}
}
