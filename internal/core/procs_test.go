package core

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestNoPerOpProcs pins the concurrency model of every stack shape: the
// host APIs (ring reapers and interrupt-mode enters, the NBD daemon loop),
// the D1/D2 datapaths, the ring targets, the software client, the OSD
// service, the fan-out and the cache tier are all continuations, so from
// NewTestbed through Close they start no goroutine: Close leaves none
// behind without another engine run.
func TestNoPerOpProcs(t *testing.T) {
	for _, c := range []struct {
		spec string
		bs   int
	}{
		{"deliba-k-hw", 4096},
		{"deliba-k-sw+ec", 16 << 10},
		{"deliba-k-hw+cache-lsvd", 4096},
		{"deliba-k-hw+interrupt", 4096},
		{"deliba-1-hw", 4096},
		{"deliba-2-hw", 4096},
		{"deliba-2-sw", 4096},
	} {
		t.Run(c.spec, func(t *testing.T) {
			spec, err := ParseStackSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			goroutines := runtime.NumGoroutine()
			tb, err := NewTestbed(DefaultTestbedConfig())
			if err != nil {
				t.Fatal(err)
			}
			stack, err := tb.BuildStack(spec)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(7)
			objBytes := int64(tb.Cfg.ObjectBytes)
			blocks := int(stack.ImageBytes()/int64(c.bs)) - 1
			// run keeps 48 ops outstanding from callbacks alone (no
			// driver proc) until n have completed; every tenth op
			// straddles an object boundary, so two extents.
			run := func(n int) {
				issued, completed := 0, 0
				var next func(cpu int)
				next = func(cpu int) {
					if issued == n {
						return
					}
					issued++
					op := Write
					if rng.Intn(2) == 0 {
						op = Read
					}
					off := int64(rng.Intn(blocks)) * int64(c.bs)
					if issued%10 == 0 {
						off = int64(1+rng.Intn(7))*objBytes - int64(c.bs)/2
					}
					stack.Submit(op, Rand, off, c.bs, cpu, func(err error) {
						if err != nil {
							t.Errorf("op at %d: %v", off, err)
						}
						completed++
						next(cpu)
					})
				}
				for slot := 0; slot < 48; slot++ {
					next(slot % DKInstances)
				}
				tb.Eng.Run()
				if completed != n {
					t.Fatalf("completed %d of %d ops", completed, n)
				}
			}
			run(1000)
			run(1000)
			stack.Close()
			// Goroutines parked by earlier tests may exit meanwhile, so
			// only growth is a leak.
			if got := runtime.NumGoroutine(); got > goroutines {
				t.Errorf("%d goroutines after Close, %d before NewTestbed", got, goroutines)
			}
		})
	}
}

// TestSubmitAfterCloseFailsOnce checks that every stack shape fails a
// submission made after Close exactly once, with an error. A closed ring
// hands out no SQE, which the SQ-full backoff once retried forever; the
// engine runs to a deadline so such a livelock fails instead of hanging.
func TestSubmitAfterCloseFailsOnce(t *testing.T) {
	for _, name := range []string{"deliba-1-hw", "deliba-2-sw", "deliba-2-hw",
		"deliba-k-sw", "deliba-k-hw", "deliba-k-hw+cache-lsvd"} {
		t.Run(name, func(t *testing.T) {
			spec, err := ParseStackSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			tb := newSpecTestbed(t)
			stack, err := tb.BuildStack(spec)
			if err != nil {
				t.Fatal(err)
			}
			tb.Eng.Run()
			stack.Close()
			calls := 0
			var got error
			stack.Submit(Write, Seq, 0, 4096, 0, func(err error) {
				calls++
				got = err
			})
			tb.Eng.RunUntil(tb.Eng.Now().Add(10 * sim.Millisecond))
			if calls != 1 {
				t.Fatalf("done ran %d times, want once", calls)
			}
			if !errors.Is(got, errStackClosed) {
				t.Fatalf("submit after Close: err = %v, want %v", got, errStackClosed)
			}
		})
	}
}
