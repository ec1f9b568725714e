package uifd

import (
	"testing"

	"repro/internal/blockmq"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/zoned"
)

func newZonedStack(t *testing.T) (*sim.Engine, *blockmq.MQ, *ZonedDriver) {
	t.Helper()
	eng := sim.NewEngine()
	dev, err := zoned.New(zoned.Config{ZoneBytes: 1 << 20, Zones: 8, MaxOpenZones: 4})
	if err != nil {
		t.Fatal(err)
	}
	drv := NewZonedDriver(eng, zoned.NewServiceModel(eng, dev))
	mq, err := blockmq.New(eng, blockmq.Config{
		CPUs: 2, HWQueues: 2, TagsPerHW: 8, Bypass: true,
	}, drv)
	if err != nil {
		t.Fatal(err)
	}
	return eng, mq, drv
}

// submit sends one request through the block layer from a test proc and
// returns its outcome, resuming one event after it completes.
func submit(p *simtest.Proc, mq *blockmq.MQ, op blockmq.OpType, off int64, n, cpu int) error {
	return p.Await(func(done func(error)) { mq.SubmitAsync(op, off, n, 0, cpu, done) })
}

func TestZonedSequentialWriteThroughMQ(t *testing.T) {
	eng, mq, drv := newZonedStack(t)
	var errs []error
	simtest.Spawn(eng, "writer", func(p *simtest.Proc) {
		// Sequential writes into zone 0 succeed.
		for i := 0; i < 4; i++ {
			if err := submit(p, mq, blockmq.OpWrite, int64(i)*4096, 4096, 0); err != nil {
				errs = append(errs, err)
			}
		}
	})
	eng.Run()
	if len(errs) != 0 {
		t.Fatalf("sequential writes failed: %v", errs)
	}
	if _, w, e := drv.Stats(); w != 4 || e != 0 {
		t.Fatalf("stats w=%d e=%d", w, e)
	}
	z, _ := drv.Device().Zone(0)
	if z.WP != 4*4096 {
		t.Fatalf("wp = %d", z.WP)
	}
}

func TestZonedContractViolationSurfacesAsIOError(t *testing.T) {
	eng, mq, drv := newZonedStack(t)
	var gotErr error
	simtest.Spawn(eng, "writer", func(p *simtest.Proc) {
		// A write not at the write pointer must fail through the stack.
		gotErr = submit(p, mq, blockmq.OpWrite, 8192, 4096, 0)
	})
	eng.Run()
	if gotErr != zoned.ErrNotWritePointer {
		t.Fatalf("err = %v, want ErrNotWritePointer", gotErr)
	}
	if _, _, e := drv.Stats(); e != 1 {
		t.Fatalf("error count = %d", e)
	}
}

func TestZonedReadAndResetThroughDriver(t *testing.T) {
	eng, mq, drv := newZonedStack(t)
	simtest.Spawn(eng, "io", func(p *simtest.Proc) {
		submit(p, mq, blockmq.OpWrite, 0, 8192, 0)
		if err := submit(p, mq, blockmq.OpRead, 0, 8192, 1); err != nil {
			t.Errorf("read: %v", err)
		}
		// Reset and verify the zone is reusable.
		if err := p.Await(func(done func(error)) { drv.ResetZone(0, done) }); err != nil {
			t.Errorf("reset: %v", err)
		}
		if err := submit(p, mq, blockmq.OpWrite, 0, 4096, 0); err != nil {
			t.Errorf("write after reset: %v", err)
		}
	})
	eng.Run()
	if r, w, e := drv.Stats(); r != 1 || w != 2 || e != 0 {
		t.Fatalf("stats r=%d w=%d e=%d", r, w, e)
	}
}

// TestZonedAppendWait checks that appends waited on in turn land
// contiguously at device-chosen offsets and cost virtual time.
func TestZonedAppendWait(t *testing.T) {
	eng, _, drv := newZonedStack(t)
	var offs []int64
	simtest.Spawn(eng, "appender", func(p *simtest.Proc) {
		for i := 0; i < 3; i++ {
			var off int64
			err := p.Await(func(done func(error)) {
				drv.Append(2, 4096, func(o int64, err error) {
					off = o
					done(err)
				})
			})
			if err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			offs = append(offs, off)
		}
	})
	eng.Run()
	if len(offs) != 3 {
		t.Fatalf("appends = %d", len(offs))
	}
	base := int64(2) << 20
	for i, off := range offs {
		if off != base+int64(i)*4096 {
			t.Fatalf("append offsets not contiguous: %v", offs)
		}
	}
	// Appends consume virtual time (the write service cost).
	if eng.Now() == 0 {
		t.Fatal("appends were free")
	}
}
