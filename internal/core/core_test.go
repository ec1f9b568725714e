package core

import (
	"testing"

	"repro/internal/rados"
	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

// do runs one I/O from a test proc and returns its outcome.
func do(p *simtest.Proc, s Stack, op OpType, pattern Pattern, off int64, n int, cpu int) error {
	return doDeadline(p, s, op, pattern, off, n, cpu, 0)
}

// doDeadline is do with a per-op deadline: it returns rados.ErrDeadline if
// the I/O has not completed after d, and the abandoned I/O keeps running
// in the stack. d <= 0 waits forever. Like a proc awaiting a one-shot
// completion, the proc resumes one event after the I/O completes
// (Engine.AwaitFunc), or at once when it completes synchronously.
func doDeadline(p *simtest.Proc, s Stack, op OpType, pattern Pattern, off int64, n int, cpu int, d sim.Duration) error {
	eng := p.Engine()
	var err error
	p.Block(func(wake func()) {
		waiting := true
		var timer sim.EventID
		eng.AwaitFunc(func(done func(error)) { s.Submit(op, pattern, off, n, cpu, done) }, func(e error) {
			if !waiting {
				return // the deadline already resumed the proc
			}
			waiting = false
			eng.Cancel(timer)
			err = e
			wake()
		})
		if waiting && d > 0 {
			timer = eng.Schedule(d, func() {
				waiting = false
				err = rados.ErrDeadline
				wake()
			})
		}
	})
	return err
}

// measureQD1 runs ops sequential operations at queue depth 1 and returns
// the mean latency.
func measureQD1(t *testing.T, kind StackKind, ec bool, op OpType, pattern Pattern, size, ops int) sim.Duration {
	t.Helper()
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tb.NewStack(kind, ec)
	if err != nil {
		t.Fatal(err)
	}
	var total sim.Duration
	simtest.Spawn(tb.Eng, "bench", func(p *simtest.Proc) {
		rng := sim.NewRNG(1)
		for i := 0; i < ops; i++ {
			var off int64
			if pattern == Rand {
				off = rng.Int63n(tb.Cfg.ImageBytes/int64(size)) * int64(size)
			} else {
				off = int64(i*size) % (tb.Cfg.ImageBytes - int64(size))
			}
			start := p.Now()
			if err := do(p, stack, op, pattern, off, size, i%DKInstances); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
			total += p.Now().Sub(start)
		}
	})
	tb.Eng.Run()
	stack.Close()
	return total / sim.Duration(ops)
}

func TestDKHWLatencyAnchors(t *testing.T) {
	// Table II (DeLiBA-K, 4 kB replication): 40/52/64/68 µs.
	cases := []struct {
		op      OpType
		pattern Pattern
		lo, hi  sim.Duration
	}{
		{Read, Seq, 25 * sim.Microsecond, 55 * sim.Microsecond},
		{Write, Seq, 35 * sim.Microsecond, 65 * sim.Microsecond},
		{Read, Rand, 50 * sim.Microsecond, 80 * sim.Microsecond},
		{Write, Rand, 50 * sim.Microsecond, 85 * sim.Microsecond},
	}
	for _, c := range cases {
		got := measureQD1(t, StackDKHW, false, c.op, c.pattern, 4096, 40)
		if got < c.lo || got > c.hi {
			t.Errorf("DK-HW %v-%v 4kB latency = %v, want [%v, %v]",
				c.pattern, c.op, got, c.lo, c.hi)
		}
	}
}

func TestGenerationLatencyOrdering(t *testing.T) {
	// At 4 kB the paper's ordering must hold per op/pattern:
	// DK < D2 < D1 (hardware) and DK-HW < DK-SW, D2-HW < D2-SW.
	type m = map[StackKind]sim.Duration
	for _, c := range []struct {
		op      OpType
		pattern Pattern
	}{{Read, Rand}, {Write, Rand}, {Read, Seq}, {Write, Seq}} {
		lat := m{}
		for _, kind := range []StackKind{StackDKHW, StackD2HW, StackD1HW, StackDKSW, StackD2SW} {
			lat[kind] = measureQD1(t, kind, false, c.op, c.pattern, 4096, 30)
		}
		if !(lat[StackDKHW] < lat[StackD2HW] && lat[StackD2HW] < lat[StackD1HW]) {
			t.Errorf("%v-%v: HW ordering violated: DK=%v D2=%v D1=%v",
				c.pattern, c.op, lat[StackDKHW], lat[StackD2HW], lat[StackD1HW])
		}
		if lat[StackDKHW] >= lat[StackDKSW] {
			t.Errorf("%v-%v: DK-HW (%v) not faster than DK-SW (%v)",
				c.pattern, c.op, lat[StackDKHW], lat[StackDKSW])
		}
		if lat[StackDKSW] >= lat[StackD2SW] {
			t.Errorf("%v-%v: DK-SW (%v) not faster than D2-SW (%v)",
				c.pattern, c.op, lat[StackDKSW], lat[StackD2SW])
		}
	}
}

func TestSoftwareBaselineAnchors(t *testing.T) {
	// Fig 3: 4 kB random read ~85 µs (DK-SW) vs ~130 µs (D2-SW);
	// random write ~80 µs vs ~98 µs.
	rrDK := measureQD1(t, StackDKSW, false, Read, Rand, 4096, 40)
	rrD2 := measureQD1(t, StackD2SW, false, Read, Rand, 4096, 40)
	rwDK := measureQD1(t, StackDKSW, false, Write, Rand, 4096, 40)
	rwD2 := measureQD1(t, StackD2SW, false, Write, Rand, 4096, 40)
	check := func(name string, got, want sim.Duration) {
		lo := want * 7 / 10
		hi := want * 13 / 10
		if got < lo || got > hi {
			t.Errorf("%s = %v, want ~%v (±30%%)", name, got, want)
		}
	}
	check("DK-SW rand read", rrDK, 85*sim.Microsecond)
	check("D2-SW rand read", rrD2, 130*sim.Microsecond)
	check("DK-SW rand write", rwDK, 80*sim.Microsecond)
	check("D2-SW rand write", rwD2, 98*sim.Microsecond)
}

func TestECFasterThanReplicationOnDK(t *testing.T) {
	// Table II: DeLiBA-K EC latencies (38/47/59/60) are slightly below the
	// replication ones (40/52/64/68).
	for _, c := range []struct {
		op      OpType
		pattern Pattern
	}{{Write, Rand}, {Write, Seq}} {
		repl := measureQD1(t, StackDKHW, false, c.op, c.pattern, 4096, 30)
		ec := measureQD1(t, StackDKHW, true, c.op, c.pattern, 4096, 30)
		// The paper's EC latencies sit at or just below replication's; our
		// 2-replica testbed narrows the byte-volume gap, so allow EC to
		// land within 20% (EXPERIMENTS.md discusses the residual).
		if ec > repl*120/100 {
			t.Errorf("%v-%v: EC latency %v ≫ replication %v", c.pattern, c.op, ec, repl)
		}
	}
}

func TestD1RejectsEC(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NewStack(StackD1HW, true); err == nil {
		t.Fatal("DeLiBA-1 EC stack built; the paper says D1 had no EC accelerators")
	}
}

func TestSeqFasterThanRand(t *testing.T) {
	for _, kind := range []StackKind{StackDKHW, StackDKSW} {
		seq := measureQD1(t, kind, false, Read, Seq, 4096, 30)
		rand := measureQD1(t, kind, false, Read, Rand, 4096, 30)
		if seq >= rand {
			t.Errorf("%v: seq read (%v) not faster than rand read (%v)", kind, seq, rand)
		}
	}
}

func TestLargerBlocksHigherLatency(t *testing.T) {
	small := measureQD1(t, StackDKHW, false, Write, Seq, 4096, 20)
	big := measureQD1(t, StackDKHW, false, Write, Seq, 131072, 20)
	if big <= small {
		t.Errorf("128kB write (%v) not slower than 4kB (%v)", big, small)
	}
}

func TestStackNames(t *testing.T) {
	names := map[StackKind]string{
		StackDKHW: "deliba-k-hw",
		StackD2HW: "deliba-2-hw",
		StackD1HW: "deliba-1-hw",
		StackDKSW: "deliba-k-sw",
		StackD2SW: "deliba-2-sw",
	}
	for kind, want := range names {
		if kind.String() != want {
			t.Errorf("%d.String() = %q, want %q", kind, kind.String(), want)
		}
		tb, err := NewTestbed(DefaultTestbedConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, err := tb.NewStack(kind, false)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != want {
			t.Errorf("stack name = %q, want %q", s.Name(), want)
		}
		s.Close()
	}
}
