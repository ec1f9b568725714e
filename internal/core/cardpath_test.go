package core

import (
	"slices"
	"testing"

	"repro/internal/blockmq"
	"repro/internal/crush"
	"repro/internal/iouring"
	"repro/internal/rados"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uifd"
)

// newCardBackend builds a testbed and the card side of the named stack —
// shell, placement kernel, fan-out and card backend — without the host
// layers above it, so tests can drive cardBackend.Process directly.
func newCardBackend(t testing.TB, name string) (*Testbed, *cardBackend) {
	t.Helper()
	spec, err := ParseStackSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool, image := tb.poolAndImage(spec.EC)
	cb, err := tb.buildCardSide(&pipelineStack{tb: tb, spec: spec, image: image, pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return tb, cb
}

// TestCardPlacementMatchesUncached turns DESIGN §2's "HW and SW paths
// produce identical placements" into a checked invariant: for every pg of
// the replicated and the EC pool, the card kernel's placement equals a
// fresh uncached CRUSH computation, both before and after a monitor
// MarkOut flushes the placement cache.
func TestCardPlacementMatchesUncached(t *testing.T) {
	for _, name := range []string{"deliba-k-hw", "deliba-k-hw+ec"} {
		t.Run(name, func(t *testing.T) {
			tb, cb := newCardBackend(t, name)
			pool := cb.pool
			mon := rados.NewMonitor(tb.Cluster)
			check := func(phase string) (answers [][]int) {
				answers = make([][]int, pool.PGs)
				for pg := uint32(0); pg < pool.PGs; pg++ {
					cb.place.Select(pool, pg, trace.Ref{}, func(acting []int, _ sim.Duration, err error) {
						if err != nil {
							t.Fatalf("%s: pg %d: %v", phase, pg, err)
						}
						answers[pg] = slices.Clone(acting)
					})
				}
				tb.Eng.Run()
				for pg := uint32(0); pg < pool.PGs; pg++ {
					want, err := tb.Cluster.ActingSetUncached(pool, pg)
					if err != nil {
						t.Fatalf("%s: uncached pg %d: %v", phase, pg, err)
					}
					if !slices.Equal(answers[pg], want) {
						t.Fatalf("%s: pg %d: card placed %v, uncached CRUSH %v", phase, pg, answers[pg], want)
					}
				}
				return answers
			}
			before := check("before MarkOut")
			out := before[0][0]
			if err := mon.MarkOut(out); err != nil {
				t.Fatal(err)
			}
			after := check("after MarkOut")
			for pg := range after {
				if slices.Contains(after[pg], out) {
					t.Fatalf("pg %d still placed on osd %d after MarkOut: %v", pg, out, after[pg])
				}
			}
			if got, want := cb.place.shell.Straw2.Ops(), 2*uint64(pool.PGs); got != want {
				t.Errorf("straw2 ran %d selections, want %d", got, want)
			}
		})
	}
}

// countingRepl stands in for the replicated pool's protocol so a test can
// see whether the fan-out was reached at all.
type countingRepl struct {
	pool  *rados.Pool
	calls int
}

func (r *countingRepl) Pool() *rados.Pool { return r.pool }
func (r *countingRepl) Write(_ string, _, _ int, _ rados.ReqOpts, done func(error)) {
	r.calls++
	done(nil)
}
func (r *countingRepl) Read(_ string, _, _ int, _ rados.ReqOpts, done func(error)) {
	r.calls++
	done(nil)
}

// TestCardPlacementErrorFailsExtent pins the placement error surface: when
// CRUSH cannot place the pg, the extent fails with that error once the
// kernel retires, and the fan-out is never called.
func TestCardPlacementErrorFailsExtent(t *testing.T) {
	tb, cb := newCardBackend(t, "deliba-k-hw")
	repl := &countingRepl{pool: cb.pool}
	cb.fan.Repl = repl
	req := uifd.CardRequest{Op: blockmq.OpWrite, Off: 8192, Len: 4096, Flags: blockmq.FlagRandom}
	run := func() (calls int, err error) {
		cb.Process(req, func(e error) {
			calls++
			err = e
		})
		tb.Eng.Run()
		return calls, err
	}

	// Control: a placeable pg reaches the fan-out.
	if calls, err := run(); calls != 1 || err != nil || repl.calls != 1 {
		t.Fatalf("control write: done %d times, err %v, fan-out calls %d", calls, err, repl.calls)
	}

	rule := tb.Cluster.Map.Rule("replicated_osd")
	rule.Steps = []crush.Step{{Op: crush.OpTake, Arg1: -1 << 20}, {Op: crush.OpEmit}}
	tb.Cluster.InvalidatePlacement()
	pg := tb.Cluster.PGOf(cb.pool, cb.image.ObjectName(0))
	_, want := tb.Cluster.ActingSetUncached(cb.pool, pg)
	if want == nil {
		t.Fatal("broken rule still places")
	}
	ops := cb.place.shell.Straw2.Ops()
	calls, err := run()
	if calls != 1 {
		t.Fatalf("done ran %d times, want 1", calls)
	}
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("extent failed with %v, want %v", err, want)
	}
	if repl.calls != 1 {
		t.Errorf("fan-out called %d times after a placement error, want 0", repl.calls-1)
	}
	if got := cb.place.shell.Straw2.Ops(); got != ops+1 {
		t.Errorf("straw2 ran %d selections for the failed extent, want 1", got-ops)
	}
}

// TestCardWriteAllocPin pins the card path's warm allocation count: a
// deliba-k-hw 4 KiB write, from cardBackend.Process through placement, the
// pipeline FSM and the replicated fan-out to completion, allocates nothing
// once the pooled card ops, the fan-out's pools and the engine's event
// freelist are warm.
func TestCardWriteAllocPin(t *testing.T) {
	tb, cb := newCardBackend(t, "deliba-k-hw")
	completed := 0
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
	}
	req := uifd.CardRequest{Op: blockmq.OpWrite, Off: 4096, Len: 4096, Flags: blockmq.FlagRandom}
	const warm = 64
	for i := 0; i < warm; i++ {
		cb.Process(req, done)
	}
	tb.Eng.Run()
	if completed != warm {
		t.Fatalf("warmup completed %d writes, want %d", completed, warm)
	}
	allocs := testing.AllocsPerRun(100, func() {
		cb.Process(req, done)
		tb.Eng.Run()
	})
	if allocs != 0 {
		t.Errorf("warm card write allocated %.1f/op, want 0", allocs)
	}
	if completed != warm+101 {
		t.Fatalf("completed %d writes, want %d", completed, warm+101)
	}
}

// TestZeroLengthIOCompletesOnce pins that a zero-length read or write
// completes exactly once, without error, on every stack shape — the card
// path, its EC variant, the LSVD cache tier above the card and the software
// path — and leaves nothing in flight in the rings or blk-mq.
func TestZeroLengthIOCompletesOnce(t *testing.T) {
	for _, name := range []string{"deliba-k-hw", "deliba-k-hw+ec", "deliba-k-hw+cache-lsvd", "deliba-k-sw"} {
		for _, op := range []OpType{Read, Write} {
			t.Run(name+"/"+op.String(), func(t *testing.T) {
				spec, err := ParseStackSpec(name)
				if err != nil {
					t.Fatal(err)
				}
				tb, err := NewTestbed(DefaultTestbedConfig())
				if err != nil {
					t.Fatal(err)
				}
				stack, err := tb.BuildStack(spec)
				if err != nil {
					t.Fatal(err)
				}
				calls := 0
				stack.Submit(op, Rand, 4096, 0, 0, func(err error) {
					calls++
					if err != nil {
						t.Errorf("zero-length %v: %v", op, err)
					}
				})
				tb.Eng.Run()
				if calls != 1 {
					t.Errorf("done ran %d times, want 1", calls)
				}
				if s, ok := stack.(interface{ MQ() *blockmq.MQ }); ok && s.MQ() != nil {
					if st := s.MQ().Stats(); st.Submitted != st.Completed {
						t.Errorf("blk-mq submitted %d != completed %d at drain", st.Submitted, st.Completed)
					}
				}
				if s, ok := stack.(interface{ Rings() []*iouring.Ring }); ok {
					for i, r := range s.Rings() {
						if _, sub, comp, _, _ := r.Stats(); sub != comp {
							t.Errorf("ring %d submitted %d != completed %d at drain", i, sub, comp)
						}
					}
				}
				stack.Close()
				tb.Eng.Run()
				if p := tb.Eng.Pending(); p != 0 {
					t.Errorf("%d events pending at drain", p)
				}
			})
		}
	}
}
