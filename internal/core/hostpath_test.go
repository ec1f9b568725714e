package core

import (
	"testing"
)

// newStackT builds a testbed and the named stack over it.
func newStackT(t *testing.T, name string) (*Testbed, Stack) {
	t.Helper()
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
	return tb, stack
}

// TestHWStackSubmitAllocPin pins the whole card block path: a warm 4 KiB
// write on deliba-k-hw — io_uring SQE, the DMQ target, blk-mq bypass, the
// UIFD driver and both QDMA transfers, the card pipeline and fan-out, the
// CQE reap — allocates nothing. Every layer runs on pooled records whose
// step callbacks are bound once.
func TestHWStackSubmitAllocPin(t *testing.T) {
	tb, stack := newStackT(t, "deliba-k-hw")
	completed := 0
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
	}
	// The writes cycle over a 16 MiB span, which the warm-up covers, so
	// the image's lazily memoised object names are all built before the
	// measured runs.
	const span = 16 << 20
	next := int64(0)
	submit := func() {
		// One write per submitting CPU, so all three rings and hctxs run.
		for cpu := 0; cpu < DKInstances; cpu++ {
			stack.Submit(Write, Rand, next%span, 4096, cpu, done)
			next += 1 << 20
		}
		tb.Eng.Run()
	}
	const warm = 64
	for i := 0; i < warm; i++ {
		submit()
	}
	if allocs := testing.AllocsPerRun(100, submit); allocs != 0 {
		t.Errorf("warm deliba-k-hw write allocated %.1f/op, want 0", allocs)
	}
	if completed != DKInstances*(warm+101) {
		t.Fatalf("completed %d writes, want %d", completed, DKInstances*(warm+101))
	}
}

// TestLSVDReadMissAllocPin pins the LSVD cache tier's miss path on
// deliba-k-hw+cache-lsvd: a warm read that misses — the cache target,
// the in-flight fill, the miss fill down the bare card path, the window
// entering the read cache — allocates nothing. The reads cycle over 64
// read-around windows while the 1 MiB read cache holds 16, so every read
// misses, eviction keeps the cache's queues at their steady size, and the
// warm-up builds the one object name the span maps to.
func TestLSVDReadMissAllocPin(t *testing.T) {
	tb, stack := newStackT(t, "deliba-k-hw+cache-lsvd+cacheread=1")
	cache := CacheOf(stack)
	completed := 0
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
		completed++
	}
	const window = 64 << 10 // the cache's read-around window
	next := int64(0)
	miss := func() {
		stack.Submit(Read, Rand, next, 4096, 0, done)
		next = (next + window) % (64 * window)
		tb.Eng.Run()
	}
	const warm = 64
	for i := 0; i < warm; i++ {
		miss()
	}
	before := cache.Stats().Misses
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Errorf("warm LSVD read miss allocated %.1f/op, want 0", allocs)
	}
	if got := cache.Stats().Misses - before; got != 101 {
		t.Fatalf("%d of 101 reads missed", got)
	}
	if completed != warm+101 {
		t.Fatalf("completed %d reads, want %d", completed, warm+101)
	}
}
