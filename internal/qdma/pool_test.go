package qdma

import (
	"testing"

	"repro/internal/sim"
)

// TestH2CStallsCompleteEachOnce overloads the H2C admission limits — the
// 256-I/O concurrency cap, then the re-order buffer — twice on one engine,
// so the second round runs on transfer records recycled from the first,
// stalled ones included. Every transfer completes exactly once and the
// admission counters drain back to zero.
func TestH2CStallsCompleteEachOnce(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.RingDepth = 1024
	q := New(eng, cfg)
	qs, _ := q.AllocQueueSet(ReplicationQueue, nil)
	for round, c := range []struct{ n, size int }{
		{300, 64}, {9, 128 << 10}, {300, 64}, {9, 128 << 10},
	} {
		_, _, before := q.Stats()
		fired := make([]int, c.n)
		for i := 0; i < c.n; i++ {
			i := i
			if err := qs.Transfer(H2C, c.size, Descriptor{}, func() { fired[i]++ }); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		for i, n := range fired {
			if n != 1 {
				t.Fatalf("round %d: transfer %d completed %d times, want 1", round, i, n)
			}
		}
		if _, _, after := q.Stats(); after == before {
			t.Fatalf("round %d: no stalls", round)
		}
		if q.h2cInFlight != 0 || q.reorderUsed != 0 || qs.Pending(H2C) != 0 {
			t.Fatalf("round %d: in flight %d, reorder %d, pending %d after drain",
				round, q.h2cInFlight, q.reorderUsed, qs.Pending(H2C))
		}
	}
}
