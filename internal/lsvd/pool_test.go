package lsvd

import (
	"testing"

	"repro/internal/sim"
)

// TestCoalescedWaitersFireOnceInOrder pins the pooled fill's contract:
// the filling miss completes first and each coalesced waiter after it,
// once each, in arrival order — even when the filling miss's own
// completion starts new misses that take fills from the pool and
// coalesce onto them while the first fill's waiters are still running.
func TestCoalescedWaitersFireOnceInOrder(t *testing.T) {
	eng, c, be := newTestCache(t, nil)
	var order []int
	var firstAt sim.Time
	record := func(id int) func(error) {
		return func(err error) {
			if err != nil {
				t.Errorf("read %d: %v", id, err)
			}
			order = append(order, id)
		}
	}
	// Window 1: one filling miss (0) and three coalesced waiters (1-3).
	c.Read(1<<20, 4096, func(err error) {
		record(0)(err)
		firstAt = eng.Now()
		// Window 2, started from inside window 1's completion: its fill
		// comes from the pool, and read 11 coalesces onto it.
		c.Read(2<<20, 4096, record(10))
		c.Read(2<<20+4096, 4096, record(11))
	})
	for i := 1; i <= 3; i++ {
		c.Read(1<<20+int64(i)*4096, 4096, record(i))
	}
	eng.Run()
	want := []int{0, 1, 2, 3, 10, 11}
	if len(order) != len(want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completions %v, want %v", order, want)
		}
	}
	if be.missReads != 2 || c.Stats().CoalescedFills != 4 {
		t.Fatalf("miss reads %d, coalesced %d; want 2/4", be.missReads, c.Stats().CoalescedFills)
	}
	if eng.Now() <= firstAt {
		t.Fatal("window 2 completed with window 1")
	}
	if len(c.fills) != 0 || len(c.fillPool) != 2 {
		t.Fatalf("%d fills in flight, %d pooled after drain; want 0/2", len(c.fills), len(c.fillPool))
	}
}
