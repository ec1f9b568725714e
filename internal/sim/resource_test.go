package sim

import (
	"testing"
	"testing/quick"
)

// use is the continuation form of a proc's "acquire n, hold for d,
// release" at the current time: the proc's spawn event, the acquisition
// (inline or as the waking event), the hold, then fn at release.
func use(e *Engine, r *Resource, n int, d Duration, fn func()) {
	e.Schedule(0, func() {
		r.AcquireFunc(n, func() {
			e.Schedule(d, func() {
				r.Release(n)
				fn()
			})
		})
	})
}

func TestResourceContention(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var done []Time
	for i := 0; i < 3; i++ {
		use(e, r, 1, 10, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after drain", r.InUse())
	}
}

func TestResourceMultiUnit(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(4)
	var bigAt Time
	use(e, r, 2, 10, func() {})
	use(e, r, 2, 30, func() {})
	e.Schedule(1, func() {
		r.AcquireFunc(4, func() { // must wait for both smalls
			bigAt = e.Now()
			r.Release(4)
		})
	})
	e.Run()
	if bigAt != 30 {
		t.Fatalf("big acquired at %v, want 30", bigAt)
	}
}

func TestResourceFIFOFairness(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(1)
	var order []int
	use(e, r, 1, 100, func() {})
	for i := 0; i < 3; i++ {
		i := i
		e.Schedule(Duration(i+1), func() {
			r.AcquireFunc(1, func() {
				order = append(order, i)
				e.Schedule(5, func() { r.Release(1) })
			})
		})
	}
	e.Run()
	if len(order) != 3 {
		t.Fatalf("acquisition order = %v, want 3 waiters served", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("acquisition order = %v, want FIFO", order)
		}
	}
}

func TestResourceTryAcquireRespectsWaiters(t *testing.T) {
	e := NewEngine()
	r := e.NewResource(2)
	r.TryAcquire(2)
	e.Schedule(0, func() { r.AcquireFunc(1, func() {}) })
	e.Schedule(1, func() {
		r.Release(1)
	})
	e.Schedule(2, func() {
		// The waiter got the released unit; queue-jumping must fail even
		// though InUse < Capacity was momentarily true.
		if r.InUse() != 2 {
			t.Errorf("InUse = %d, want 2", r.InUse())
		}
		if r.TryAcquire(1) {
			t.Error("TryAcquire succeeded on a full resource")
		}
	})
	e.Run()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(54321)
	same := 0
	a2 := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGDistributions(t *testing.T) {
	r := NewRNG(7)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("Float64 mean = %v", mean)
	}

	var esum Duration
	for i := 0; i < n; i++ {
		esum += r.ExpDuration(1000)
	}
	emean := float64(esum) / n
	if emean < 900 || emean > 1100 {
		t.Fatalf("ExpDuration mean = %v, want ~1000", emean)
	}

	var nsum Duration
	for i := 0; i < n; i++ {
		nsum += r.NormDuration(5000, 100)
	}
	nmean := float64(nsum) / n
	if nmean < 4950 || nmean > 5050 {
		t.Fatalf("NormDuration mean = %v, want ~5000", nmean)
	}
}

func TestRNGPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}
