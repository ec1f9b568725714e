package sim

// Resource is a counted semaphore in virtual time, used to model contended
// capacity: CPU cores, DMA channels, disk queue slots. Acquisition is FIFO.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	// waiters[head:] is the FIFO wait queue. It is reset once it drains and
	// compacted before it grows, so a steady queue reuses one backing array.
	waiters []resWaiter
	head    int
}

type resWaiter struct {
	n    int
	wake func()
}

// NewResource returns a resource with the given total capacity.
func (e *Engine) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the currently held units.
func (r *Resource) InUse() int { return r.inUse }

// TryAcquire takes n units without blocking, reporting success.
func (r *Resource) TryAcquire(n int) bool {
	if n <= 0 || n > r.capacity {
		panic("sim: bad acquire count")
	}
	// FIFO fairness: do not jump the wait queue.
	if r.head < len(r.waiters) || r.inUse+n > r.capacity {
		return false
	}
	r.inUse += n
	return true
}

// AcquireFunc takes n units and runs fn holding them. If the units are free
// and nobody is queued, fn runs inline; otherwise fn joins the FIFO wait
// queue and runs as its own event once Release frees enough units.
func (r *Resource) AcquireFunc(n int, fn func()) {
	if r.TryAcquire(n) {
		fn()
		return
	}
	r.enqueue(resWaiter{n: n, wake: fn})
}

func (r *Resource) enqueue(w resWaiter) {
	if r.head > 0 && len(r.waiters) == cap(r.waiters) {
		live := copy(r.waiters, r.waiters[r.head:])
		clear(r.waiters[live:])
		r.waiters, r.head = r.waiters[:live], 0
	}
	r.waiters = append(r.waiters, w)
}

// Release returns n units and wakes FIFO waiters that now fit.
func (r *Resource) Release(n int) {
	if n <= 0 || n > r.inUse {
		panic("sim: bad release count")
	}
	r.inUse -= n
	for r.head < len(r.waiters) {
		w := r.waiters[r.head]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters[r.head] = resWaiter{}
		r.head++
		r.inUse += w.n
		r.eng.Schedule(0, w.wake)
	}
	if r.head == len(r.waiters) {
		r.waiters, r.head = r.waiters[:0], 0
	}
}
