package sim

// Queue is a FIFO channel in virtual time: Procs block on Get when empty and
// on Put when full (capacity > 0). Capacity 0 means unbounded (Put never
// blocks), which differs from Go channels but matches how model queues
// (descriptor rings, dispatch lists) are usually sized.
type Queue struct {
	eng     *Engine
	cap     int
	items   []any
	getters []func() // procs blocked in Get
	putters []func() // procs blocked in Put
	closed  bool
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func (e *Engine) NewQueue(capacity int) *Queue {
	return &Queue{eng: e, cap: capacity}
}

// Len returns the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Cap returns the capacity (0 = unbounded).
func (q *Queue) Cap() int { return q.cap }

// Closed reports whether Close has been called.
func (q *Queue) Closed() bool { return q.closed }

// Close marks the queue closed. Blocked and future Gets return ok=false once
// drained; Put on a closed queue panics.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	// Wake all blocked getters; they will observe the closed state.
	gs := q.getters
	q.getters = nil
	for _, g := range gs {
		q.eng.Schedule(0, g)
	}
}

// TryPut appends v if there is room, reporting success. It never blocks.
func (q *Queue) TryPut(v any) bool {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, v)
	q.wakeGetter()
	return true
}

// Put appends v, blocking the proc while the queue is full.
func (q *Queue) Put(p *Proc, v any) {
	for {
		if q.TryPut(v) {
			return
		}
		q.putters = append(q.putters, func() { q.eng.step(p) })
		p.pause()
	}
}

// TryGet removes and returns the head item. ok is false if empty.
func (q *Queue) TryGet() (v any, ok bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	q.wakePutter()
	return v, true
}

// Get removes and returns the head item, blocking the proc while the queue
// is empty. ok is false only if the queue is closed and drained.
func (q *Queue) Get(p *Proc) (v any, ok bool) {
	for {
		if v, ok = q.TryGet(); ok {
			return v, true
		}
		if q.closed {
			return nil, false
		}
		q.getters = append(q.getters, func() { q.eng.step(p) })
		p.pause()
	}
}

func (q *Queue) wakeGetter() {
	if len(q.getters) == 0 {
		return
	}
	g := q.getters[0]
	q.getters = q.getters[1:]
	q.eng.Schedule(0, g)
}

func (q *Queue) wakePutter() {
	if len(q.putters) == 0 {
		return
	}
	p := q.putters[0]
	q.putters = q.putters[1:]
	q.eng.Schedule(0, p)
}

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

// Acquire takes n units, blocking the proc until they are available.
func (r *Resource) Acquire(p *Proc, n int) {
	if r.TryAcquire(n) {
		return
	}
	acquired := false
	r.enqueue(resWaiter{n: n, wake: func() {
		acquired = true
		r.eng.step(p)
	}})
	for !acquired {
		p.pause()
	}
}

// AcquireFunc takes n units and runs fn holding them. If the units are free
// and nobody is queued, fn runs inline; otherwise fn joins the same FIFO
// wait queue Acquire uses and runs as its own event once Release frees
// enough units. It is Acquire for continuation-style callers.
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

// Use acquires n units, holds them for d, then releases them. It is the
// common "serve a request on this station" idiom.
func (r *Resource) Use(p *Proc, n int, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}
