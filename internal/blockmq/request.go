// Package blockmq models the Linux multi-queue block layer (blk-mq): tag
// sets, per-CPU software queues, hardware queue contexts mapped onto a
// driver, request merging, and pluggable schedulers. DeLiBA-K's "DMQ" layer
// is this machinery with the scheduler bypassed and requests issued directly
// to the hardware context aligned with the submitting CPU core (paper
// optimization ②).
package blockmq

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// OpType is the request direction.
type OpType int

const (
	// OpRead transfers device-to-host.
	OpRead OpType = iota
	// OpWrite transfers host-to-device.
	OpWrite
	// OpFlush orders prior writes.
	OpFlush
)

func (o OpType) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "flush"
	}
}

// Request flags (a small subset of the kernel's REQ_* hints).
const (
	// FlagRandom hints that the request belongs to a random access
	// pattern (inverse of REQ_RAHEAD-style sequential hints).
	FlagRandom uint32 = 1 << 0
)

// Request is a block I/O request in flight through the MQ layer.
type Request struct {
	Op  OpType
	Off int64
	Len int
	// Flags carries access-pattern hints to the driver.
	Flags uint32
	// CPU is the submitting core; it selects the software queue and, via
	// the queue map, the hardware context.
	CPU int
	// Tenant identifies the owning tenant (0 = untenanted). QoS schedulers
	// account tokens and tags per tenant, and tenant-aware drivers use it
	// to select SR-IOV functions and queue sets.
	Tenant int
	// Tag is the hardware tag, assigned at dispatch (-1 before).
	Tag int
	// Trace is the per-I/O trace context handed to the driver (re-parented
	// under the blk-mq span when traced). It must be set at submit time
	// (via SubmitAsyncTraced) because the bypass fast path can issue to
	// the driver synchronously, before the caller sees the request.
	Trace trace.Ref

	mq        *MQ
	traceH    trace.H
	hctx      int
	submitted sim.Time
	started   sim.Time
	// callbacks fire on completion; merged requests carry several.
	callbacks []func(err error)
	merged    int // number of bios merged into this request
}

// Bytes returns the request payload size.
func (r *Request) Bytes() int { return r.Len }

// MergedBios returns how many originally separate requests this request
// carries (1 if never merged).
func (r *Request) MergedBios() int { return 1 + r.merged }

// EndIO completes the request: the driver calls this exactly once when the
// hardware finishes. It releases the tag, fires all completion callbacks,
// and restarts dispatch on the hardware context.
func (r *Request) EndIO(err error) {
	mq := r.mq
	if mq == nil {
		panic("blockmq: EndIO on request not owned by an MQ")
	}
	r.mq = nil
	mq.stats.Completed++
	now := mq.eng.Now()
	mq.latency.Record(now.Sub(r.submitted))
	// Close the blk-mq span: the queue-wait portion is submit-to-issue
	// (tag wait + dispatch), the rest is device service time.
	if r.traceH.On() {
		wait := r.started.Sub(r.submitted)
		if r.started == 0 {
			wait = 0 // completed without ever issuing (error path)
		}
		r.traceH.SetWait(wait)
	}
	r.traceH.End()
	r.traceH = trace.H{}
	cbs := r.callbacks
	r.callbacks = nil
	for _, cb := range cbs {
		cb := cb
		mq.eng.Schedule(0, func() { cb(err) })
	}
	mq.tags[r.hctx].free(r.Tag)
	// Freeing a tag may unblock queued dispatch.
	mq.eng.Schedule(0, func() { mq.runHW(r.hctx) })
}

func (r *Request) String() string {
	return fmt.Sprintf("%v off=%d len=%d cpu=%d tag=%d", r.Op, r.Off, r.Len, r.CPU, r.Tag)
}

// tagSet is a per-hctx tag allocator (free list).
type tagSet struct {
	free_ []int
}

func newTagSet(n int) *tagSet {
	t := &tagSet{free_: make([]int, n)}
	for i := range t.free_ {
		t.free_[i] = n - 1 - i // pop from the back → ascending tags
	}
	return t
}

func (t *tagSet) alloc() (int, bool) {
	if len(t.free_) == 0 {
		return -1, false
	}
	tag := t.free_[len(t.free_)-1]
	t.free_ = t.free_[:len(t.free_)-1]
	return tag, true
}

func (t *tagSet) free(tag int) {
	t.free_ = append(t.free_, tag)
}

func (t *tagSet) available() int { return len(t.free_) }
