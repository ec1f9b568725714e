// Package core assembles the DeLiBA framework generations end to end: the
// paper's contribution (DeLiBA-K: io_uring host API + DMQ kernel block layer
// + UIFD driver + QDMA + RTL-accelerated FPGA card) and both baselines
// (DeLiBA-1 and DeLiBA-2) over the shared substrates — the simulated Ceph
// cluster, CRUSH, erasure coding, the network fabric and the FPGA device
// model.
//
// Every generation exposes the same Stack interface so the fio workload
// generator and the experiment harnesses drive them interchangeably.
package core

import (
	"fmt"

	"repro/internal/rados"
	"repro/internal/sim"
)

// OpType is a block I/O direction.
type OpType int

const (
	// Read transfers device-to-host.
	Read OpType = iota
	// Write transfers host-to-device.
	Write
)

func (o OpType) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Pattern is the access pattern hint carried to the drive model.
type Pattern int

const (
	// Seq marks sequential access.
	Seq Pattern = iota
	// Rand marks random access.
	Rand
)

func (p Pattern) String() string {
	if p == Seq {
		return "seq"
	}
	return "rand"
}

// Stack is one framework generation's full I/O path over the virtual disk:
// Submit starts a block I/O at a byte offset of the image and calls done
// exactly once on completion. Implementations are asynchronous; callers
// bound their queue depth by counting outstanding dones.
type Stack interface {
	// Name identifies the generation/variant, e.g. "deliba-k".
	Name() string
	// Submit starts one block I/O from worker CPU cpu.
	Submit(op OpType, pattern Pattern, off int64, n int, cpu int, done func(error))
	// ImageBytes returns the virtual disk size the stack exposes.
	ImageBytes() int64
	// Close releases stack resources (rings, pollers) after a run.
	Close()
}

// TenantSubmitter is implemented by stacks that can attribute an I/O to a
// tenant. SubmitTenant is Submit with the owning tenant's identity riding
// the op through every layer — host API, block layer, transport queue
// mapping, fan-out, and trace spans. Tenant 0 is the untenanted default and
// must behave exactly like Submit. Workload generators probe for this
// interface and fall back to Submit when a stack does not provide it.
type TenantSubmitter interface {
	Stack
	SubmitTenant(op OpType, pattern Pattern, off int64, n int, cpu, tenant int, done func(error))
}

// Generation labels the three framework versions.
type Generation int

const (
	// D1 is DeLiBA-1: NBD user-space path, HLS accelerators, host-side
	// networking, no erasure coding support.
	D1 Generation = iota + 1
	// D2 is DeLiBA-2: NBD user-space path, HLS accelerators and HLS
	// TCP/IP on the FPGA.
	D2
	// DK is DeLiBA-K: io_uring + DMQ + UIFD + QDMA + RTL accelerators +
	// RTL TCP/IP, with DFX partial reconfiguration.
	DK
)

func (g Generation) String() string {
	switch g {
	case D1:
		return "deliba-1"
	case D2:
		return "deliba-2"
	case DK:
		return "deliba-k"
	default:
		return fmt.Sprintf("generation(%d)", int(g))
	}
}

// Do runs one I/O synchronously on a proc (convenience for tests and
// latency-mode benchmarks).
func Do(p *sim.Proc, s Stack, op OpType, pattern Pattern, off int64, n int, cpu int) error {
	return DoDeadline(p, s, op, pattern, off, n, cpu, 0)
}

// DoDeadline is Do with a per-op deadline: it returns rados.ErrDeadline if
// the I/O has not completed after d. The abandoned I/O keeps running in the
// stack (its eventual completion is dropped), mirroring a timed-out block
// request. d <= 0 waits forever.
func DoDeadline(p *sim.Proc, s Stack, op OpType, pattern Pattern, off int64, n int, cpu int, d sim.Duration) error {
	c := p.Engine().NewCompletion()
	s.Submit(op, pattern, off, n, cpu, func(err error) { c.Complete(nil, err) })
	if d <= 0 {
		_, err := p.Await(c)
		return err
	}
	_, err, ok := p.AwaitTimeout(c, d)
	if !ok {
		return rados.ErrDeadline
	}
	return err
}
