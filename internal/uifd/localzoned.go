package uifd

import (
	"repro/internal/blockmq"
	"repro/internal/sim"
	"repro/internal/zoned"
)

// ZonedDriver is UIFD's local-storage face: the same unified driver
// exposing a host-managed SMR disk or ZNS namespace as a blk-mq device
// (paper §III-B: UIFD supports "a range of storage devices, including
// emerging local storage such as ZNS and SMR disks"). Unlike the FPGA
// path there is no card: requests go straight to the zoned service model,
// and the zoned-contract errors (write-pointer violations, full zones)
// surface through the block layer as I/O errors, exactly as a host-managed
// kernel driver behaves.
type ZonedDriver struct {
	eng *sim.Engine
	svc *zoned.ServiceModel

	reads, writes, errors uint64
}

// NewZonedDriver wraps a zoned service model.
func NewZonedDriver(eng *sim.Engine, svc *zoned.ServiceModel) *ZonedDriver {
	return &ZonedDriver{eng: eng, svc: svc}
}

// Device exposes the underlying zoned device for zone management
// (report/reset/open/close/finish — the ioctl surface).
func (d *ZonedDriver) Device() *zoned.Device { return d.svc.Dev }

// Stats returns completed reads/writes and zoned-contract errors.
func (d *ZonedDriver) Stats() (reads, writes, errors uint64) {
	return d.reads, d.writes, d.errors
}

// QueueRq implements blockmq.Driver.
func (d *ZonedDriver) QueueRq(hctx int, req *blockmq.Request) bool {
	done := func(err error) {
		if err != nil {
			d.errors++
		} else if req.Op == blockmq.OpRead {
			d.reads++
		} else {
			d.writes++
		}
		req.EndIO(err)
	}
	switch req.Op {
	case blockmq.OpWrite:
		d.svc.SubmitWrite(req.Off, req.Len, done)
	case blockmq.OpRead:
		d.svc.SubmitRead(req.Off, req.Len, done)
	default:
		// Flush: zones are synchronous in the model.
		d.eng.Schedule(0, func() { done(nil) })
	}
	return true
}

// ResetZone issues a zone reset through the driver (the BLKRESETZONE path).
func (d *ZonedDriver) ResetZone(zone int, done func(error)) {
	d.svc.SubmitReset(zone, done)
}

// Append performs a ZNS zone append, the interface io_uring exposes as
// IORING_OP_URING_CMD/NVME_ZNS append on real kernels: after the write
// service cost the device picks the offset, and done gets it.
func (d *ZonedDriver) Append(zone, n int, done func(off int64, err error)) {
	// Zone appends pay the write service cost, starting from the next
	// event; the device picks the offset, so this bypasses the
	// offset-validating write path.
	cost := d.svc.WriteBase + sim.Duration(int64(d.svc.PerKiB)*int64(n)/1024)
	d.eng.Schedule(0, func() {
		d.eng.Schedule(cost, func() {
			off, err := d.svc.Dev.Append(zone, n)
			if err == nil {
				d.writes++
			}
			done(off, err)
		})
	})
}
