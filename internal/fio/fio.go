// Package fio is a flexible I/O workload generator in the spirit of the fio
// tool the paper benchmarks with: parallel jobs, bounded queue depth,
// sequential or random access, pure or mixed read/write, fixed block sizes,
// latency histograms and throughput/IOPS accounting — all in virtual time
// against a core.Stack.
package fio

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// JobSpec describes one workload.
type JobSpec struct {
	Name string
	// ReadPct is the read percentage (100 = pure read, 0 = pure write).
	ReadPct int
	Pattern core.Pattern
	// BlockSize in bytes.
	BlockSize int
	// BlockSplit optionally mixes block sizes (fio's bssplit): each op
	// draws a size by weight. When set, BlockSize is ignored except as
	// the alignment unit for offsets.
	BlockSplit []SizeWeight
	// QueueDepth is the per-job bound on outstanding I/Os (iodepth).
	QueueDepth int
	// Jobs is the number of parallel workers (numjobs); worker i submits
	// from CPU i.
	Jobs int
	// Ops is the number of measured operations per job.
	Ops int
	// RampOps per job are executed first and excluded from statistics.
	RampOps int
	// OffsetRange bounds the byte range exercised (0 = whole image).
	OffsetRange int64
	// ZipfTheta skews random offsets toward low-numbered blocks with a
	// bounded Zipf(theta) distribution (Gray et al.), scrambled across
	// the range so hot blocks are scattered. 0 disables (uniform); only
	// meaningful with Pattern == core.Rand.
	ZipfTheta float64
	// HotOpPct directs that percentage of random ops at the first
	// HotRangeBytes of the range (a two-level hot/cold split, the
	// classic cache-hit workload). 0 disables.
	HotOpPct      int
	HotRangeBytes int64
	// ThinkTime inserts virtual compute between issuing I/Os (application
	// processing, used by the OLAP/OLTP workloads).
	ThinkTime sim.Duration
	// Seed makes the random stream reproducible.
	Seed uint64
}

// SizeWeight is one bssplit entry.
type SizeWeight struct {
	Size   int
	Weight int
}

// maxBlockSize returns the largest size the job can issue.
func (s JobSpec) maxBlockSize() int {
	max := s.BlockSize
	for _, sw := range s.BlockSplit {
		if sw.Size > max {
			max = sw.Size
		}
	}
	return max
}

// pickSize draws a block size for one op.
func (s JobSpec) pickSize(rng *sim.RNG) int {
	if len(s.BlockSplit) == 0 {
		return s.BlockSize
	}
	total := 0
	for _, sw := range s.BlockSplit {
		total += sw.Weight
	}
	draw := rng.Intn(total)
	for _, sw := range s.BlockSplit {
		draw -= sw.Weight
		if draw < 0 {
			return sw.Size
		}
	}
	return s.BlockSplit[len(s.BlockSplit)-1].Size
}

func (s JobSpec) String() string {
	kind := "mixed"
	switch s.ReadPct {
	case 100:
		kind = "read"
	case 0:
		kind = "write"
	}
	return fmt.Sprintf("%s-%s-%dB-qd%d-j%d", s.Pattern, kind, s.BlockSize, s.QueueDepth, s.Jobs)
}

// Result aggregates a run.
type Result struct {
	Spec JobSpec
	// Lat is the overall completion latency histogram; ReadLat/WriteLat
	// split by direction.
	Lat      *metrics.Histogram
	ReadLat  *metrics.Histogram
	WriteLat *metrics.Histogram
	// Meter measures throughput/IOPS over the measured window.
	Meter *metrics.Meter
	// Errors counts failed operations.
	Errors int
	// Elapsed is the full-run virtual time.
	Elapsed sim.Duration
}

// IOPS of the measured window.
func (r *Result) IOPS() float64 { return r.Meter.IOPS() }

// KIOPS of the measured window.
func (r *Result) KIOPS() float64 { return r.Meter.KIOPS() }

// MBps of the measured window.
func (r *Result) MBps() float64 { return r.Meter.ThroughputMBps() }

func (r *Result) String() string {
	return fmt.Sprintf("%s: %.1f kIOPS %.1f MB/s lat(mean=%v p99=%v) errs=%d",
		r.Spec, r.KIOPS(), r.MBps(), r.Lat.Mean(), r.Lat.Percentile(99), r.Errors)
}

// Run executes the workload on the stack and drives the engine until every
// operation completes. The stack is closed afterwards.
func Run(eng *sim.Engine, stack core.Stack, spec JobSpec) (*Result, error) {
	if err := validate(&spec, stack); err != nil {
		return nil, err
	}
	res := &Result{
		Spec:     spec,
		Lat:      metrics.NewHistogram(),
		ReadLat:  metrics.NewHistogram(),
		WriteLat: metrics.NewHistogram(),
		Meter:    metrics.NewMeter(eng.Now()),
	}
	start := eng.Now()
	for j := 0; j < spec.Jobs; j++ {
		startWorker(eng, stack, spec, j, res)
	}
	eng.Run()
	res.Elapsed = eng.Now().Sub(start)
	res.Meter.CloseAt(eng.Now())
	stack.Close()
	return res, nil
}

func validate(spec *JobSpec, stack core.Stack) error {
	if spec.BlockSize <= 0 {
		return fmt.Errorf("fio: block size %d", spec.BlockSize)
	}
	for _, sw := range spec.BlockSplit {
		if sw.Size <= 0 || sw.Weight <= 0 {
			return fmt.Errorf("fio: bad bssplit entry %+v", sw)
		}
	}
	if spec.Jobs <= 0 {
		spec.Jobs = 1
	}
	if spec.QueueDepth <= 0 {
		spec.QueueDepth = 1
	}
	if spec.Ops <= 0 {
		return fmt.Errorf("fio: ops %d", spec.Ops)
	}
	if spec.ReadPct < 0 || spec.ReadPct > 100 {
		return fmt.Errorf("fio: read pct %d", spec.ReadPct)
	}
	if spec.OffsetRange <= 0 || spec.OffsetRange > stack.ImageBytes() {
		spec.OffsetRange = stack.ImageBytes()
	}
	if int64(spec.maxBlockSize()) > spec.OffsetRange {
		return fmt.Errorf("fio: block size %d exceeds range %d", spec.maxBlockSize(), spec.OffsetRange)
	}
	return nil
}

// closedLoop is one worker's issue loop as a continuation: it issues ops
// while its depth window has a free unit, parks on the window's FIFO queue
// when it is full, and waits out the think time between ops. Each op's
// completion must release the unit it holds.
type closedLoop struct {
	eng    *sim.Engine
	window *sim.Resource
	next   int // index of the next op to issue
	total  int
	think  sim.Duration
	issue  func(i int)

	runFn, resumeFn func()
}

// startLoop starts a closed loop of total ops one event from now.
func startLoop(eng *sim.Engine, window *sim.Resource, total int, think sim.Duration, issue func(i int)) {
	l := &closedLoop{eng: eng, window: window, total: total, think: think, issue: issue}
	l.runFn, l.resumeFn = l.run, l.resume
	eng.Schedule(0, l.runFn)
}

func (l *closedLoop) run() {
	for l.next < l.total && l.window.TryAcquire(1) {
		if !l.step() {
			return
		}
	}
	if l.next < l.total {
		l.window.AcquireFunc(1, l.resumeFn)
	}
}

// resume runs once the parked worker holds its unit.
func (l *closedLoop) resume() {
	if l.step() {
		l.run()
	}
}

// step issues one op; it reports false when think time defers the next.
func (l *closedLoop) step() bool {
	i := l.next
	l.next++
	l.issue(i)
	if l.think > 0 {
		l.eng.Schedule(l.think, l.runFn)
		return false
	}
	return true
}

// startWorker starts a worker that issues RampOps+Ops operations keeping
// at most QueueDepth in flight, using a sim.Resource as the depth window.
func startWorker(eng *sim.Engine, stack core.Stack, spec JobSpec, job int, res *Result) {
	window := eng.NewResource(spec.QueueDepth)
	rng := sim.NewRNG(spec.Seed*2654435761 + uint64(job)*0x9e3779b9)

	// Sequential workers own a private segment so jobs do not interleave
	// into each other's streams.
	segment := spec.OffsetRange / int64(spec.Jobs)
	segment -= segment % int64(spec.BlockSize)
	if segment < int64(spec.BlockSize) {
		segment = int64(spec.BlockSize)
	}
	segStart := (int64(job) * segment) % (spec.OffsetRange - int64(spec.BlockSize) + 1)
	seqOff := segStart

	blocks := spec.OffsetRange / int64(spec.BlockSize)
	var hotBlocks int64
	if spec.HotOpPct > 0 && spec.HotRangeBytes > 0 {
		hotBlocks = spec.HotRangeBytes / int64(spec.BlockSize)
		if hotBlocks > blocks {
			hotBlocks = blocks
		}
	}
	var zipf *sim.Zipf
	if spec.ZipfTheta > 0 && spec.HotOpPct == 0 {
		zipf = sim.NewZipf(blocks, spec.ZipfTheta)
	}

	startLoop(eng, window, spec.RampOps+spec.Ops, spec.ThinkTime, func(i int) {
		measured := i >= spec.RampOps

		var off int64
		if spec.Pattern == core.Rand {
			switch {
			case spec.HotOpPct > 0 && hotBlocks > 0:
				if rng.Intn(100) < spec.HotOpPct {
					off = rng.Int63n(hotBlocks) * int64(spec.BlockSize)
				} else {
					off = rng.Int63n(blocks) * int64(spec.BlockSize)
				}
			case zipf != nil:
				rank := zipf.Next(rng)
				// Scatter ranks across the range so the hot set is not
				// one contiguous prefix.
				off = (rank * 2654435761) % blocks * int64(spec.BlockSize)
			default:
				off = rng.Int63n(blocks) * int64(spec.BlockSize)
			}
		} else {
			off = seqOff
			seqOff += int64(spec.BlockSize)
			if seqOff+int64(spec.BlockSize) > segStart+segment ||
				seqOff+int64(spec.BlockSize) > spec.OffsetRange {
				seqOff = segStart
			}
		}
		op := core.Write
		if spec.ReadPct == 100 || (spec.ReadPct > 0 && rng.Intn(100) < spec.ReadPct) {
			op = core.Read
		}
		size := spec.pickSize(rng)
		if off+int64(size) > spec.OffsetRange {
			off = spec.OffsetRange - int64(size)
			off -= off % int64(spec.BlockSize)
			if off < 0 {
				off = 0
			}
		}
		issued := eng.Now()
		stack.Submit(op, spec.Pattern, off, size, job, func(err error) {
			window.Release(1)
			if !measured {
				return
			}
			lat := eng.Now().Sub(issued)
			res.Lat.Record(lat)
			if op == core.Read {
				res.ReadLat.Record(lat)
			} else {
				res.WriteLat.Record(lat)
			}
			if err != nil {
				res.Errors++
			} else {
				res.Meter.Add(eng.Now(), size)
			}
		})
	})
}
