package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/blockmq"
	"repro/internal/core"
	"repro/internal/iouring"
	"repro/internal/lsvd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uifd"
)

// traceSampleEvery is the traced run's sampling period: every 4th op gets
// a span tree, enough for stable tail exemplars without holding every
// op's spans in memory until Finalize.
const traceSampleEvery = 4

// traceTopK is how many of the slowest sampled ops the critical-path
// aggregate is taken over.
const traceTopK = 64

// stackView reaches the layers of a built stack through the exported
// accessors core's pipeline stack offers; a nil field is a layer the
// stack does not have.
type stackView struct {
	mq     *blockmq.MQ
	drv    *uifd.Driver
	rings  []*iouring.Ring
	cache  *lsvd.Cache
	client *netsim.Host
}

func viewOf(tb *core.Testbed, st core.Stack) (stackView, error) {
	var v stackView
	if s, ok := st.(interface{ MQ() *blockmq.MQ }); ok {
		v.mq = s.MQ()
	}
	if s, ok := st.(interface{ Driver() *uifd.Driver }); ok {
		v.drv = s.Driver()
	}
	if s, ok := st.(interface{ Rings() []*iouring.Ring }); ok {
		v.rings = s.Rings()
	}
	v.cache = core.CacheOf(st)
	// The stack's client endpoint: the card NIC on card paths, the
	// software Ceph client otherwise.
	for _, name := range []string{"fpga-cmac", "client-dksw"} {
		if h := tb.Fabric.Host(name); h != nil {
			v.client = h
			return v, nil
		}
	}
	return v, fmt.Errorf("stack %s: no client endpoint on the fabric", st.Name())
}

// engines returns every engine of the testbed: the solo engine, or each
// shard engine of the group once.
func engines(tb *core.Testbed) []*sim.Engine {
	if tb.Shards == nil {
		return []*sim.Engine{tb.Eng}
	}
	var out []*sim.Engine
	seen := map[*sim.Engine]bool{}
	for d := 0; d < tb.Shards.Domains(); d++ {
		if e := tb.Shards.Engine(sim.DomainID(d)); !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// counters snapshots the public per-layer counters after a pass drains.
type counters struct {
	events                                   uint64
	mq                                       blockmq.Stats
	ringEnters, ringSubmitted, ringCompleted uint64
	ringOverflow                             uint64
	uifdReads, uifdWrites                    uint64
	netMsgs, netBytes                        uint64
	clientBusy                               sim.Duration
	cache                                    lsvd.Stats
	hasMQ, hasRings, hasDriver, hasCache     bool
}

func readCounters(tb *core.Testbed, v stackView) counters {
	var c counters
	for _, e := range engines(tb) {
		c.events += e.Executed()
	}
	if v.mq != nil {
		c.hasMQ = true
		c.mq = v.mq.Stats()
	}
	for _, r := range v.rings {
		c.hasRings = true
		enters, sub, comp, ovf, _ := r.Stats()
		c.ringEnters += enters
		c.ringSubmitted += sub
		c.ringCompleted += comp
		c.ringOverflow += ovf
	}
	if v.drv != nil {
		c.hasDriver = true
		c.uifdReads, c.uifdWrites = v.drv.Stats()
	}
	if v.cache != nil {
		c.hasCache = true
		c.cache = v.cache.Stats()
	}
	hosts := append([]*netsim.Host{v.client}, tb.Cluster.NodeHosts...)
	for _, h := range hosts {
		s := h.NIC.Stats()
		c.netMsgs += s.TxMsgs
		c.netBytes += s.TxBytes
	}
	c.clientBusy = v.client.NIC.Stats().Busy
	return c
}

// passOut is everything one pass of the op list yields.
type passOut struct {
	// Simulated results.
	lat      []sim.Duration // per op, in op-list order
	failed   int            // ops that errored or did not complete exactly once
	problems []string       // failed correctness checks, each naming its layer
	digest   uint64
	// winStart is when the first measured op was submitted, winEnd when
	// the last measured op completed, end when the engine drained.
	winStart, winEnd, end sim.Time
	// cacheWin is the LSVD counters' change over the measured window.
	cacheWin lsvd.Stats
	c        counters

	// Host cost. submit is measured in traced passes only.
	setupTestbed, setupStack, run, submit, cpu time.Duration
	allocs, allocBytes, gcCycles               uint64
	// peakRSSMB is the process's peak resident set when the pass ended.
	peakRSSMB float64

	// Traced passes only.
	prof  *core.StageProfile
	trace *trace.Result
}

func (p *passOut) setup() time.Duration { return p.setupTestbed + p.setupStack }

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

type hostSnap struct {
	wall                    time.Time
	cpu                     time.Duration
	allocs, bytes, gcCycles uint64
	maxRSSKiB               int64
}

func snapHost() hostSnap {
	metrics.Read(runtimeSamples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return hostSnap{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   runtimeSamples[0].Value.Uint64(),
		bytes:    runtimeSamples[1].Value.Uint64(),
		gcCycles: runtimeSamples[2].Value.Uint64(),
		// Linux reports the process's peak resident set in KiB.
		maxRSSKiB: ru.Maxrss,
	}
}

// setupStack builds the workload's testbed and stack, returning the time
// each step took. A traced setup turns on the program's own stage profile
// and span tracer before the stack is built.
func setupStack(w workload, tr *trace.Tracer) (*core.Testbed, core.Stack, time.Duration, time.Duration, error) {
	spec, err := core.ParseStackSpec(w.spec)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("%s: stack spec: %w", w.name, err)
	}
	t0 := time.Now()
	tb, err := core.NewTestbed(w.testbedConfig())
	testbed := time.Since(t0)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("%s: NewTestbed: %w", w.name, err)
	}
	if tr != nil {
		tb.EnableProfiling()
		tb.EnableTracing(tr)
	}
	t1 := time.Now()
	st, err := tb.BuildStack(spec)
	stack := time.Since(t1)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("%s: BuildStack: %w", w.name, err)
	}
	return tb, st, testbed, stack, nil
}

// runPass builds a fresh testbed and stack, drives the op list through it
// as a closed loop of slots outstanding ops, and checks the results.
func runPass(w workload, ops []op, traced bool) (*passOut, error) {
	runtime.GC() // start every pass from the same heap state
	var tr *trace.Tracer
	if traced {
		tr = trace.New(trace.Config{SampleEvery: traceSampleEvery, Salt: 1, TopK: traceTopK})
	}
	tb, st, setupTB, setupSt, err := setupStack(w, tr)
	if err != nil {
		return nil, err
	}
	v, err := viewOf(tb, st)
	if err != nil {
		return nil, err
	}
	eng := tb.Eng
	out := &passOut{lat: make([]sim.Duration, len(ops)), setupTestbed: setupTB, setupStack: setupSt}
	issued := make([]sim.Time, len(ops))
	completions := make([]uint8, len(ops))
	errored := make([]bool, len(ops))
	var cacheAtWin lsvd.Stats

	// One prebuilt completion callback per slot keeps the load loop itself
	// allocation-free per op.
	next := 0
	cur := make([]int, slots)
	cbs := make([]func(error), slots)
	depth := 0
	var submit func(slot int)
	submit = func(slot int) {
		i := next
		if i >= len(ops) {
			return
		}
		next++
		if i == w.warmup {
			out.winStart = eng.Now()
			if v.cache != nil {
				cacheAtWin = v.cache.Stats()
			}
		}
		cur[slot] = i
		issued[i] = eng.Now()
		kind := core.Read
		if ops[i].write {
			kind = core.Write
		}
		if traced && depth == 0 {
			depth++
			t := time.Now()
			st.Submit(kind, core.Rand, ops[i].off, w.bs, slot%cpus, cbs[slot])
			out.submit += time.Since(t)
			depth--
			return
		}
		st.Submit(kind, core.Rand, ops[i].off, w.bs, slot%cpus, cbs[slot])
	}
	for s := range cbs {
		slot := s
		cbs[slot] = func(err error) {
			i := cur[slot]
			now := eng.Now()
			completions[i]++
			if completions[i] == 1 {
				out.lat[i] = now.Sub(issued[i])
			}
			if err != nil {
				errored[i] = true
			}
			if i >= w.warmup && now > out.winEnd {
				out.winEnd = now
			}
			submit(slot)
		}
	}
	eng.Schedule(0, func() {
		for s := 0; s < slots; s++ {
			submit(s)
		}
	})

	before := snapHost()
	eng.Run()
	after := snapHost()
	out.run = after.wall.Sub(before.wall)
	out.cpu = after.cpu - before.cpu
	out.allocs = after.allocs - before.allocs
	out.allocBytes = after.bytes - before.bytes
	out.gcCycles = after.gcCycles - before.gcCycles
	out.peakRSSMB = float64(after.maxRSSKiB) / 1024
	out.end = eng.Now()

	out.c = readCounters(tb, v)
	if v.cache != nil {
		out.cacheWin = subCache(out.c.cache, cacheAtWin)
	}
	out.check(w, tb, completions, errored)
	out.digest = out.computeDigest(errored)
	if traced {
		out.prof = tb.Profile
		out.trace = tr.Finalize(w.name)
	}
	teardown(tb, st)
	return out, nil
}

// teardown closes the stack and runs the engine once more, so the
// processes parked on the closed rings and cache wake and end; a skipped
// run would leave their goroutines, and with them the whole testbed,
// alive for the rest of the benchmark.
func teardown(tb *core.Testbed, st core.Stack) {
	st.Close()
	tb.Eng.Run()
}

// check runs the per-pass correctness checks. Each failure names the
// workload and the layer whose conservation broke.
func (p *passOut) check(w workload, tb *core.Testbed, completions []uint8, errored []bool) {
	fail := func(layer, format string, args ...any) {
		p.problems = append(p.problems, fmt.Sprintf("%s: layer %s: %s", w.name, layer, fmt.Sprintf(format, args...)))
	}
	var badCount, errCount int
	for i, n := range completions {
		switch {
		case n != 1:
			badCount++
			p.failed++
		case errored[i]:
			errCount++
			p.failed++
		}
	}
	if badCount > 0 {
		fail("core", "%d of %d ops did not complete exactly once", badCount, len(completions))
	}
	if errCount > 0 {
		fail("core", "%d of %d ops completed with an error", errCount, len(completions))
	}
	for i, e := range engines(tb) {
		if n := e.Pending(); n != 0 {
			fail("sim", "engine %d has %d events pending at drain", i, n)
		}
	}
	c := p.c
	if c.hasMQ && c.mq.Submitted != c.mq.Completed {
		fail("blockmq", "submitted %d != completed %d", c.mq.Submitted, c.mq.Completed)
	}
	if c.hasRings {
		if c.ringSubmitted != c.ringCompleted {
			fail("iouring", "ring submitted %d != completed %d", c.ringSubmitted, c.ringCompleted)
		}
		if c.ringOverflow != 0 {
			fail("iouring", "%d CQ overflows", c.ringOverflow)
		}
		if c.ringSubmitted != uint64(len(completions)) {
			fail("iouring", "ring submitted %d SQEs for %d ops", c.ringSubmitted, len(completions))
		}
	}
	if c.hasDriver && c.hasMQ && c.uifdReads+c.uifdWrites != c.mq.Completed {
		fail("uifd", "card reads %d + writes %d != blk-mq completions %d", c.uifdReads, c.uifdWrites, c.mq.Completed)
	}
}

// computeDigest hashes every op's simulated latency and outcome plus the
// window edges: equal digests mean equal simulated results.
func (p *passOut) computeDigest(errored []bool) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	for i, l := range p.lat {
		put(int64(l))
		if errored[i] {
			put(-1)
		}
	}
	put(int64(p.winStart))
	put(int64(p.winEnd))
	put(int64(p.end))
	return h.Sum64()
}

func subCache(a, b lsvd.Stats) lsvd.Stats {
	return lsvd.Stats{
		Hits:          a.Hits - b.Hits,
		Misses:        a.Misses - b.Misses,
		Fills:         a.Fills - b.Fills,
		Throttles:     a.Throttles - b.Throttles,
		Flushes:       a.Flushes - b.Flushes,
		Evictions:     a.Evictions - b.Evictions,
		AppendedBytes: a.AppendedBytes - b.AppendedBytes,
	}
}
