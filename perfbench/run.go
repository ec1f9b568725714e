package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

const (
	// minPasses per phase: at least two so every run compares digests.
	minPasses = 2
	// setupRepeats extra testbed+stack builds per run feed setup_s, which
	// is the median over these and every untraced pass's own set-up.
	setupRepeats = 25
)

// result is one run of a workload: the metrics it reports, and the
// correctness outcome over every pass.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	// notCarried lists per-layer metrics the workload does not exercise;
	// they are reported as 0.
	notCarried []string
}

// runWorkload runs the untraced passes for seconds and, when traced, the
// traced passes for as long again, and computes the metrics.
func runWorkload(w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	ops := genOps(w, seed)
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		tb, st, a, b, err := setupStack(w, nil)
		if err != nil {
			return nil, err
		}
		teardown(tb, st)
		setups = append(setups, a+b)
	}
	plain, err := measure(w, ops, seconds, false)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	all := plain
	var tracedPasses []*passOut
	var cpuProfile bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&cpuProfile); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		tracedPasses, err = measure(w, ops, seconds, true)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		all = append(slices.Clone(plain), tracedPasses...)
	}

	// Correctness: per-pass checks, and one digest for every pass of the
	// run, traced or not.
	first := plain[0]
	for i, p := range all {
		res.attempted += len(ops)
		res.failed += p.failed
		res.problems = append(res.problems, p.problems...)
		if p.digest != first.digest {
			kind := "untraced"
			if i >= len(plain) {
				kind = "traced"
			}
			res.problems = append(res.problems, fmt.Sprintf(
				"%s: layer sim: %s pass %d digest %016x != first pass %016x", w.name, kind, i, p.digest, first.digest))
		}
	}
	if len(res.problems) > 0 {
		// Every op of a run whose checks failed counts as failed.
		res.failed = res.attempted
	}

	for _, p := range plain {
		setups = append(setups, p.setup())
	}
	if err := res.endToEnd(w, ops, plain, setups); err != nil {
		return nil, err
	}
	if traced {
		shares, err := moduleShares(cpuProfile.Bytes())
		if err != nil {
			return nil, err
		}
		res.perLayer(w, ops, plain, tracedPasses, shares)
	}
	for name, v := range res.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, name, v)
		}
	}
	return res, nil
}

// measure repeats passes of the op list until seconds have elapsed.
func measure(w workload, ops []op, seconds float64, traced bool) ([]*passOut, error) {
	start := time.Now()
	var passes []*passOut
	for len(passes) < minPasses || time.Since(start).Seconds() < seconds {
		p, err := runPass(w, ops, traced)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
	}
	return passes, nil
}

func (r *result) endToEnd(w workload, ops []op, plain []*passOut, setups []time.Duration) error {
	p := plain[0]
	var all, writes []sim.Duration
	for i, o := range ops[w.warmup:] {
		l := p.lat[w.warmup+i]
		all = append(all, l)
		if o.write {
			writes = append(writes, l)
		}
	}
	slices.Sort(all)
	slices.Sort(writes)
	if beyond := len(all) - int(math.Ceil(0.999*float64(len(all)))); beyond < 10 {
		return fmt.Errorf("%s: only %d samples beyond p999; measure more ops", w.name, beyond)
	}
	n := float64(len(ops))
	m := r.metrics
	m["sim_kiops"] = float64(w.measured) / p.winEnd.Sub(p.winStart).Seconds() / 1e3
	m["sim_mean_us"] = meanOf(all)
	m["sim_write_mean_us"] = meanOf(writes)
	m["sim_p99_us"] = pct(all, 99)
	m["sim_p999_us"] = pct(all, 99.9)
	m["sim_write_p99_us"] = pct(writes, 99)
	m["host_kops_per_s"] = medianOf(plain, func(p *passOut) float64 { return n / p.run.Seconds() / 1e3 })
	m["host_cpu_ms_per_kop"] = medianOf(plain, func(p *passOut) float64 { return ms(p.cpu) / (n / 1e3) })
	m["host_allocs_per_op"] = medianOf(plain, func(p *passOut) float64 { return float64(p.allocs) / n })
	m["host_alloc_bytes_per_op"] = medianOf(plain, func(p *passOut) float64 { return float64(p.allocBytes) / n })
	// Peak RSS over set-up and the first minPasses passes: it would
	// otherwise grow with how many passes fit in the run.
	m["host_peak_rss_mb"] = plain[minPasses-1].peakRSSMB
	m["setup_s"] = medianOf(setups, func(d time.Duration) float64 { return d.Seconds() })
	m["completed_share"] = 1 - float64(r.failed)/float64(r.attempted)
	return nil
}

// perLayer computes the per-layer metrics: counts from the first untraced
// pass, simulated stage times and critical-path shares from the first
// traced pass, host times as medians over the traced passes, and CPU
// shares from the traced passes' profile.
func (r *result) perLayer(w workload, ops []op, plain, traced []*passOut, cpuShares map[string]float64) {
	m := r.metrics
	n := float64(len(ops))
	c := plain[0].c
	p := plain[0]

	m["sim.events_per_op"] = float64(c.events) / n
	m["sim.host_ns_per_event"] = medianOf(traced, func(p *passOut) float64 { return float64(p.run.Nanoseconds()) / float64(p.c.events) })
	var reads, writes []sim.Duration
	for i, o := range ops[w.warmup:] {
		if o.write {
			writes = append(writes, p.lat[w.warmup+i])
		} else {
			reads = append(reads, p.lat[w.warmup+i])
		}
	}
	slices.Sort(reads)
	slices.Sort(writes)
	m["sim.write_p50_us"] = pct(writes, 50)
	if len(reads) > 0 {
		m["sim.read_p50_us"] = pct(reads, 50)
		m["sim.read_p99_us"] = pct(reads, 99)
	}

	for _, mod := range []string{"sim", "rados", "crush", "core", "netsim", "iouring", "blockmq", "trace", "lsvd", "metrics", "runtime"} {
		m[mod+".host_cpu_share"] = cpuShares[mod]
	}

	// Simulated stage times. Stages nest host-api ⊃ kernel ⊃ transport ⊃
	// card stages on the card path (kernel ⊃ lsvd-cache with the cache
	// tier); on the software path the kernel span covers only the RBD
	// mapping and the RADOS round trip is its sibling network-fanout span.
	prof := traced[0].prof
	stage := func(name string) *metrics.Histogram {
		if h := prof.Stage(name); h != nil {
			return h
		}
		return metrics.NewHistogram()
	}
	host, kern, cache := stage(core.StageHostAPI), stage(core.StageKernel), stage(core.StageCache)
	trans, accel, enc, fan := stage(core.StageTransport), stage(core.StageAccel), stage(core.StageEncode), stage(core.StageFanout)
	if c.hasMQ {
		m["iouring.sim_self_mean_us"] = mean(host) - mean(kern)
		inner := trans
		if c.hasCache {
			inner = cache
		}
		m["blockmq.sim_self_mean_us"] = mean(kern) - mean(inner)
		m["qdma.sim_self_mean_us"] = perCount(trans.Sum()-accel.Sum()-enc.Sum()-fan.Sum(), trans.Count())
		m["fpga.sim_crush_mean_us"] = mean(accel)
	} else {
		m["iouring.sim_self_mean_us"] = perCount(host.Sum()-kern.Sum()-fan.Sum(), host.Count())
	}
	m["core.sim_fanout_mean_us"] = mean(fan)
	m["core.sim_fanout_p99_us"] = fan.Percentile(99).Microseconds()
	if c.hasCache {
		m["lsvd.sim_mean_us"] = mean(cache)
		m["lsvd.sim_p99_us"] = cache.Percentile(99).Microseconds()
	}

	// Layer counters.
	m["iouring.enters_per_kop"] = float64(c.ringEnters) / (n / 1e3)
	m["iouring.cq_overflows"] = float64(c.ringOverflow)
	if c.hasMQ {
		m["blockmq.direct_share"] = float64(c.mq.DirectHits) / float64(c.mq.Submitted)
		m["blockmq.requeues_per_kop"] = float64(c.mq.Requeues) / (n / 1e3)
	}
	if c.hasDriver {
		m["uifd.card_ops_per_op"] = float64(c.uifdReads+c.uifdWrites) / n
	}
	if c.hasCache {
		cw := p.cacheWin
		kop := float64(w.measured) / 1e3
		m["lsvd.read_hit_ratio"] = float64(cw.Hits) / float64(cw.Hits+cw.Misses)
		m["lsvd.fills_per_read_miss"] = float64(cw.Fills) / float64(cw.Misses)
		m["lsvd.evictions_per_kop"] = float64(cw.Evictions) / kop
		m["lsvd.write_amp"] = float64(cw.AppendedBytes) / float64(len(writes)*w.bs)
		m["lsvd.flushes"] = float64(cw.Flushes)
		m["lsvd.throttles_per_kop"] = float64(cw.Throttles) / kop
	}
	m["netsim.msgs_per_op"] = float64(c.netMsgs) / n
	m["netsim.bytes_per_op"] = float64(c.netBytes) / n
	m["netsim.client_nic_busy_share"] = float64(c.clientBusy) / float64(p.end)
	m["runtime.gc_cycles_per_kop"] = medianOf(plain, func(p *passOut) float64 { return float64(p.gcCycles) / (n / 1e3) })

	// Critical-path shares over the slowest sampled ops; a span's queue
	// wait (":wait") counts toward the span.
	crit := map[string]float64{}
	for _, ps := range traced[0].trace.CritPath {
		name := strings.TrimSuffix(ps.Name, ":wait")
		switch name {
		case "io-read", "io-write":
			name = "io"
		case "replica-read", "replica-write":
			name = "replica"
		}
		crit[name] += ps.Share
	}
	for _, d := range perLayer {
		if s, ok := strings.CutPrefix(d.name, "crit."); ok {
			m[d.name] = crit[strings.TrimSuffix(s, ".share")]
		}
	}

	m["core.host_submit_ns_per_op"] = medianOf(traced, func(p *passOut) float64 { return float64(p.submit.Nanoseconds()) / n })
	m["setup.testbed_ms"] = medianOf(traced, func(p *passOut) float64 { return ms(p.setupTestbed) })
	m["setup.stack_ms"] = medianOf(traced, func(p *passOut) float64 { return ms(p.setupStack) })
	m["trace.overhead_ratio"] = r.metrics["host_kops_per_s"] /
		medianOf(traced, func(p *passOut) float64 { return n / p.run.Seconds() / 1e3 })

	for _, d := range perLayer {
		if !w.carries(d) {
			r.notCarried = append(r.notCarried, d.name)
		}
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}

// pct returns the q-th percentile of sorted durations in microseconds
// (nearest rank).
func pct(sorted []sim.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i].Microseconds()
}

func meanOf(ds []sim.Duration) float64 {
	var sum float64
	for _, d := range ds {
		sum += d.Microseconds()
	}
	return sum / float64(len(ds))
}

func mean(h *metrics.Histogram) float64 { return perCount(h.Sum(), h.Count()) }

func perCount(sum sim.Duration, count uint64) float64 {
	if count == 0 {
		return 0
	}
	return sum.Microseconds() / float64(count)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
