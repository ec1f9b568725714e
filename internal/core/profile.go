package core

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// StageProfile is a read-only, per-stage view of the latency histograms
// the testbed's trace sinks keep for every span name — the
// profiling/tracing capability the paper's conclusion announces as future
// work ("tracing Ceph and Linux kernel operations related to erasure
// coding"). Each stage merges the histograms of the spans that mark its
// boundary (stageSpans), so the per-stage breakdown and the per-I/O traces
// come from one instrumentation path.
type StageProfile struct {
	tb *Testbed
}

// EnableProfiling attaches the stage view to the testbed and returns it.
// Without a tracer it also attaches an aggregate-only one (SampleEvery 0:
// histograms, no stored spans); a tracer enabled later replaces it. Either
// way it must be called before building the stack.
func (tb *Testbed) EnableProfiling() *StageProfile {
	if tb.Profile == nil {
		tb.Profile = &StageProfile{tb: tb}
		if tb.tracer == nil {
			tb.attachTracer(trace.New(trace.Config{}))
		}
	}
	return tb.Profile
}

// Stage name constants, one per layer boundary of the stack pipeline.
// Outer stages contain inner ones (host-api ⊃ kernel ⊃ transport ⊃ the
// card stages); subtracting an inner stage from its container isolates
// that boundary's own overhead.
const (
	// StageHostAPI is the whole-request residency in the host API layer:
	// submit to completion through the ring set or the NBD daemon loop
	// (the io-read/io-write root spans).
	StageHostAPI = "host-api"
	// StageKernel is the kernel block-layer round trip of a request: from
	// the UIFD RBD mapping through DMQ, QDMA, the card pipeline and back
	// (for host-only stacks, the kernel RBD mapping residency).
	// Subtracting the accelerator and fan-out stages isolates the kernel
	// overhead itself.
	StageKernel = "kernel"
	// StageCache is the LSVD write-back cache tier residency, nested
	// inside StageKernel: log append to durable ack for writes; cache
	// lookup to device read (hit) or backend fill (miss) for reads.
	StageCache = "lsvd-cache"
	// StageTransport is the host↔card transport round trip: the blk-mq
	// span on the DMQ path (dispatch through QDMA to completion), or the
	// legacy DMA crossings plus card residency; on a split-domain testbed,
	// the host→primary request leg.
	StageTransport = "transport"
	// StageAccel is the CRUSH placement kernel occupancy.
	StageAccel = "crush-select"
	// StageEncode is the RS encoder occupancy (EC writes).
	StageEncode = "rs-encode"
	// StageFanout is the OSD round trip of one extent: the card's network
	// fan-out, or one software-client request.
	StageFanout = "fanout"
)

// stageSpans maps each stage to the span names it merges; a stage absent
// here is the span of the same name.
var stageSpans = map[string][]string{
	StageHostAPI:   {"io-read", "io-write"},
	StageTransport: {"blk-mq", StageTransport},
}

// Stage returns the merged histogram for a stage (nil if never recorded).
func (sp *StageProfile) Stage(name string) *metrics.Histogram {
	if sp == nil {
		return nil
	}
	if names, ok := stageSpans[name]; ok {
		return sp.tb.tracer.Hist(names...)
	}
	return sp.tb.tracer.Hist(name)
}

// Stages returns the recorded stage names, sorted.
func (sp *StageProfile) Stages() []string {
	var names []string
	for _, n := range []string{StageHostAPI, StageKernel, StageCache, StageTransport, StageAccel, StageEncode, StageFanout} {
		if h := sp.Stage(n); h != nil && h.Count() > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Table renders the per-stage latency breakdown.
func (sp *StageProfile) Table() *metrics.Table {
	t := metrics.NewTable("I/O lifecycle stage profile",
		"stage", "ops", "mean", "p50", "p99", "max")
	for _, name := range sp.Stages() {
		h := sp.Stage(name)
		t.AddRow(name, h.Count(), h.Mean().String(), h.Median().String(),
			h.Percentile(99).String(), h.Max().String())
	}
	return t
}
