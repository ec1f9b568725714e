package core

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
	"repro/internal/trace"
)

// updateStagePin rewrites testdata/stage_profile_pin.txt from the current
// code instead of comparing against it.
var updateStagePin = flag.Bool("update-stage-pin", false, "rewrite the stage-profile pin data")

const stagePinFile = "testdata/stage_profile_pin.txt"

// stagePinKeys names each profile stage by its Go constant, so the pinned
// data does not depend on the stage's display name.
var stagePinKeys = []struct{ key, stage string }{
	{"HostAPI", StageHostAPI},
	{"Kernel", StageKernel},
	{"Cache", StageCache},
	{"Transport", StageTransport},
	{"Accel", StageAccel},
	{"Encode", StageEncode},
	{"Fanout", StageFanout},
}

// stagePinCase is one stack on one testbed shape. bs overrides the 4 KiB
// op size: the cache cases write 64 KiB into an 8 MiB log, so segments
// seal, the log fills past its watermark and the flusher's write-back
// runs inside the pinned window.
type stagePinCase struct {
	name  string
	split bool
	bs    int
	spec  StackSpec
}

func stagePinCases(t *testing.T) []stagePinCase {
	var cases []stagePinCase
	for _, s := range NamedSpecs() {
		cases = append(cases, stagePinCase{name: s.Name, spec: s})
		ec := s
		ec.EC = true
		ec.Name += "+ec"
		if ec.Validate() == nil {
			cases = append(cases, stagePinCase{name: ec.Name, spec: ec})
		}
	}
	dl, _ := Spec(StackDKHW)
	dl.Block = BlockMQDeadline
	dl.Name += "+mq-deadline"
	cases = append(cases, stagePinCase{name: dl.Name, spec: dl})
	for _, c := range []struct {
		spec  string
		split bool
	}{{"deliba-k-hw+cache-lsvd", false}, {"deliba-k-sw+cache-lsvd", true}} {
		sp, err := ParseStackSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		sp.CacheLogMB = 8
		name := c.spec
		if c.split {
			name += "@split"
		}
		cases = append(cases, stagePinCase{name: name, split: c.split, bs: 64 << 10, spec: sp})
	}
	return cases
}

// Profiling modes: the profile alone, the profile enabled before a
// sampled tracer (perfbench's order), the reverse order, and the profile
// over an aggregate-only tracer (SampleEvery 0).
const (
	pinProfileOnly = iota
	pinProfileThenTrace
	pinTraceThenProfile
	pinAggregateTracer
)

// runStagePin drives a seeded mixed workload through the case's stack and
// returns the profile plus the tracer (nil in profile-only mode).
func runStagePin(t *testing.T, c stagePinCase, mode int) (*StageProfile, *trace.Tracer) {
	t.Helper()
	cfg := DefaultTestbedConfig()
	if c.split {
		cfg = splitConfig()
	}
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr *trace.Tracer
	switch mode {
	case pinProfileOnly:
		tb.EnableProfiling()
	case pinProfileThenTrace:
		tr = trace.New(trace.Config{SampleEvery: 4, Salt: 1})
		tb.EnableProfiling()
		tb.EnableTracing(tr)
	case pinTraceThenProfile:
		tr = trace.New(trace.Config{SampleEvery: 4, Salt: 1})
		tb.EnableTracing(tr)
		tb.EnableProfiling()
	case pinAggregateTracer:
		tr = trace.New(trace.Config{SampleEvery: 0, Salt: 1})
		tb.EnableTracing(tr)
		tb.EnableProfiling()
	}
	stack, err := tb.BuildStack(c.spec)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	driveStagePin(t, tb, stack, c.bs)
	return tb.Profile, tr
}

// driveStagePin runs four closed-loop workers of 60 ops each: 60/40
// writes to reads of bs bytes (0 = 4 KiB) at random 4 KiB-aligned offsets
// over 32 MiB, and every tenth op an 8 KiB access straddling an object
// boundary (two extents).
func driveStagePin(t *testing.T, tb *Testbed, stack Stack, bs int) {
	t.Helper()
	if bs == 0 {
		bs = 4096
	}
	rng := sim.NewRNG(1)
	const workers, perWorker = 4, 60
	objBytes := int64(tb.Cfg.ObjectBytes)
	for w := 0; w < workers; w++ {
		type op struct {
			kind OpType
			off  int64
			n    int
		}
		ops := make([]op, perWorker)
		for i := range ops {
			o := op{kind: Write, off: int64(rng.Intn(8192)) * 4096, n: bs}
			if rng.Intn(100) < 40 {
				o.kind = Read
			}
			if i%10 == 9 {
				o.off = int64(1+rng.Intn(7))*objBytes - 4096
				o.n = 8192
			}
			ops[i] = o
		}
		cpu := w
		simtest.Spawn(tb.Eng, "stage-pin", func(p *simtest.Proc) {
			for i, o := range ops {
				if err := do(p, stack, o.kind, Rand, o.off, o.n, cpu); err != nil {
					t.Errorf("op %d: %v", i, err)
					return
				}
			}
		})
	}
	tb.Eng.Run()
	stack.Close()
	tb.Eng.Run()
}

// stagePinLines renders every recorded stage of prof as one pin line.
func stagePinLines(caseName string, prof *StageProfile) []string {
	var out []string
	for _, k := range stagePinKeys {
		h := prof.Stage(k.stage)
		if h == nil || h.Count() == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%s %s %d %d %d %d %d %d %d", caseName, k.key,
			h.Count(), int64(h.Sum()), int64(h.Min()), int64(h.Max()),
			int64(h.Percentile(50)), int64(h.Percentile(99)), int64(h.Percentile(99.9))))
	}
	return out
}

func readStagePin(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open(stagePinFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = append(want[name], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestStageProfilePin pins every stage histogram's count, sum, min, max,
// p50, p99 and p999 for each covered stack at seed 1, in every profiling
// mode: the stage view must not depend on whether, in which order or with
// which sampling a tracer is attached. An aggregate-only tracer must also
// store no spans.
func TestStageProfilePin(t *testing.T) {
	cases := stagePinCases(t)
	if *updateStagePin {
		var b strings.Builder
		b.WriteString("# case stage count sum_ns min_ns max_ns p50_ns p99_ns p999_ns\n")
		b.WriteString("# regenerate: go test ./internal/core -run TestStageProfilePin -update-stage-pin\n")
		for _, c := range cases {
			prof, _ := runStagePin(t, c, pinProfileOnly)
			for _, l := range stagePinLines(c.name, prof) {
				b.WriteString(l + "\n")
			}
		}
		if err := os.WriteFile(stagePinFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readStagePin(t)
	modes := []string{"profile-only", "profile-then-trace", "trace-then-profile", "aggregate-tracer"}
	for _, c := range cases {
		if len(want[c.name]) == 0 {
			t.Errorf("%s: no pinned stages", c.name)
			continue
		}
		for mode, modeName := range modes {
			prof, tr := runStagePin(t, c, mode)
			if mode == pinAggregateTracer {
				if res := tr.Finalize(c.name); res.Sampled != 0 || len(res.Spans) != 0 {
					t.Errorf("%s: SampleEvery 0 stored %d roots, %d spans", c.name, res.Sampled, len(res.Spans))
				}
			}
			got := stagePinLines(c.name, prof)
			if strings.Join(got, "\n") != strings.Join(want[c.name], "\n") {
				t.Errorf("%s [%s]: stage profile moved\ngot:\n%s\nwant:\n%s", c.name, modeName,
					strings.Join(got, "\n"), strings.Join(want[c.name], "\n"))
			}
		}
	}
}
