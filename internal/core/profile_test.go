package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/simtest"
)

func TestStageProfileRecordsPipeline(t *testing.T) {
	cfg := DefaultTestbedConfig()
	cfg.Jitter = false
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := tb.EnableProfiling()
	stack, err := tb.NewStack(StackDKHW, true) // EC: exercises the encoder too
	if err != nil {
		t.Fatal(err)
	}
	simtest.Spawn(tb.Eng, "io", func(p *simtest.Proc) {
		for i := 0; i < 10; i++ {
			if err := do(p, stack, Write, Rand, int64(i)*8192, 8192, 0); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := do(p, stack, Read, Rand, int64(i)*8192, 8192, 0); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
	})
	tb.Eng.Run()
	stack.Close()

	for _, stage := range []string{StageHostAPI, StageKernel, StageTransport, StageAccel, StageEncode, StageFanout} {
		h := prof.Stage(stage)
		if h == nil || h.Count() == 0 {
			t.Fatalf("stage %q not recorded", stage)
		}
	}
	if got := prof.Stage(StageKernel).Count(); got != 15 {
		t.Fatalf("kernel stage ops = %d, want 15", got)
	}
	if got := prof.Stage(StageEncode).Count(); got != 10 {
		t.Fatalf("encode stage ops = %d, want 10 (writes only)", got)
	}
	// Sub-stages fit inside the round trip.
	if prof.Stage(StageAccel).Mean() >= prof.Stage(StageKernel).Mean() {
		t.Fatal("accelerator stage not smaller than the round trip")
	}
	if prof.Stage(StageFanout).Mean() >= prof.Stage(StageKernel).Mean() {
		t.Fatal("fanout stage not smaller than the round trip")
	}
	// The encoder occupies well under a microsecond per 8 kB op (Table I).
	if prof.Stage(StageEncode).Mean() > 2*sim.Microsecond {
		t.Fatalf("encoder stage mean %v too large", prof.Stage(StageEncode).Mean())
	}
	out := prof.Table().String()
	if !strings.Contains(out, StageFanout) {
		t.Fatalf("table missing stages:\n%s", out)
	}
	if len(prof.Stages()) != 6 {
		t.Fatalf("stages = %v", prof.Stages())
	}
	if got := prof.Stage(StageHostAPI).Count(); got != 15 {
		t.Fatalf("host-api stage ops = %d, want 15", got)
	}
	// The host-api span contains the kernel span, which contains transport.
	if prof.Stage(StageHostAPI).Mean() < prof.Stage(StageKernel).Mean() {
		t.Fatal("host-api round trip smaller than the kernel round trip")
	}
	if prof.Stage(StageKernel).Mean() < prof.Stage(StageTransport).Mean() {
		t.Fatal("kernel round trip smaller than the transport round trip")
	}
}

// splitProfileFingerprint runs a mixed stream on a profiled split-domain
// testbed and folds every stage histogram into a string.
func splitProfileFingerprint(t *testing.T, seed uint64) (*StageProfile, string) {
	t.Helper()
	tb, err := NewTestbed(splitConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof := tb.EnableProfiling()
	sp, err := ParseStackSpec("deliba-k-sw+cache-lsvd")
	if err != nil {
		t.Fatal(err)
	}
	stack, err := tb.BuildStack(sp)
	if err != nil {
		t.Fatal(err)
	}
	simtest.Spawn(tb.Eng, "split-profiled-io", func(p *simtest.Proc) {
		rng := sim.NewRNG(seed)
		for i := 0; i < 200; i++ {
			op := Write
			if rng.Intn(100) < 50 {
				op = Read
			}
			off := int64(rng.Intn(256)) * 4096
			if err := do(p, stack, op, Rand, off, 4096, 0); err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
		}
	})
	tb.Eng.Run()
	stack.Close()
	tb.Eng.Run() // drain the cache flusher's shutdown
	var b strings.Builder
	for _, stage := range prof.Stages() {
		h := prof.Stage(stage)
		fmt.Fprintf(&b, "%s|%d|%d|%d|%d\n", stage, h.Count(), int64(h.Sum()), int64(h.Min()), int64(h.Max()))
	}
	return prof, b.String()
}

// TestStageProfileSplitDomains is the regression test for profiling on a
// split-domain testbed: the transport stage's span opens on the host shard
// and closes at the request's canonical arrival on the OSD shard, so its
// recorded durations must bound below at the fabric propagation delay —
// a close that misread the opening domain's mid-window clock would record
// skewed (even sub-propagation or clamped-to-zero) times — and the whole
// profile must replay bit-identically. Run under -race this also pins the
// cross-shard record path: host and OSD workers feed their own sinks'
// histograms, which the view merges after the run.
func TestStageProfileSplitDomains(t *testing.T) {
	prof, fp1 := splitProfileFingerprint(t, 7)

	tr := prof.Stage(StageTransport)
	if tr == nil || tr.Count() == 0 {
		t.Fatalf("split-domain run recorded no transport spans; stages: %v", prof.Stages())
	}
	if min := tr.Min(); min < DefaultCostModel().Propagation {
		t.Errorf("transport span min %v below the propagation delay %v: cross-domain close read a skewed clock", min, DefaultCostModel().Propagation)
	}
	for _, stage := range prof.Stages() {
		h := prof.Stage(stage)
		if h.Min() < 0 || h.Max() < h.Min() {
			t.Errorf("stage %s histogram corrupt: min %v max %v", stage, h.Min(), h.Max())
		}
	}
	// Host-side stages must have recorded alongside the cross-domain one.
	for _, stage := range []string{StageKernel, StageCache, StageFanout} {
		if h := prof.Stage(stage); h == nil || h.Count() == 0 {
			t.Errorf("stage %s not recorded on the split testbed", stage)
		}
	}

	if _, fp2 := splitProfileFingerprint(t, 7); fp1 != fp2 {
		t.Fatalf("split-domain profile not deterministic:\n%s\nvs\n%s", fp1, fp2)
	}
}

func TestStageProfileNilSafe(t *testing.T) {
	var sp *StageProfile
	if sp.Stage("x") != nil {
		t.Fatal("nil profile returned a histogram")
	}
}

func TestEnableProfilingIdempotent(t *testing.T) {
	tb, err := NewTestbed(DefaultTestbedConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := tb.EnableProfiling()
	b := tb.EnableProfiling()
	if a != b {
		t.Fatal("EnableProfiling created a second profile")
	}
}
