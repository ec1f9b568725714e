package trace

import (
	"testing"

	"repro/internal/sim"
)

func TestSamplingEveryNth(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(Config{SampleEvery: 4, Salt: 7})
	s := tr.Sink(eng, "host")
	var sampled int
	for i := 0; i < 16; i++ {
		h := s.Root("op")
		if h.On() {
			sampled++
			h.End()
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 at SampleEvery=4, want 4", sampled)
	}
	res := tr.Finalize("cell")
	if res.Ops != 16 || res.Sampled != 4 {
		t.Fatalf("Ops=%d Sampled=%d, want 16/4", res.Ops, res.Sampled)
	}
}

func TestTraceIDsDeterministic(t *testing.T) {
	ids := func() []uint64 {
		eng := sim.NewEngine()
		tr := New(Config{SampleEvery: 1, Salt: 42})
		s := tr.Sink(eng, "host")
		var out []uint64
		for i := 0; i < 8; i++ {
			h := s.Root("op")
			out = append(out, h.Ref().Trace)
			h.End()
		}
		return out
	}
	a, b := ids(), ids()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace id %d differs across identical runs: %x vs %x", i, a[i], b[i])
		}
		if a[i] == 0 {
			t.Fatalf("trace id %d is zero", i)
		}
	}
	// A different salt must yield different IDs.
	eng := sim.NewEngine()
	tr := New(Config{SampleEvery: 1, Salt: 43})
	if got := tr.Sink(eng, "host").Root("op").Ref().Trace; got == a[0] {
		t.Fatalf("salt 43 collides with salt 42 on seq 1")
	}
}

func TestZeroHandlesAreNoOps(t *testing.T) {
	var h H
	if h.On() || h.ID() != 0 || h.Ref().Sampled() {
		t.Fatal("zero H must be off")
	}
	h.End()
	h.Wait()
	h.SetWait(5)
	h.Link(KindRetry, 1)
	var s *Sink
	if s.Root("x").On() || s.Begin(Ref{Trace: 1}, "x").On() {
		t.Fatal("nil sink must return no-op handles")
	}
	if s.Emit(Ref{Trace: 1}, "x", 0, 1, 0, "", 0) != 0 {
		t.Fatal("nil sink Emit must return 0")
	}
	if s.Ops() != 0 {
		t.Fatal("nil sink Ops must be 0")
	}
	// Unsampled parent propagates off-ness.
	eng := sim.NewEngine()
	sk := New(Config{SampleEvery: 1}).Sink(eng, "host")
	if sk.Begin(Ref{}, "x").On() {
		t.Fatal("Begin under an unsampled Ref must be a no-op")
	}
}

// TestSpanTreeAndWait drives a small simulated op: root with two
// sequential children, the second carrying queue wait.
func TestSpanTreeAndWait(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(Config{SampleEvery: 1, Salt: 1})
	s := tr.Sink(eng, "host")

	var root, c1, c2 H
	eng.Schedule(0, func() { root = s.Root("io") })
	eng.Schedule(10, func() { c1 = s.Begin(root.Ref(), "prep") })
	eng.Schedule(30, func() { c1.End() })
	eng.Schedule(30, func() { c2 = s.Begin(root.Ref(), "svc") })
	eng.Schedule(50, func() { c2.Wait() })
	eng.Schedule(90, func() { c2.End() })
	eng.Schedule(100, func() { root.End() })
	eng.Run()

	res := tr.Finalize("cell")
	if len(res.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(res.Spans))
	}
	rs, s1, s2 := res.Spans[0], res.Spans[1], res.Spans[2]
	if rs.Dur != 100 || s1.Start != 10 || s1.Dur != 20 || s2.Start != 30 || s2.Dur != 60 {
		t.Fatalf("unexpected span intervals: %+v %+v %+v", rs, s1, s2)
	}
	if s2.Wait != 20 {
		t.Fatalf("svc wait = %d, want 20", s2.Wait)
	}
	if s1.Parent != rs.ID || s2.Parent != rs.ID {
		t.Fatal("children not parented to root")
	}

	// Critical path: svc covers [30,90) with wait [30,50); prep [10,30);
	// root self [0,10) and [90,100).
	path := res.Exemplars[0].Path
	want := map[string]sim.Duration{"svc": 40, "svc:wait": 20, "prep": 20, "io": 20}
	if len(path) != len(want) {
		t.Fatalf("critical path rows %v, want %v", path, want)
	}
	for _, ps := range path {
		if want[ps.Name] != ps.Dur {
			t.Fatalf("path %s = %d, want %d (full: %v)", ps.Name, ps.Dur, want[ps.Name], path)
		}
	}
}

// TestCriticalPathOverlap pins the blocking-chain rule: with overlapping
// children only the latest-ending chain is credited for the overlap.
func TestCriticalPathOverlap(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: 9, Name: "root", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Trace: 9, Name: "a", Start: 0, Dur: 80},
		{ID: 3, Parent: 1, Trace: 9, Name: "b", Start: 40, Dur: 60}, // ends at 100
	}
	path := CriticalPath(spans, 1)
	got := map[string]sim.Duration{}
	for _, ps := range path {
		got[ps.Name] = ps.Dur
	}
	// b blocks [40,100); a blocks only its uncovered prefix [0,40).
	if got["b"] != 60 || got["a"] != 40 || got["root"] != 0 {
		t.Fatalf("overlap attribution wrong: %v", path)
	}
}

func TestFinalizeReservoir(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(Config{SampleEvery: 1, Salt: 3, TopK: 2, MaxCause: 1})
	s := tr.Sink(eng, "host")
	// 5 ops with durations 10,20,30,40,50; op 0 (fastest) carries a retry
	// cause link.
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(sim.Duration(1000*i), func() {
			h := s.Root("io")
			if i == 0 {
				c := s.Begin(h.Ref(), "attempt")
				c.Link(KindRetry, 0)
				c.End()
			}
			dur := sim.Duration(10 * (i + 1))
			eng.Schedule(dur, func() { h.End() })
		})
	}
	eng.Run()
	res := tr.Finalize("cell")
	if len(res.Exemplars) != 3 {
		t.Fatalf("got %d exemplars, want 3 (top-2 + 1 cause)", len(res.Exemplars))
	}
	if res.Exemplars[0].Dur != 50 || res.Exemplars[1].Dur != 40 {
		t.Fatalf("top-K order wrong: %+v", res.Exemplars)
	}
	if res.Exemplars[2].Dur != 10 || !res.Exemplars[2].Cause {
		t.Fatalf("cause-linked exemplar not retained: %+v", res.Exemplars[2])
	}
	// Pruning keeps only retained traces' spans: 3 traces, 4 spans.
	if len(res.Spans) != 4 {
		t.Fatalf("pruned span count %d, want 4", len(res.Spans))
	}
	if len(res.CritPath) == 0 {
		t.Fatal("no aggregated critical path")
	}
}

// TestMultiSinkMerge checks canonical merge order and cross-sink
// parentage: sink registration order fixes ID namespaces regardless of
// emission interleaving.
func TestMultiSinkMerge(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(Config{SampleEvery: 1, Salt: 5})
	host := tr.Sink(eng, "host")
	osd := tr.Sink(eng, "osds")

	var root H
	eng.Schedule(0, func() { root = host.Root("io") })
	eng.Schedule(5, func() {
		id := osd.Emit(root.Ref(), "osd-service", 5, 10, 2, "", 0)
		if id>>32 != 2 {
			t.Errorf("osd sink span id %x not in sink-2 namespace", id)
		}
	})
	eng.Schedule(20, func() { root.End() })
	eng.Run()

	res := tr.Finalize("cell")
	if len(res.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(res.Spans))
	}
	if res.Spans[0].Domain != "host" || res.Spans[1].Domain != "osds" {
		t.Fatalf("merge order not canonical: %+v", res.Spans)
	}
	if res.Spans[1].Parent != res.Spans[0].ID {
		t.Fatal("cross-sink parent link broken")
	}
	if res.Spans[1].Wait != 2 || res.Spans[1].Dur != 10 {
		t.Fatalf("retroactive emit fields wrong: %+v", res.Spans[1])
	}
}

// TestAggregatesEveryOp: every root op and its children feed the sinks'
// per-name histograms, sampled or not; sampling only decides storage.
func TestAggregatesEveryOp(t *testing.T) {
	for _, every := range []int{0, 1, 4} {
		eng := sim.NewEngine()
		tr := New(Config{SampleEvery: every, Salt: 9})
		host, osd := tr.Sink(eng, "host"), tr.Sink(eng, "osd")
		for i := 0; i < 16; i++ {
			i := i
			eng.Schedule(sim.Duration(100*i), func() {
				root := host.Root("io")
				child, cref := host.Open(root.Ref(), "child")
				if !cref.Traced() {
					t.Errorf("SampleEvery %d: child context of a traced op is untraced", every)
				}
				eng.Schedule(10, func() {
					osd.Emit(cref, "svc", eng.Now()-5, 5, 0, "", 0)
					child.End()
				})
				eng.Schedule(20, root.End)
			})
		}
		eng.Run()
		for name, want := range map[string]sim.Duration{"io": 20, "child": 10, "svc": 5} {
			h := tr.Hist(name)
			if h == nil || h.Count() != 16 || h.Min() != want || h.Max() != want {
				t.Fatalf("SampleEvery %d: %s histogram = %v, want 16 x %v", every, name, h, want)
			}
		}
		if h := tr.Hist("io", "child"); h.Count() != 32 {
			t.Fatalf("SampleEvery %d: merged histogram count %d, want 32", every, h.Count())
		}
		res := tr.Finalize("cell")
		stored := 0
		if every > 0 {
			stored = 16 / every
		}
		if res.Sampled != stored || len(res.Spans) != 3*min(stored, 4) {
			t.Fatalf("SampleEvery %d: sampled %d, %d spans kept; want %d sampled", every, res.Sampled, len(res.Spans), stored)
		}
	}
	if New(Config{}).Hist("none") != nil {
		t.Fatal("unrecorded span name returned a histogram")
	}
}

// TestStaleUnstoredHandle: an unstored span's slot is reused after it
// closes, and a stale handle to it cannot close the slot's new span.
func TestStaleUnstoredHandle(t *testing.T) {
	eng := sim.NewEngine()
	tr := New(Config{Salt: 1})
	s := tr.Sink(eng, "host")
	a := s.Root("a")
	eng.Schedule(5, func() {
		a.End()
		b := s.Root("b") // reuses a's slot
		a.End()          // stale: must not close b
		eng.Schedule(7, b.End)
	})
	eng.Run()
	if h := tr.Hist("a"); h.Count() != 1 || h.Max() != 5 {
		t.Fatalf("a recorded %d times, max %v; want once at 5ns", h.Count(), h.Max())
	}
	if h := tr.Hist("b"); h.Count() != 1 || h.Max() != 7 {
		t.Fatalf("b recorded %d times, max %v; want once at 7ns", h.Count(), h.Max())
	}
}
