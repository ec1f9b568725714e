package core

import (
	"testing"

	"repro/internal/sim"
)

// TestNoPerOpProcs pins the concurrency model of the benchmarked stacks:
// every per-op path (ring target, software client, OSD service, fan-out,
// cache tier) is a continuation, so after the long-lived actors have
// started, serving another 1,000 ops spawns no Proc at all.
func TestNoPerOpProcs(t *testing.T) {
	for _, c := range []struct {
		spec string
		bs   int
	}{
		{"deliba-k-hw", 4096},
		{"deliba-k-sw+ec", 16 << 10},
		{"deliba-k-hw+cache-lsvd", 4096},
	} {
		t.Run(c.spec, func(t *testing.T) {
			spec, err := ParseStackSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := NewTestbed(DefaultTestbedConfig())
			if err != nil {
				t.Fatal(err)
			}
			stack, err := tb.BuildStack(spec)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(7)
			objBytes := int64(tb.Cfg.ObjectBytes)
			blocks := int(stack.ImageBytes()/int64(c.bs)) - 1
			// run keeps 48 ops outstanding from callbacks alone (no
			// driver proc) until n have completed; every tenth op
			// straddles an object boundary, so two client extents.
			run := func(n int) {
				issued, completed := 0, 0
				var next func(cpu int)
				next = func(cpu int) {
					if issued == n {
						return
					}
					issued++
					op := Write
					if rng.Intn(2) == 0 {
						op = Read
					}
					off := int64(rng.Intn(blocks)) * int64(c.bs)
					if issued%10 == 0 {
						off = int64(1+rng.Intn(7))*objBytes - int64(c.bs)/2
					}
					stack.Submit(op, Rand, off, c.bs, cpu, func(err error) {
						if err != nil {
							t.Errorf("op at %d: %v", off, err)
						}
						completed++
						next(cpu)
					})
				}
				for slot := 0; slot < 48; slot++ {
					next(slot % DKInstances)
				}
				tb.Eng.Run()
				if completed != n {
					t.Fatalf("completed %d of %d ops", completed, n)
				}
			}
			run(1000)
			after1k := tb.Eng.Spawned()
			run(1000)
			if got := tb.Eng.Spawned(); got != after1k {
				t.Errorf("spawned %d procs after 1,000 ops and %d after 2,000, want no per-op procs", after1k, got)
			}
			stack.Close()
			tb.Eng.Run()
		})
	}
}
