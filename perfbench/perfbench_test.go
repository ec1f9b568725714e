package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// small shrinks a workload's op list so a test pass takes a fraction of
// a second; the measured window still holds more than 10 samples beyond
// p999.
func small(w workload) workload {
	w.warmup = min(w.warmup, 500)
	w.measured = 10500
	return w
}

func TestGenOpsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := genOps(w, 7), genOps(w, 7)
		if !slices.Equal(a, b) {
			t.Errorf("%s: two op lists from seed 7 differ", w.name)
		}
		if slices.Equal(a, genOps(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 give the same op list", w.name)
		}
		if len(a) != w.warmup+w.measured {
			t.Errorf("%s: %d ops, want %d", w.name, len(a), w.warmup+w.measured)
		}
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the metric
// and workload tables in step.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, d)
		}
	}
}

// TestPrintedMetricsDeclared runs every workload briefly, untraced and
// traced, and checks that each printed metric is declared in
// BENCHMARK.json with its unit, that the checks pass, and that tracing
// leaves the simulated results unchanged.
func TestPrintedMetricsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		res, err := runWorkload(small(w), 3, 0.001, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.problems) > 0 || res.failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.failed, res.attempted, res.problems)
		}
		for _, traced := range []bool{false, true} {
			rep := res.report(traced)
			if len(rep.Metrics) != len(reported(traced)) {
				t.Errorf("%s: printed %d metrics, want %d", w.name, len(rep.Metrics), len(reported(traced)))
			}
			for name, v := range rep.Metrics {
				if unit, ok := units[name]; !ok || unit != v.Unit {
					t.Errorf("%s: printed %s in %q; BENCHMARK.json has %q (declared %v)", w.name, name, v.Unit, unit, ok)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			if res.metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, res.metrics[d.name])
			}
		}
	}
}

// splitWorkload runs deliba-k-sw on the SplitDomains testbed with two
// shards, whose window workers run concurrently when GOMAXPROCS > 1.
var splitWorkload = workload{
	name: "split2-dksw-mixed4k", spec: "deliba-k-sw", split: true,
	bs: 4 << 10, readPct: 70, warmup: 2000, measured: 40000,
}

// TestSplitDigestAcrossGOMAXPROCS runs the split-domain workload at
// GOMAXPROCS 1 and 2: the simulated results must be identical.
func TestSplitDigestAcrossGOMAXPROCS(t *testing.T) {
	w := small(splitWorkload)
	ops := genOps(w, 5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var digests []uint64
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		p, err := runPass(w, ops, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.problems) > 0 {
			t.Errorf("GOMAXPROCS=%d: %v", procs, p.problems)
		}
		digests = append(digests, p.digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("digest %016x at GOMAXPROCS=1, %016x at GOMAXPROCS=2", digests[0], digests[1])
	}
}

// TestPassLeavesNoGoroutines checks a pass, and a set-up alone, end every
// simulated process they start: a parked process would keep its whole
// testbed alive and slow every later pass's garbage collection.
func TestPassLeavesNoGoroutines(t *testing.T) {
	for _, w := range append(slices.Clone(workloads), splitWorkload) {
		w = small(w)
		before := runtime.NumGoroutine()
		if _, err := runPass(w, genOps(w, 1), false); err != nil {
			t.Fatal(err)
		}
		tb, st, _, _, err := setupStack(w, nil)
		if err != nil {
			t.Fatal(err)
		}
		teardown(tb, st)
		// Shard window workers end on their own once a run returns; give
		// them a moment.
		after := runtime.NumGoroutine()
		for i := 0; i < 200 && after > before; i++ {
			time.Sleep(5 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("%s: %d goroutines before, %d after", w.name, before, after)
		}
	}
}

// TestModuleShares profiles one pass and checks the attribution covers
// every sample and finds the engine.
func TestModuleShares(t *testing.T) {
	w := small(workloads[0])
	ops := genOps(w, 1)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := runPass(w, ops, false); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := moduleShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["sim"] == 0 {
		t.Errorf("no samples attributed to sim: %v", shares)
	}
}

func TestRepoModule(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).RunUntil":        "sim",
		"repro/internal/rados.(*OSD).SubmitOpts.func1": "rados",
		"runtime.mallocgc":                             "",
		"main.runPass.func2":                           "",
	} {
		if got := repoModule(fn); got != want {
			t.Errorf("repoModule(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(v, n=4) results.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
