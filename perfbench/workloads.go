package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/sim"
)

// Closed-loop load: the paper's fio configuration, 3 submitting CPUs with
// 16 outstanding I/Os each, all driven from one process.
const (
	cpus       = 3
	queueDepth = 16
	slots      = cpus * queueDepth
)

// workload is one input set of the benchmark: a stack, a testbed shape and
// an op mix. Ops per pass are fixed, so every simulated statistic is a
// function of the seed alone; the host metrics come from repeating the
// pass for the run's length.
type workload struct {
	name string
	why  string
	// spec is the core.ParseStackSpec string of the stack under test.
	spec string
	// split builds the SplitDomains testbed on a 2-shard engine group.
	// No benchmark workload sets it: host time on the concurrent window
	// path spread more than any bound allows from run to run on a shared
	// 2-CPU host. The tests still run that path for determinism.
	split   bool
	bs      int
	readPct int
	// span bounds the offsets to the first span bytes of the image
	// (0 = the whole image).
	span int64
	// zipf skews offsets with a bounded Zipf(theta); 0 draws uniformly.
	zipf float64
	// warmup ops run before the measured window, measured ops inside it.
	warmup, measured int
	// layers are the repository modules the workload's ops pass through.
	layers []string
}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "dkhw-write4k", spec: "deliba-k-hw", bs: 4 << 10, readPct: 0,
		warmup: 2000, measured: 40000,
		why:    "paper headline 4 KiB random write (Fig. 6/7); the only card write path: iouring, blockmq bypass, uifd/qdma, fpga CRUSH, core fan-out",
		layers: []string{"iouring", "blockmq", "uifd", "qdma", "fpga", "crush", "core", "rados", "netsim", "sim", "metrics"},
	},
	{
		name: "dksw-ec-mixed16k", spec: "deliba-k-sw+ec", bs: 16 << 10, readPct: 50,
		warmup: 1000, measured: 24000,
		why:    "host software path: 16 KiB 50/50 on the k=4,m=2 pool, one rados.Client proc per attempt, 6 shard writes or 4 shard reads; most host cost per op",
		layers: []string{"iouring", "core", "rados", "crush", "netsim", "sim", "metrics"},
	},
	{
		name: "lsvd-zipf-mixed4k", spec: "deliba-k-hw+cache-lsvd", bs: 4 << 10, readPct: 70,
		span: 1 << 30, zipf: 0.99,
		warmup: 20000, measured: 80000,
		why:    "LSVD cache tier: 4 KiB 70/30 Zipf(0.99) over 1 GiB, 16x the 64 MiB read cache, so eviction, read-around fill and the flusher all run",
		layers: []string{"iouring", "lsvd", "blockmq", "uifd", "qdma", "fpga", "crush", "core", "rados", "netsim", "sim", "metrics"},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// op is one generated I/O; every op of a workload has its block size.
type op struct {
	write bool
	off   int64
}

// testbedConfig returns the workload's testbed shape: the paper's
// 2 nodes x 16 OSDs over 10 GbE with seeded OSD jitter.
func (w workload) testbedConfig() core.TestbedConfig {
	cfg := core.DefaultTestbedConfig()
	if w.split {
		cfg.SplitDomains = true
		cfg.Shards = 2
	}
	return cfg
}

// genOps generates the workload's op list from the seed. The list depends
// only on (workload, seed), so the program under test receives nothing
// but these generated inputs.
func genOps(w workload, seed uint64) []op {
	imageBytes := w.testbedConfig().ImageBytes
	span := w.span
	if span <= 0 || span > imageBytes {
		span = imageBytes
	}
	blocks := span / int64(w.bs)
	h := fnv.New64a()
	h.Write([]byte(w.name))
	rng := sim.NewRNG(seed*0x9e3779b97f4a7c15 ^ h.Sum64())
	var zipf *sim.Zipf
	if w.zipf > 0 {
		zipf = sim.NewZipf(blocks, w.zipf)
	}
	ops := make([]op, w.warmup+w.measured)
	for i := range ops {
		var blk int64
		if zipf != nil {
			// Scatter ranks over the range so the hot set is not one
			// contiguous prefix of the image.
			blk = zipf.Next(rng) * 2654435761 % blocks
		} else {
			blk = rng.Int63n(blocks)
		}
		ops[i] = op{write: rng.Intn(100) >= w.readPct, off: blk * int64(w.bs)}
	}
	return ops
}
