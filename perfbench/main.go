// Command perfbench is the repository's benchmark. It drives the public
// core.Stack API from outside the program: it generates a workload's op
// list from a seed, builds a testbed and stack, keeps 48 ops outstanding
// (3 submitting CPUs x QD16) until the list is done, checks the results,
// and repeats that pass for the run's length.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <dir-A> <dir-B>
//
// The last line of a run's standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare <dir-A> <dir-B>")
			os.Exit(2)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated op list")
	seconds := flag.Float64("seconds", 10, "how long each phase repeats passes")
	traced := flag.Int("trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Every workload runs a solo engine: one goroutine at a time advances
	// the simulation, handing control between sim.Proc goroutines over
	// channels. A second P only lets those hand-offs wake another thread,
	// which on a shared 2-CPU host cost 40% more CPU per op and spread
	// host time by up to a quarter from run to run.
	runtime.GOMAXPROCS(1)
	list := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		list = []workload{w}
	}
	for _, w := range list {
		if err := runAndPrint(w, *seed, *seconds, *traced == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runAndPrint(w workload, seed uint64, seconds float64, traced bool) error {
	fmt.Printf("perfbench workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		w.name, seed, boolInt(traced), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := runWorkload(w, seed, seconds, traced)
	if err != nil {
		return err
	}
	rep := res.report(traced)
	for _, d := range reported(traced) {
		fmt.Printf("  %-32s %16.6f %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	if len(res.notCarried) > 0 {
		fmt.Printf("not carried by %s (reported as 0): %s\n", w.name, strings.Join(res.notCarried, " "))
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// reported returns the metrics a run prints.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func (r *result) report(traced bool) report {
	rep := report{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range reported(traced) {
		rep.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return rep
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
