package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runFile is one saved run: the standard output of a perfbench run.
type runFile struct {
	workload string
	seed     uint64
	rep      report
}

// readRuns loads every regular file in dir that holds a perfbench run's
// output: a "perfbench workload=... seed=..." header and the JSON result
// as the last line.
func readRuns(dir string) ([]runFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []runFile
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, ok, err := readRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ok {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no perfbench runs", dir)
	}
	return runs, nil
}

func readRun(path string) (runFile, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return runFile{}, false, err
	}
	defer f.Close()
	var r runFile
	var header, last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "perfbench ") {
			header = line
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return runFile{}, false, err
	}
	if header == "" {
		return runFile{}, false, nil
	}
	for _, field := range strings.Fields(header)[1:] {
		k, v, _ := strings.Cut(field, "=")
		switch k {
		case "workload":
			r.workload = v
		case "seed":
			if r.seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				return runFile{}, false, fmt.Errorf("bad seed %q", v)
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &r.rep); err != nil {
		return runFile{}, false, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, true, nil
}

// compare prints, per workload and metric, each side's median and
// quartiles, the share of seed-matched pairs B wins, and a verdict. For an
// end-to-end metric: "unresolved" where either side's quartile spread
// exceeds the metric's bound (unless every run of B beats, or loses to,
// every run of A), "regression" where B's median is worse than A's by more
// than the bound, "gain" where B wins at least nine tenths of the pairs and
// the medians differ by more than A's quartile spread, and "no worse"
// otherwise. A per-layer metric has no bound: only "gain" or "-".
func compare(out io.Writer, dirA, dirB string) error {
	a, err := readRuns(dirA)
	if err != nil {
		return err
	}
	b, err := readRuns(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB wins\tverdict")
	for _, w := range workloads {
		ra, rb := byWorkload(a, w.name), byWorkload(b, w.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range append(slices.Clone(endToEnd), perLayer...) {
			va, vb := values(ra, d.name), values(rb, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			wins, pairs := pairWins(ra, rb, d)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d\t%s\n", w.name, d.name, d.unit,
				summary(va), summary(vb), wins, pairs, verdict(d, va, vb, wins, pairs))
		}
	}
	return tw.Flush()
}

func byWorkload(runs []runFile, name string) []runFile {
	var out []runFile
	for _, r := range runs {
		if r.workload == name {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(x, y runFile) int {
		switch {
		case x.seed < y.seed:
			return -1
		case x.seed > y.seed:
			return 1
		}
		return 0
	})
	return out
}

func values(runs []runFile, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.rep.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// pairWins pairs runs of A and B that share a seed and counts the pairs B
// wins; ties count for neither side.
func pairWins(a, b []runFile, d metricDef) (wins, pairs int) {
	for _, ra := range a {
		for _, rb := range b {
			if ra.seed != rb.seed {
				continue
			}
			x, okA := ra.rep.Metrics[d.name]
			y, okB := rb.rep.Metrics[d.name]
			if !okA || !okB {
				continue
			}
			pairs++
			if better(d, y.Value, x.Value) {
				wins++
			}
		}
	}
	return wins, pairs
}

// better reports whether x is strictly better than y for the metric.
func better(d metricDef, x, y float64) bool {
	if d.better == "higher" {
		return x > y
	}
	return x < y
}

func verdict(d metricDef, a, b []float64, wins, pairs int) string {
	qa := quartiles(a)
	ma, mb := qa[1], quartiles(b)[1]
	gain := pairs > 0 && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > qa[2]-qa[0]
	if d.bound == 0 {
		if gain {
			return "gain"
		}
		return "-"
	}
	if spread(a) > d.bound || spread(b) > d.bound {
		switch {
		case allBetter(d, b, a):
			return "better (every run)"
		case allBetter(d, a, b):
			return "worse (every run)"
		}
		return "unresolved"
	}
	worse := (ma - mb) / ma
	if d.better == "lower" {
		worse = -worse
	}
	if worse > d.bound {
		return fmt.Sprintf("regression (%.1f%% > %.1f%%)", 100*worse, 100*d.bound)
	}
	if gain {
		return "gain"
	}
	return "no worse"
}

// allBetter reports whether every value of x is better than every value
// of y.
func allBetter(d metricDef, x, y []float64) bool {
	for _, vx := range x {
		for _, vy := range y {
			if !better(d, vx, vy) {
				return false
			}
		}
	}
	return true
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(v []float64) float64 {
	q := quartiles(v)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func summary(v []float64) string {
	q := quartiles(v)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2])
}

// quartiles returns the three cut points of v the way Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method).
// With a single value all three are that value.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
