package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// resolutions are the sub-bucket bits in use: default and per-tenant.
var resolutions = []int{DefaultSubBucketBits, TenantSubBucketBits}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != sim.Microsecond {
		t.Fatalf("Min = %v", h.Min())
	}
	if h.Max() != 100*sim.Microsecond {
		t.Fatalf("Max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 50*sim.Microsecond || mean > 51*sim.Microsecond {
		t.Fatalf("Mean = %v", mean)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	var samples []sim.Duration
	rng := sim.NewRNG(42)
	for i := 0; i < 50000; i++ {
		d := rng.ExpDuration(80 * sim.Microsecond)
		samples = append(samples, d)
		h.Record(d)
	}
	for _, q := range []float64{10, 50, 90, 95, 99, 99.9} {
		got := float64(h.Percentile(q))
		want := float64(ExactPercentile(samples, q))
		if want == 0 {
			continue
		}
		relErr := math.Abs(got-want) / want
		if relErr > 0.05 {
			t.Errorf("p%v: got %v want %v (relErr %.3f)", q, got, want, relErr)
		}
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(sim.Duration(v))
		}
		prev := sim.Duration(-1)
		for q := 0.0; q <= 100; q += 2.5 {
			p := h.Percentile(q)
			if p < prev {
				return false
			}
			if p < h.Min() || p > h.Max() {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRelativeErrorBound(t *testing.T) {
	// Every recorded value must land in a bucket whose lower bound is within
	// ~2/2^bits relative error of the value itself.
	for _, bits := range resolutions {
		sub := int64(1) << bits
		f := func(v uint64) bool {
			val := int64(v >> 1) // keep positive
			i := bucketIndex(val, uint(bits))
			low := bucketLow(i, uint(bits))
			if low > val || i >= (64-bits)<<bits {
				return false
			}
			if val < sub {
				return low == val
			}
			return float64(val-low)/float64(val) < 2.0/float64(sub)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 50; i++ {
		a.Record(sim.Duration(i))
	}
	for i := 51; i <= 100; i++ {
		b.Record(sim.Duration(i))
	}
	a.Merge(b)
	if a.Count() != 100 || a.Min() != 1 || a.Max() != 100 {
		t.Fatalf("merged: %v", a.Summarize())
	}
	empty := NewHistogram()
	a.Merge(empty)
	if a.Count() != 100 {
		t.Fatal("merging empty changed count")
	}
}

// TestHistogramRecordAllocFree: Record never allocates, at any resolution,
// and a tenant-resolution histogram stays within ~4 KB.
func TestHistogramRecordAllocFree(t *testing.T) {
	for _, bits := range resolutions {
		h := NewHistogramBits(bits)
		v := sim.Duration(1)
		if n := testing.AllocsPerRun(1000, func() { h.Record(v); v = v*3 + 7 }); n != 0 {
			t.Errorf("%d bits: Record allocates %v times per call", bits, n)
		}
	}
	if n := len(NewHistogramBits(TenantSubBucketBits).buckets) * 4; n > 4096 {
		t.Errorf("tenant histogram buckets take %d B, want <= 4 KB", n)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Record(10 * sim.Microsecond)
	s := h.Summarize().String()
	if !strings.Contains(s, "n=1") {
		t.Fatalf("summary = %q", s)
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(0)
	for i := 1; i <= 1000; i++ {
		m.Add(sim.Time(i)*sim.Time(sim.Millisecond), 4096)
	}
	// 1000 ops over 1 second.
	if got := m.IOPS(); math.Abs(got-1000) > 1 {
		t.Fatalf("IOPS = %v", got)
	}
	if got := m.KIOPS(); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("KIOPS = %v", got)
	}
	wantMBps := 4096.0 * 1000 / 1e6
	if got := m.ThroughputMBps(); math.Abs(got-wantMBps) > 0.1 {
		t.Fatalf("MBps = %v want %v", got, wantMBps)
	}
}

func TestMeterCloseAt(t *testing.T) {
	m := NewMeter(0)
	m.Add(sim.Time(sim.Millisecond), 100)
	m.CloseAt(sim.Time(2 * sim.Second))
	if got := m.IOPS(); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("IOPS after CloseAt = %v", got)
	}
}

func TestMeterEmpty(t *testing.T) {
	m := NewMeter(100)
	if m.IOPS() != 0 || m.ThroughputMBps() != 0 {
		t.Fatal("empty meter reported nonzero rates")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 2.5)
	s := tb.String()
	if !strings.Contains(s, "== Demo ==") {
		t.Fatalf("missing title: %q", s)
	}
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "2.50") {
		t.Fatalf("missing cells: %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines: %q", len(lines), s)
	}
	if tb.NumRows() != 2 || tb.Cell(1, 1) != "2.50" {
		t.Fatalf("accessors wrong")
	}
}

func TestExactPercentile(t *testing.T) {
	s := []sim.Duration{10, 20, 30, 40, 50}
	if got := ExactPercentile(s, 50); got != 30 {
		t.Fatalf("p50 = %v", got)
	}
	if got := ExactPercentile(s, 0); got != 10 {
		t.Fatalf("p0 = %v", got)
	}
	if got := ExactPercentile(s, 100); got != 50 {
		t.Fatalf("p100 = %v", got)
	}
	if got := ExactPercentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}
