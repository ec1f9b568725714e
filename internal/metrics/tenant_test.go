package metrics

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestCompactHistogramAccuracy bounds the tenant-resolution histogram's
// quantile error against the default resolution on the same stream: with
// 16 sub-buckets per power of two, bucket lower bounds sit within ~6.25%
// of the true value.
func TestCompactHistogramAccuracy(t *testing.T) {
	full := NewHistogram()
	compact := NewHistogramBits(TenantSubBucketBits)
	rng := sim.NewRNG(42)
	for i := 0; i < 20000; i++ {
		// Latency-shaped stream: a dense body with a heavy tail.
		v := sim.Duration(50+rng.Intn(200)) * sim.Microsecond
		if rng.Intn(100) < 3 {
			v = sim.Duration(2+rng.Intn(30)) * sim.Millisecond
		}
		full.Record(v)
		compact.Record(v)
	}
	if compact.Count() != full.Count() {
		t.Fatalf("count %d != %d", compact.Count(), full.Count())
	}
	if compact.Min() != full.Min() || compact.Max() != full.Max() {
		t.Fatalf("extremes %v/%v != %v/%v", compact.Min(), compact.Max(), full.Min(), full.Max())
	}
	for _, q := range []float64{50, 90, 99, 99.9} {
		got, want := float64(compact.Percentile(q)), float64(full.Percentile(q))
		if want == 0 {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 0.07 {
			t.Errorf("p%v: compact %v vs full %v (%.1f%% off)", q,
				sim.Duration(got), sim.Duration(want), rel*100)
		}
	}
}

func TestCompactHistogramEmptyAndEdges(t *testing.T) {
	h := NewHistogramBits(TenantSubBucketBits)
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 {
		t.Fatal("empty histogram must read as zeros")
	}
	h.Record(0)
	h.Record(-5) // clamped to 0
	if h.Count() != 2 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("zero/negative records: count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
	if h.Percentile(0) != 0 || h.Percentile(100) != 0 {
		t.Fatal("percentile extremes must return exact min/max")
	}
}

func TestCompactHistogramMerge(t *testing.T) {
	a, b, both := NewHistogramBits(TenantSubBucketBits), NewHistogramBits(TenantSubBucketBits), NewHistogramBits(TenantSubBucketBits)
	rng := sim.NewRNG(7)
	for i := 0; i < 5000; i++ {
		v := sim.Duration(rng.Intn(1 << 20))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(b)
	a.Merge(nil)
	a.Merge(NewHistogramBits(TenantSubBucketBits))
	if a.Count() != both.Count() || a.Mean() != both.Mean() ||
		a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merge mismatch: %d/%v/%v/%v vs %d/%v/%v/%v",
			a.Count(), a.Mean(), a.Min(), a.Max(),
			both.Count(), both.Mean(), both.Min(), both.Max())
	}
	for _, q := range []float64{50, 99, 99.9} {
		if a.Percentile(q) != both.Percentile(q) {
			t.Errorf("p%v: merged %v != direct %v", q, a.Percentile(q), both.Percentile(q))
		}
	}
}

func TestTenantSetMergeAndSummaries(t *testing.T) {
	a, b := NewTenantSet(), NewTenantSet()
	a.Record(3, 100)
	a.Record(1, 200)
	b.Record(1, 400)
	b.Record(7, 50)
	a.Merge(b)
	a.Merge(nil)
	if got := a.Tenants(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 7 {
		t.Fatalf("tenants = %v, want [1 3 7]", got)
	}
	sums := a.Summaries()
	if sums[0].Tenant != 1 || sums[0].Count != 2 || sums[0].Mean != 300 {
		t.Fatalf("tenant 1 summary = %+v", sums[0])
	}
	if a.Hist(99) != nil {
		t.Fatal("unobserved tenant must have no histogram")
	}
}

func TestFairness(t *testing.T) {
	if f := Fairness(nil); f != 0 {
		t.Errorf("empty fairness = %v", f)
	}
	if f := Fairness([]float64{0, 0, 0}); f != 0 {
		t.Errorf("all-zero fairness = %v", f)
	}
	if f := Fairness([]float64{5, 5, 5, 5}); math.Abs(f-1) > 1e-12 {
		t.Errorf("equal-share fairness = %v, want 1", f)
	}
	// One tenant hogging everything: Jain's floor is 1/n.
	if f := Fairness([]float64{10, 0, 0, 0}); math.Abs(f-0.25) > 1e-12 {
		t.Errorf("single-hog fairness = %v, want 0.25", f)
	}
	// Scale invariance: fairness depends on shares, not magnitudes.
	if a, b := Fairness([]float64{1, 2, 3}), Fairness([]float64{10, 20, 30}); math.Abs(a-b) > 1e-12 {
		t.Errorf("fairness not scale-invariant: %v vs %v", a, b)
	}
}
