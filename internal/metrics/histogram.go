// Package metrics provides the measurement layer shared by every benchmark
// harness in the repository: log-bucketed latency histograms with percentile
// queries, throughput/IOPS meters, and plain-text table rendering for the
// paper's figures and tables.
package metrics

import (
	"fmt"
	"math"
	mbits "math/bits"
	"sort"

	"repro/internal/sim"
)

// Histogram is a log-linear latency histogram in the spirit of HDRHistogram:
// values are bucketed with bounded relative error (~1/2^bits for bits
// sub-bucket bits) across a huge dynamic range, with O(1) recording. Bucket
// counts are 32-bit, so one bucket holds at most 2^32-1 observations.
type Histogram struct {
	count   uint64
	sum     int64
	min     int64
	max     int64
	bits    uint // sub-bucket bits: 2^bits sub-buckets per power of two
	buckets []uint32
}

// Sub-bucket resolutions.
const (
	// DefaultSubBucketBits gives 32 sub-buckets per power of two: ≤ ~3%
	// relative error in ~7.5 KB.
	DefaultSubBucketBits = 5
	// TenantSubBucketBits gives 16 sub-buckets per power of two: ≤ ~6%
	// relative error in ~4 KB, small enough to keep one histogram per
	// tenant at 10,000-tenant scale.
	TenantSubBucketBits = 4
)

// NewHistogram returns an empty histogram at the default resolution.
func NewHistogram() *Histogram { return NewHistogramBits(DefaultSubBucketBits) }

// NewHistogramBits returns an empty histogram with 2^bits sub-buckets per
// power of two.
func NewHistogramBits(bits int) *Histogram {
	return &Histogram{
		min:     math.MaxInt64,
		bits:    uint(bits),
		buckets: make([]uint32, (64-bits)<<bits),
	}
}

// bucketIndex returns the bucket of v at the given sub-bucket bits.
func bucketIndex(v int64, bits uint) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<bits {
		return int(v)
	}
	// Position of the highest set bit above the sub-bucket width.
	exp := uint(mbits.Len64(uint64(v))) - 1 - bits
	mantissa := (v >> exp) & (1<<bits - 1)
	return int(exp+1)<<bits + int(mantissa)
}

// bucketLow returns the smallest value mapping to bucket i; used to report
// percentile values.
func bucketLow(i int, bits uint) int64 {
	exp := i >> bits
	mant := int64(i & (1<<bits - 1))
	if exp == 0 {
		return mant
	}
	return (mant | 1<<bits) << uint(exp-1)
}

// Record adds one observation of duration d.
func (h *Histogram) Record(d sim.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketIndex(v, h.bits)]++
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Min returns the smallest recorded duration (0 if empty).
func (h *Histogram) Min() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.min)
}

// Max returns the largest recorded duration.
func (h *Histogram) Max() sim.Duration { return sim.Duration(h.max) }

// Mean returns the arithmetic mean of recorded durations.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / int64(h.count))
}

// Sum returns the total of all recorded durations.
func (h *Histogram) Sum() sim.Duration { return sim.Duration(h.sum) }

// Percentile returns the duration at quantile q in [0,100]. The result is a
// bucket lower bound, so its relative error is bounded by the bucket width;
// exact min/max are substituted at the extremes.
func (h *Histogram) Percentile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return sim.Duration(h.min)
	}
	if q >= 100 {
		return sim.Duration(h.max)
	}
	rank := uint64(math.Ceil(q / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += uint64(c)
		if cum >= rank {
			v := bucketLow(i, h.bits)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(h.max)
}

// Median returns the 50th percentile.
func (h *Histogram) Median() sim.Duration { return h.Percentile(50) }

// Merge adds all observations of other (nil or empty: none) into h; both
// must have the same resolution.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if other.bits != h.bits {
		panic(fmt.Sprintf("metrics: merging a %d-bit histogram into a %d-bit one", other.bits, h.bits))
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	h.count, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
	for i := range h.buckets {
		h.buckets[i] = 0
	}
}

// Summary is a compact snapshot of a histogram.
type Summary struct {
	Count             uint64
	Min, Mean, Median sim.Duration
	P95, P99, Max     sim.Duration
}

// Summarize returns the standard latency summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.count,
		Min:    h.Min(),
		Mean:   h.Mean(),
		Median: h.Median(),
		P95:    h.Percentile(95),
		P99:    h.Percentile(99),
		Max:    h.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%v mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Min, s.Mean, s.Median, s.P95, s.P99, s.Max)
}

// ExactPercentile computes a percentile from raw samples (for tests that
// validate the histogram approximation).
func ExactPercentile(samples []sim.Duration, q float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := make([]sim.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}
