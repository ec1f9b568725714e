package sim

import "testing"

func TestZipfGenSkewAndDeterminism(t *testing.T) {
	const n = 4096
	z := NewZipf(n, 0.99)
	counts := make([]int, n)
	rng := NewRNG(11)
	draws := 200000
	for i := 0; i < draws; i++ {
		r := z.Next(rng)
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of [0,%d)", r, n)
		}
		counts[r]++
	}
	// Rank 0 must dwarf the uniform share (draws/n ≈ 49) and the tail.
	if counts[0] < 20*draws/n {
		t.Fatalf("rank 0 drew %d times, want heavy skew (uniform share %d)", counts[0], draws/n)
	}
	if counts[0] <= counts[n-1]*10 {
		t.Fatalf("head (%d) not ≫ tail (%d)", counts[0], counts[n-1])
	}
	// Same seed, same stream.
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if z.Next(a) != z.Next(b) {
			t.Fatal("zipf stream diverged for equal seeds")
		}
	}
}
