package mathx

import (
	"math"
	"sort"
	"testing"
)

// sumHarmonic is the original Harmonic: a fresh direct sum below 256,
// the asymptotic expansion from 256 on. The table-backed Harmonic must
// reproduce it bit for bit.
func sumHarmonic(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n < 256 {
		h := 0.0
		for i := 1; i <= n; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	fn := float64(n)
	return math.Log(fn) + EulerGamma + 1/(2*fn) - 1/(12*fn*fn)
}

// searchHarmonicIndex is the original harmonic inverse — a binary
// search over Harmonic(1..max) — kept as HarmonicIndex's reference.
func searchHarmonicIndex(target float64, max int) int {
	return sort.Search(max, func(i int) bool {
		return Harmonic(i+1) > target
	}) + 1
}

func TestHarmonicBitIdentical(t *testing.T) {
	check := func(n int) {
		if got, want := Harmonic(n), sumHarmonic(n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Harmonic(%d) = %v (%#x), want %v (%#x)",
				n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for n := -2; n <= 4096; n++ {
		check(n)
	}
	for n := 4097; n <= 1<<30; n += n/997 + 1 {
		check(n)
	}
	for k := 12; k <= 30; k++ {
		check(1<<k - 1)
		check(1 << k)
		check(1<<k + 1)
	}
}

// checkHarmonicIndex compares HarmonicIndex with the reference search
// at target and at its neighbouring floats.
func checkHarmonicIndex(t *testing.T, target float64, max int) {
	t.Helper()
	for _, x := range [3]float64{
		math.Nextafter(target, math.Inf(-1)), target, math.Nextafter(target, math.Inf(1)),
	} {
		if got, want := HarmonicIndex(x, max), searchHarmonicIndex(x, max); got != want {
			t.Fatalf("HarmonicIndex(%v, %d) = %d, want %d", x, max, got, want)
		}
	}
}

func TestHarmonicIndexMatchesSearch(t *testing.T) {
	for _, max := range []int{1, 2, 3, 254, 255, 256, 257, 300, 4096, 1 << 16, 1 << 22} {
		for d := 0; d <= 4096 && d <= max+1; d++ {
			checkHarmonicIndex(t, Harmonic(d), max)
		}
		checkHarmonicIndex(t, Harmonic(max), max)
		for _, x := range []float64{0, -1, 0.5, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
			checkHarmonicIndex(t, x, max)
		}
	}
	for _, max := range []int{0, -1} {
		if got := HarmonicIndex(0.5, max); got != 1 {
			t.Errorf("HarmonicIndex(0.5, %d) = %d, want 1", max, got)
		}
	}
}

// FuzzHarmonicIndex checks HarmonicIndex against the reference search
// for max in [1, 2^22]: at a target spread over [0, H(max)] by u, at
// the harmonic numbers (and their neighbouring floats) around both the
// inverse's first guess for that target and a d chosen by dseed, and
// at 0 and H(max).
func FuzzHarmonicIndex(f *testing.F) {
	f.Add(uint32(0), 0.5, uint32(0))
	f.Add(uint32(254), 0.999, uint32(254))
	f.Add(uint32(255), 0.9, uint32(255))
	f.Add(uint32(256), 0.3, uint32(256))
	f.Add(uint32(1<<16-1), 0.25, uint32(12345))
	f.Add(uint32(1<<22-1), 0.99999, uint32(1<<22-1))
	f.Add(uint32(1<<22-1), 0.0, uint32(0))
	f.Fuzz(func(t *testing.T, maxSeed uint32, u float64, dseed uint32) {
		max := 1 + int(maxSeed%(1<<22))
		hmax := Harmonic(max)
		if math.IsNaN(u) || math.IsInf(u, 0) {
			u = 0
		}
		u = math.Abs(u)
		u -= math.Floor(u)
		target := u * hmax
		checkHarmonicIndex(t, target, max)
		checkHarmonicIndex(t, 0, max)
		checkHarmonicIndex(t, hmax, max)
		near := func(center int) {
			for d := center - 2; d <= center+2; d++ {
				if d >= 1 && d <= max {
					checkHarmonicIndex(t, Harmonic(d), max)
				}
			}
		}
		guess := max
		if x := math.Exp(target - EulerGamma); x < float64(max) {
			guess = int(x)
		}
		near(guess)
		near(1 + int(dseed%uint32(max)))
	})
}

func BenchmarkHarmonicIndex(b *testing.B) {
	const max = 1 << 16
	hmax := Harmonic(max)
	targets := make([]float64, 1024)
	for i := range targets {
		targets[i] = (float64(i) + 0.5) / float64(len(targets)) * hmax
	}
	for _, bc := range []struct {
		name string
		inv  func(float64, int) int
	}{{"inverse", HarmonicIndex}, {"search", searchHarmonicIndex}} {
		b.Run(bc.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += bc.inv(targets[i%len(targets)], max)
			}
			if sink == 0 {
				b.Fatal("no draws")
			}
		})
	}
}
