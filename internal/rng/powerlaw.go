package rng

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
)

// HarmonicSampler draws integer distances d in [1, max] with probability
// proportional to 1/d — the inverse power-law distribution with exponent
// 1 that the paper proves is (nearly) optimal for greedy routing.
//
// Sampling inverts the CDF H_d / H_max with mathx.HarmonicIndex, which
// reads a 256-entry table of H_d for short distances and otherwise
// inverts the asymptotic expansion of H_d with about three logarithms:
// constant time per draw and no per-sampler tables, so a sampler per
// node costs nothing.
type HarmonicSampler struct {
	max  int
	hmax float64
}

// NewHarmonicSampler returns a sampler over distances [1, max].
// It returns an error if max < 1.
func NewHarmonicSampler(max int) (*HarmonicSampler, error) {
	if max < 1 {
		return nil, fmt.Errorf("rng: harmonic sampler needs max >= 1, got %d", max)
	}
	return &HarmonicSampler{max: max, hmax: mathx.Harmonic(max)}, nil
}

// Max returns the largest distance the sampler can produce.
func (hs *HarmonicSampler) Max() int { return hs.max }

// Sample draws one distance from src.
func (hs *HarmonicSampler) Sample(src *Source) int {
	return mathx.HarmonicIndex(src.Float64()*hs.hmax, hs.max)
}

// Prob returns the probability mass of distance d under the sampler.
func (hs *HarmonicSampler) Prob(d int) float64 {
	if d < 1 || d > hs.max {
		return 0
	}
	return 1 / (float64(d) * hs.hmax)
}

// SampleHarmonic draws a distance in [1, max] with probability
// proportional to 1/d, without allocating a sampler. It is the helper
// the graph builders use when the admissible distance range depends on
// the node's position (e.g. near a line boundary). For max <= 1 it
// returns 1.
func SampleHarmonic(src *Source, max int) int {
	if max <= 1 {
		return 1
	}
	return mathx.HarmonicIndex(src.Float64()*mathx.Harmonic(max), max)
}

// PowerLawSampler draws distances d in [1, max] with probability
// proportional to d^(-exponent) for an arbitrary exponent. It
// precomputes the cumulative mass table once (O(max) memory), so it is
// intended for ablation experiments that sweep the exponent, not for
// per-node use at large n.
type PowerLawSampler struct {
	max      int
	exponent float64
	cdf      []float64 // cdf[i] = P(d <= i+1), cdf[max-1] == 1
}

// NewPowerLawSampler builds a sampler over [1, max] with the given
// exponent. exponent may be any real value (0 gives uniform).
func NewPowerLawSampler(max int, exponent float64) (*PowerLawSampler, error) {
	if max < 1 {
		return nil, fmt.Errorf("rng: power-law sampler needs max >= 1, got %d", max)
	}
	cdf := make([]float64, max)
	var total float64
	for d := 1; d <= max; d++ {
		total += powNeg(float64(d), exponent)
		cdf[d-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &PowerLawSampler{max: max, exponent: exponent, cdf: cdf}, nil
}

// powNeg returns x^(-e), special-casing the common exponents so table
// construction avoids math.Pow in the usual cases.
func powNeg(x, e float64) float64 {
	switch e {
	case 0:
		return 1
	case 1:
		return 1 / x
	case 2:
		return 1 / (x * x)
	}
	return math.Pow(x, -e)
}

// Max returns the largest distance the sampler can produce.
func (ps *PowerLawSampler) Max() int { return ps.max }

// Exponent returns the sampler's exponent.
func (ps *PowerLawSampler) Exponent() float64 { return ps.exponent }

// Sample draws one distance from src.
func (ps *PowerLawSampler) Sample(src *Source) int {
	u := src.Float64()
	i := sort.SearchFloat64s(ps.cdf, u)
	if i >= ps.max {
		i = ps.max - 1
	}
	return i + 1
}

// Prob returns the probability mass of distance d.
func (ps *PowerLawSampler) Prob(d int) float64 {
	if d < 1 || d > ps.max {
		return 0
	}
	if d == 1 {
		return ps.cdf[0]
	}
	return ps.cdf[d-1] - ps.cdf[d-2]
}

// DistanceSampler is the common interface of the two samplers above:
// anything that can draw link lengths in [1, Max].
type DistanceSampler interface {
	Sample(src *Source) int
	Prob(d int) float64
	Max() int
}

var (
	_ DistanceSampler = (*HarmonicSampler)(nil)
	_ DistanceSampler = (*PowerLawSampler)(nil)
)
