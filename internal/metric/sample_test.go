package metric

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// samplerSpaces returns one space of each kind at small size.
func samplerSpaces(t *testing.T) []Space {
	t.Helper()
	ring, err := NewRing(64)
	if err != nil {
		t.Fatal(err)
	}
	line, err := NewLine(64)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := NewTorus(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	torus3, err := NewTorus(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []Space{ring, line, torus, torus3}
}

func TestLinkSamplerNeverSelf(t *testing.T) {
	for _, sp := range samplerSpaces(t) {
		for _, exp := range []float64{0, 1, 2, 1.5} {
			s, err := sp.NewLinkSampler(exp)
			if err != nil {
				t.Fatalf("%s exp %v: %v", sp.Name(), exp, err)
			}
			src := rng.New(1)
			for i := 0; i < 2000; i++ {
				p := Point(src.Intn(sp.Size()))
				q, ok := s.Sample(p, src)
				if !ok {
					t.Fatalf("%s exp %v: sampler gave up", sp.Name(), exp)
				}
				if q == p {
					t.Fatalf("%s exp %v: sampled self-link", sp.Name(), exp)
				}
				if !sp.Contains(q) {
					t.Fatalf("%s exp %v: sampled %d outside the space", sp.Name(), exp, q)
				}
			}
		}
	}
}

// The torus sampler's distance marginal must match shell(r)·r^(−e)
// exactly (up to Monte Carlo noise), and targets must be uniform within
// a shell.
func TestTorusSamplerMarginal(t *testing.T) {
	torus, err := NewTorus(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	const exponent = 2
	s, err := torus.NewLinkSampler(exponent)
	if err != nil {
		t.Fatal(err)
	}
	// Exact shell sizes for side=8, dim=2: per-axis counts are
	// 1,2,2,2,1 for distances 0..4.
	shell := map[int]float64{}
	axis := []float64{1, 2, 2, 2, 1}
	for a := 0; a <= 4; a++ {
		for b := 0; b <= 4; b++ {
			shell[a+b] += axis[a] * axis[b]
		}
	}
	var want []float64
	var total float64
	maxD := 8
	for r := 1; r <= maxD; r++ {
		w := shell[r] / float64(r*r)
		want = append(want, w)
		total += w
	}
	const n = 200000
	src := rng.New(99)
	counts := make([]int, maxD+1)
	perPoint := map[Point]int{}
	p := torus.At(3, 5)
	for i := 0; i < n; i++ {
		q, ok := s.Sample(p, src)
		if !ok {
			t.Fatal("sampler gave up")
		}
		d := torus.Distance(p, q)
		if d < 1 || d > maxD {
			t.Fatalf("sampled distance %d outside [1,%d]", d, maxD)
		}
		counts[d]++
		if d == 3 {
			perPoint[q]++
		}
	}
	for r := 1; r <= maxD; r++ {
		got := float64(counts[r]) / n
		exp := want[r-1] / total
		if math.Abs(got-exp) > 0.01 {
			t.Errorf("P(distance=%d) = %.4f, want %.4f", r, got, exp)
		}
	}
	// Uniformity within the distance-3 shell (12 points for side 8).
	if len(perPoint) != int(shell[3]) {
		t.Errorf("distance-3 shell hit %d distinct points, want %v", len(perPoint), shell[3])
	}
	shellTotal := 0
	for _, c := range perPoint {
		shellTotal += c
	}
	for q, c := range perPoint {
		got := float64(c) / float64(shellTotal)
		exp := 1 / shell[3]
		if math.Abs(got-exp) > 0.02 {
			t.Errorf("point %d within shell 3: frequency %.4f, want %.4f", q, got, exp)
		}
	}
}

// Exponent 0 must be uniform over all points ≠ p on the torus.
func TestTorusSamplerUniform(t *testing.T) {
	torus, err := NewTorus(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := torus.NewLinkSampler(0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 120000
	src := rng.New(3)
	counts := map[Point]int{}
	for i := 0; i < n; i++ {
		q, ok := s.Sample(0, src)
		if !ok {
			t.Fatal("sampler gave up")
		}
		counts[q]++
	}
	if len(counts) != torus.Size()-1 {
		t.Fatalf("uniform sampler hit %d points, want %d", len(counts), torus.Size()-1)
	}
	for q, c := range counts {
		got := float64(c) / n
		exp := 1 / float64(torus.Size()-1)
		if math.Abs(got-exp) > 0.01 {
			t.Errorf("P(%d) = %.4f, want %.4f", q, got, exp)
		}
	}
}

func TestDegenerateSamplers(t *testing.T) {
	one, err := NewRing(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := one.NewLinkSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Sample(0, rng.New(1)); ok {
		t.Error("singleton ring must have no targets")
	}
	t1, err := NewTorus(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := t1.NewLinkSampler(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Sample(0, rng.New(1)); ok {
		t.Error("singleton torus must have no targets")
	}
}

// TestRingSamplerAllocs pins the ring's harmonic link draw — the one
// construct.Builder makes for every §5 link — as allocation-free.
func TestRingSamplerAllocs(t *testing.T) {
	ring, err := NewRing(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ring.NewLinkSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	p := Point(0)
	if avg := testing.AllocsPerRun(1000, func() {
		q, _ := s.Sample(p, src)
		p = q
	}); avg != 0 {
		t.Errorf("ring link draw allocates %.2f per draw, want 0", avg)
	}
}
