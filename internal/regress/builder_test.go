package regress

import (
	"fmt"
	"testing"

	"repro/internal/construct"
	"repro/internal/metric"
	"repro/internal/rng"
)

// runBuilderStepScenario drives the §5 maintenance loop under the
// default InverseDistance strategy: half of a 2^10 ring is grown in a
// seeded arrival order, then a seeded stream alternates Remove of a
// random present node with Add of a random absent point. A line is
// recorded after the grow and after every 500 maintenance calls, so a
// divergence shows when it first appears.
func runBuilderStepScenario(t *testing.T) []string {
	t.Helper()
	ring, err := metric.NewRing(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := construct.NewBuilder(ring, construct.Config{Links: 8}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.New(32).Perm(ring.Size())
	var present, absent []metric.Point
	for _, p := range perm[ring.Size()/2:] {
		absent = append(absent, metric.Point(p))
	}
	for _, p := range perm[:ring.Size()/2] {
		if err := b.Add(metric.Point(p)); err != nil {
			t.Fatal(err)
		}
		present = append(present, metric.Point(p))
	}
	var out []string
	line := func(label string) {
		g := b.Graph()
		out = append(out, fmt.Sprintf("%s: alive=%d links=%d fp=%#x",
			label, g.AliveCount(), g.LongLinkCount(), fingerprint(g)))
	}
	line("builder-grow")

	pick := rng.New(33)
	take := func(set *[]metric.Point) metric.Point {
		s := *set
		i := pick.Intn(len(s))
		p := s[i]
		s[i] = s[len(s)-1]
		*set = s[:len(s)-1]
		return p
	}
	for op := 1; op <= 2000; op++ {
		if op%2 == 1 {
			p := take(&present)
			if err := b.Remove(p); err != nil {
				t.Fatal(err)
			}
			absent = append(absent, p)
		} else {
			p := take(&absent)
			if err := b.Add(p); err != nil {
				t.Fatal(err)
			}
			present = append(present, p)
		}
		if op%500 == 0 {
			line(fmt.Sprintf("builder-step%d", op))
		}
	}
	return out
}

// goldenBuilderStep pins the default-strategy maintenance loop; the
// heuristic-churn line of golden1D covers only the Oldest strategy.
var goldenBuilderStep = []string{
	"builder-grow: alive=512 links=4096 fp=0x6fd713b54a12380f",
	"builder-step500: alive=512 links=4096 fp=0x7818c8fcd95ee352",
	"builder-step1000: alive=512 links=4096 fp=0x177d508fe119d8de",
	"builder-step1500: alive=512 links=4096 fp=0xfa4140de00a970bc",
	"builder-step2000: alive=512 links=4096 fp=0xf6867311ce8fb18f",
}

func TestBuilderStepGolden(t *testing.T) {
	got := runBuilderStepScenario(t)
	if len(goldenBuilderStep) == 0 {
		for _, line := range got {
			t.Logf("golden: %q,", line)
		}
		t.Fatal("goldenBuilderStep is empty; paste the logged lines above")
	}
	if len(got) != len(goldenBuilderStep) {
		t.Fatalf("scenario count changed: got %d, want %d", len(got), len(goldenBuilderStep))
	}
	for i := range got {
		if got[i] != goldenBuilderStep[i] {
			t.Errorf("scenario %d diverged:\n  got  %s\n  want %s", i, got[i], goldenBuilderStep[i])
		}
	}
}
