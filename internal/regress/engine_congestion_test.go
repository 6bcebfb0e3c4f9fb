package regress

import (
	"testing"

	"repro/internal/load"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// runEngineCongestionScenario sweeps the engine scenario's 30%-failed
// torus flood in the live modes under live congestion feedback — the
// cumulative-load Penalty and the instantaneous DepthPenalty, each on
// its own, plus one closed-loop sweep with both — and returns one knee
// line per sweep, formatted as runEngineScenario's. Every forwarding
// decision here reads global live state (the charged-load totals and
// arbitrary nodes' queue depths at the decision instant), so these
// configurations run on one shard whatever Shards says; the lines pin
// that the live loop evaluates the signal at exactly the right instant.
func runEngineCongestionScenario(t *testing.T, shards int, tel *telemetry.Recorder) []string {
	t.Helper()
	g := buildEngineScenarioGraph(t)
	var out []string
	for _, tc := range []struct {
		label          string
		aggregate      bool
		penalty, depth float64
		model          string
	}{
		{"live/penalty", false, 1, 0, "poisson"},
		{"live/depth", false, 0, 1, "poisson"},
		{"live+aggregate/penalty", true, 1, 0, "poisson"},
		{"live+aggregate/depth", true, 0, 1, "poisson"},
		{"live+aggregate/penalty+depth/closed", true, 1, 1, "closed"},
	} {
		cfg := load.SweepConfig{
			Config: load.Config{
				Messages:     2048,
				Shards:       shards,
				Live:         true,
				Aggregate:    tc.aggregate,
				Penalty:      tc.penalty,
				DepthPenalty: tc.depth,
				Route:        route.Options{DeadEnd: route.Backtrack},
				Telemetry:    tel,
			},
			Model:      tc.model,
			Think:      2,
			Bisections: 4,
		}
		res, err := load.Sweep(g, load.Flood(), cfg, 303)
		if err != nil {
			t.Fatal(err)
		}
		out = appendEngineLine(t, out, tc.label, false, res)
	}
	return out
}

// goldenEngineCongestion pins the live congestion sweeps, captured at
// shards = 1 with telemetry off.
var goldenEngineCongestion = []string{
	"live/penalty: knee=4.7500 thr=4.3468 p99=36.92 serving=1 aggregated=0 fp=0x9b35ae8e86747810",
	"live/depth: knee=4.7500 thr=4.2874 p99=41.24 serving=1 aggregated=0 fp=0xb98503c24c410cf1",
	"live+aggregate/penalty: knee=2048.0000 thr=236.8472 p99=7.76 serving=1 aggregated=2004 fp=0x780bf26bddc50da5",
	"live+aggregate/depth: knee=62.0000 thr=50.5921 p99=8.81 serving=1 aggregated=1822 fp=0xd397ecf68206f102",
	"live+aggregate/penalty+depth/closed: knee=4096.0000 thr=202.9000 p99=10.00 serving=1 aggregated=1982 fp=0xdf1128cbea87982f",
}

// TestSeededEngineCongestionGolden pins live-mode congestion feedback
// and holds every requested shard count, with telemetry off and on, to
// the same lines: a congestion run is single-shard by plan, so the
// shard count and the recorder must not move a byte.
func TestSeededEngineCongestionGolden(t *testing.T) {
	got := runEngineCongestionScenario(t, 1, nil)
	if len(goldenEngineCongestion) == 0 {
		for _, line := range got {
			t.Logf("golden: %q,", line)
		}
		t.Fatal("goldenEngineCongestion is empty; paste the logged lines above")
	}
	if len(got) != len(goldenEngineCongestion) {
		t.Fatalf("scenario line count changed: got %d, want %d", len(got), len(goldenEngineCongestion))
	}
	for i := range got {
		if got[i] != goldenEngineCongestion[i] {
			t.Errorf("line %d diverged:\n  got  %s\n  want %s", i, got[i], goldenEngineCongestion[i])
		}
	}
	for _, shards := range []int{1, 4, 7} {
		tel := telemetry.New(telemetry.Options{})
		got := runEngineCongestionScenario(t, shards, tel)
		for i := range goldenEngineCongestion {
			if got[i] != goldenEngineCongestion[i] {
				t.Errorf("shards=%d telemetry on, line %d diverged:\n  got  %s\n  want %s",
					shards, i, got[i], goldenEngineCongestion[i])
			}
		}
		if len(tel.Runs())+tel.Skipped() == 0 {
			t.Errorf("shards=%d: recorder saw no runs", shards)
		}
	}
}
