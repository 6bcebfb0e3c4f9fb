package proptest

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/replica"
	"repro/internal/route"
)

// FuzzEngineRun holds the live engine to its shard contract on fuzzed
// universes: a random graph, workload, arrival model and (optionally)
// churn schedule, run in live, live+aggregate or live+pit mode at one
// shard and at 2-4 shards, must produce deeply equal results — or the
// same error — and balance every conservation ledger. Each run
// rebuilds its graph, since churn mutates it in place.
func FuzzEngineRun(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), false)
	f.Add(uint64(2), uint8(1), uint8(1), false)
	f.Add(uint64(3), uint8(2), uint8(2), false)
	f.Add(uint64(4), uint8(0), uint8(1), true)
	f.Add(uint64(5), uint8(1), uint8(2), true)
	f.Add(uint64(6), uint8(2), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, mode, shards uint8, churn bool) {
		build := func(tb testing.TB) *graph.Graph { return New(seed).Graph(tb) }
		gen := New(seed)
		gen.Graph(t) // advance the stream past the graph draw, mirroring build
		wl := gen.Workload()
		cfg := load.Config{
			Messages: 40 + gen.src.Intn(120),
			Live:     true,
			Route:    route.Options{DeadEnd: route.Backtrack},
		}
		switch mode % 3 {
		case 1:
			cfg.Aggregate = true
		case 2:
			cfg.PIT = true
			cfg.PITTimeout = 1 + 8*gen.src.Float64()
			cfg.PITWaiters = 1 + gen.src.Intn(4)
		}
		switch gen.src.Intn(3) {
		case 1:
			cfg.Arrival = load.Poisson(1 + 4*gen.src.Float64())
		case 2:
			cfg.Arrival = load.ClosedLoop(1+gen.src.Intn(16), 2*gen.src.Float64())
		}
		if gen.src.Bool(0.3) {
			cfg.Replication = &replica.Options{K: 2 + gen.src.Intn(3)}
		}
		if churn {
			cfg.Churn = gen.ChurnSpec(t)
		}
		n := 2 + int(shards%3)
		run := func(shards int) (*load.Result, error) {
			c := cfg
			c.Shards = shards
			return load.Run(build(t), wl, c, seed^0x5eed)
		}
		want, wantErr := run(1)
		got, gotErr := run(n)
		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("shards=%d error %v, shards=1 error %v", n, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		// The plan legitimately differs across shard counts; the
		// contract covers every simulation output.
		got.Plan, got.PlanReason = want.Plan, want.PlanReason
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("shards=%d diverged from shards=1:\n%s", n, diffSummary(want, got))
		}
		CheckChurnLedger(t, want)
	})
}
