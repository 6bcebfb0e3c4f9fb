package engine

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// The hot-path contract these benchmarks pin: once slices are warm,
// processing one event — heap pop, queue mechanics, forwarding
// decision, heap push — allocates nothing. Walker creation (one struct,
// one path slab, one rng stream per message) and latency recording are
// per-message costs, amortized over a message's hops; the per-event
// path itself is allocation-free in both modes.

// newCyclicSnapshotRunner builds a snapshot-mode runner whose single
// message replays a pathLen-hop tour of the ring over and over — pure
// event-loop mechanics, no routing.
func newCyclicSnapshotRunner(tb testing.TB, nodes, pathLen int) *runner {
	tb.Helper()
	g := testGraph(tb, nodes, 1, 23, 0)
	r := newRunner(g, []Message{{From: 0, Key: 1}}, Schedule{}, baseConfig(), rng.New(1))
	path := make([]metric.Point, pathLen)
	for i := range path {
		path[i] = metric.Point(i % nodes)
	}
	r.paths[0] = path
	r.delivered[0] = false
	r.routed = 1
	return r
}

// stepSnapshot replays k snapshot events, re-injecting the message
// after its path exhausts so the loop never goes idle.
func (r *runner) stepSnapshot(k int) {
	for i := 0; i < k; i++ {
		if r.h.Len() == 0 {
			r.enqueue(Injection{Msg: 0, Time: r.seq.makespan + 1})
		}
		r.replayHop(r.h.Pop())
	}
}

// TestSnapshotHotPathAllocs pins the snapshot event loop at zero
// allocations per event — including the telemetry hook branches, which
// a default config leaves nil: disabled telemetry must stay free.
func TestSnapshotHotPathAllocs(t *testing.T) {
	r := newCyclicSnapshotRunner(t, 64, 4096)
	r.stepSnapshot(4096) // warm the heap, every queue, and the counters
	if avg := testing.AllocsPerRun(50, func() { r.stepSnapshot(256) }); avg != 0 {
		t.Errorf("snapshot event processing allocates %.2f per 256-event run, want 0", avg)
	}
}

func BenchmarkReplayHopSnapshot(b *testing.B) {
	r := newCyclicSnapshotRunner(b, 64, 4096)
	r.stepSnapshot(4096)
	b.ReportAllocs()
	b.ResetTimer()
	r.stepSnapshot(b.N)
}

// newGreedyLiveRunner builds a live-mode runner on a bare ring (no
// long links), where greedy routing from 0 to the antipode advances
// one ring edge per service: the longest possible steady-state walk,
// so thousands of live forwarding decisions run without a walker
// creation in between.
func newGreedyLiveRunner(tb testing.TB, nodes int) *runner {
	tb.Helper()
	ring, err := metric.NewRing(nodes)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(0), rng.New(7))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Mode = ModeLive
	cfg.Route = route.Options{MaxHops: nodes} // the walk is nodes/2 hops; don't cap it
	msgs := []Message{{From: 0, Key: metric.Point(nodes / 2)}}
	r := newRunner(g, msgs, Schedule{}, cfg, rng.New(1))
	r.startLive(1) // the eager plan's single shard
	for i := range r.queues {
		// Each ring node is visited once per tour; pre-size the queue
		// slabs the first tour would otherwise allocate lazily.
		r.queues[i].finish = make([]float64, 0, 4)
	}
	return r
}

// stepLive drives k arrivals through the live arrival path
// (shard.process on the eager plan's single shard). When the walk
// completes, the message is injected afresh — its walker cleared so
// the first arrival creates a new one — so the loop never goes idle.
func (r *runner) stepLive(k int) {
	sh := r.shards.shards[0]
	for i := 0; i < k; i++ {
		if sh.h.Len() == 0 {
			r.walkers[0] = nil
			r.unlock(Injection{Msg: 0, Time: sh.makespan + 1})
		}
		sh.process(r, r.shards, sh.h.Pop())
	}
}

// TestLiveHotPathAllocs pins the live forwarding path at zero
// allocations per event with the (default) nil telemetry recorder —
// the observability layer's disabled-is-free contract.
func TestLiveHotPathAllocs(t *testing.T) {
	r := newGreedyLiveRunner(t, 8192)
	r.unlock(Injection{Msg: 0, Time: 0})
	// 15 calls x 256 events stay inside the 4096-hop walk: every
	// measured event is a pure forwarding step.
	if avg := testing.AllocsPerRun(14, func() { r.stepLive(256) }); avg != 0 {
		t.Errorf("live event processing allocates %.2f per 256-event run, want 0", avg)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
}

func BenchmarkProcessLive(b *testing.B) {
	r := newGreedyLiveRunner(b, 8192)
	r.unlock(Injection{Msg: 0, Time: 0})
	b.ReportAllocs()
	b.ResetTimer()
	r.stepLive(b.N) // re-injection restarts the tour when a walk delivers
	b.StopTimer()
	if r.err != nil {
		b.Fatal(r.err)
	}
}

// BenchmarkLiveEngine runs a whole live engine scenario per shard
// count — the end-to-end events/sec number, meaningful on multi-core
// hardware (ftrbench's engine headline records the same ratio as
// events_per_sec_per_core).
func BenchmarkLiveEngine(b *testing.B) {
	torus, err := metric.NewTorus(64, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.BuildIdeal(torus, graph.PaperConfigFor(torus, 12), rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	msgs := testMessages(b, g, 1<<14, 3)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := baseConfig()
			cfg.Mode = ModeLive
			cfg.Shards = shards
			var events int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Run(g, msgs, periodicSchedule(len(msgs), 256), cfg, rng.New(9))
				if err != nil {
					b.Fatal(err)
				}
				events = out.Services
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds()/float64(b.N), "events/s")
		})
	}
}
