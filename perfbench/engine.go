package main

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runKey is every outcome field of one traffic run that must not
// depend on how the run was executed: decomposed or through load.Run,
// sharded or sequential.
type runKey struct {
	Injected, Delivered, Failed             int
	Services, MaxLoad, MaxQueueDepth        int
	Suppressed, MulticastFanout, PITExpired int
	Crashes, Joins                          int
	Stranded, StrandResumed, StrandDropped  int
	Reattached, GossipSends, LinksRebuilt   int
	RumorsConverged, RumorsAbandoned        int
	MembershipLag, Makespan, LastInject     float64
	LatencyMean, LatencyP50                 float64
	LatencyP95, LatencyP99                  float64
	Search                                  sim.SearchStats
}

func resultKey(r *load.Result) runKey {
	k := runKey{
		Injected: r.Injected, Delivered: r.Delivered, Failed: r.Failed,
		MaxQueueDepth: r.MaxQueueDepth,
		Suppressed:    r.Suppressed, MulticastFanout: r.MulticastFanout, PITExpired: r.PITExpired,
		Crashes: r.Crashes, Joins: r.Joins,
		Stranded: r.Stranded, StrandResumed: r.StrandResumed, StrandDropped: r.StrandDropped,
		Reattached: r.Reattached, GossipSends: r.GossipSends, LinksRebuilt: r.LinksRebuilt,
		RumorsConverged: r.RumorsConverged, RumorsAbandoned: r.RumorsAbandoned,
		MembershipLag: r.MembershipLag, Makespan: r.Makespan, LastInject: r.LastInject,
		LatencyMean: r.LatencyMean, LatencyP50: r.LatencyP50,
		LatencyP95: r.LatencyP95, LatencyP99: r.LatencyP99,
		Search: r.Search,
	}
	k.Services, k.MaxLoad = loadTotals(r.Loads)
	return k
}

func outcomeKey(out *engine.Outcome) runKey {
	k := runKey{
		Injected:      len(out.Results),
		MaxQueueDepth: out.MaxQueueDepth,
		Suppressed:    out.Suppressed, MulticastFanout: out.MulticastFanout, PITExpired: out.PITExpired,
		Crashes: out.Crashes, Joins: out.Joins,
		Stranded: out.Stranded, StrandResumed: out.StrandResumed, StrandDropped: out.StrandDropped,
		Reattached: out.Reattached, GossipSends: out.GossipSends, LinksRebuilt: out.LinksRebuilt,
		RumorsConverged: out.RumorsConverged, RumorsAbandoned: out.RumorsAbandoned,
		MembershipLag: out.MembershipLag, Makespan: out.Makespan, LastInject: out.LastInject,
	}
	for _, res := range out.Results {
		k.Search.Record(res)
		if res.Delivered {
			k.Delivered++
		} else {
			k.Failed++
		}
	}
	k.Services, k.MaxLoad = loadTotals(out.Loads)
	// The same summary load.Run computes: mean over the sorted
	// latencies, nearest-rank quantiles.
	if len(out.Latencies) > 0 {
		sorted := append([]float64(nil), out.Latencies...)
		sort.Float64s(sorted)
		k.LatencyMean = sum(sorted) / float64(len(sorted))
		k.LatencyP50 = mathx.NearestRank(sorted, 0.50)
		k.LatencyP95 = mathx.NearestRank(sorted, 0.95)
		k.LatencyP99 = mathx.NearestRank(sorted, 0.99)
	}
	return k
}

func loadTotals(loads []int) (total, maxLoad int) {
	for _, l := range loads {
		total += l
		maxLoad = max(maxLoad, l)
	}
	return total, maxLoad
}

// checkLedgers fails the run unless the run's conservation ledgers
// balance.
func checkLedgers(rep *report, k runKey, where string) {
	rep.check(k.Injected == k.Delivered+k.Failed,
		"%s: injected %d != delivered %d + failed %d", where, k.Injected, k.Delivered, k.Failed)
	rep.check(k.Stranded == k.StrandResumed+k.StrandDropped,
		"%s: stranded %d != resumed %d + dropped %d", where, k.Stranded, k.StrandResumed, k.StrandDropped)
	rep.check(k.Suppressed == k.MulticastFanout+k.PITExpired,
		"%s: suppressed %d != fanout %d + expired %d", where, k.Suppressed, k.MulticastFanout, k.PITExpired)
	rep.check(k.RumorsConverged+k.RumorsAbandoned == k.Crashes+k.Joins,
		"%s: rumors %d+%d != crashes %d + joins %d", where,
		k.RumorsConverged, k.RumorsAbandoned, k.Crashes, k.Joins)
}

// sameRun fails the run when got differs from want in any field.
func sameRun(rep *report, got, want runKey, where string) {
	rep.check(got == want, "%s diverged:\n  got  %+v\n  want %+v", where, got, want)
}

// churnSpec is the membership scenario of ftrbench's churn-scaling
// measurement, on a network of the given size and traffic span:
// background churn, a 15% arc kill at a quarter of the horizon, a
// flash join of nodes/64 at half of it, gossip fanout 2, repair on.
func churnSpec(nodes int, horizon float64) failure.ChurnSpec {
	return failure.ChurnSpec{
		Rate:           4 / horizon,
		Horizon:        horizon,
		KillFrac:       0.15,
		KillAt:         horizon / 4,
		FlashJoin:      nodes / 64,
		FlashAt:        horizon / 2,
		GossipInterval: 1,
		GossipFanout:   2,
		Repair:         true,
	}
}

// decomposed is one traffic run made layer by layer.
type decomposed struct {
	out       *engine.Outcome
	key       runKey
	generate  float64 // load: Bind + Pair loop + Prime
	schedule  float64 // failure: ChurnSpec.Generate
	engineS   float64 // engine.Run
	wall      float64 // the whole decomposition
	allocated uint64  // bytes allocated inside engine.Run
	sched     *telemetry.SchedStats
}

// decompose makes the run load.Run(g, gen, cfg, seed) would make, by
// calling the layers in the same order on the same rng streams with
// the same resolved defaults: Bind and the Pair loop, the arrival
// schedule, the churn schedule, then engine.Run with rec attached.
// Only live configurations without replication are supported.
func decompose(g *graph.Graph, gen load.Generator, cfg load.Config, seed uint64, rec *telemetry.Recorder, tr *tracer) (*decomposed, error) {
	if !cfg.Live || cfg.Replication != nil || cfg.Aggregate || cfg.Arrival == nil {
		return nil, fmt.Errorf("decompose: only live runs with an explicit arrival model")
	}
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = 1
	}
	shards := max(cfg.Shards, 1)
	d := &decomposed{}
	var err error
	d.wall = tr.do("bench.decomposed_run", func() {
		root := rng.New(seed)
		msgs := make([]engine.Message, cfg.Messages)
		var primed []load.Injection
		d.generate = tr.do("load.generate", func() {
			tr.do("load.Bind", func() { err = gen.Bind(g, root.Derive(0)) })
			if err != nil {
				return
			}
			pairSrc := root.Derive(1)
			tr.do("load.Pair", func() {
				for i := range msgs {
					var from, to metric.Point
					from, to, err = gen.Pair(pairSrc)
					if err != nil {
						return
					}
					msgs[i] = engine.Message{From: from, Key: to}
				}
			})
			if err != nil {
				return
			}
			tr.do("load.Prime", func() { primed = cfg.Arrival.Prime(cfg.Messages, root.Derive(2)) })
		})
		if err != nil {
			return
		}
		var churn engine.ChurnConfig
		if spec := cfg.Churn; spec.Enabled() {
			if spec.ProbeTimeout == 0 {
				spec.ProbeTimeout = 4 / capacity
			}
			if spec.GossipInterval == 0 {
				spec.GossipInterval = 1 / capacity
			}
			if spec.GossipFanout == 0 {
				spec.GossipFanout = 2
			}
			if spec.Rate > 0 && spec.Horizon == 0 {
				err = fmt.Errorf("decompose: churn rate without an explicit horizon")
				return
			}
			var events []failure.ChurnEvent
			d.schedule = tr.do("failure.ChurnSpec.Generate", func() { events, err = spec.Generate(g, root.Derive(4)) })
			if err != nil {
				return
			}
			churn = engine.ChurnConfig{
				Events:         events,
				ProbeTimeout:   spec.ProbeTimeout,
				GossipInterval: spec.GossipInterval,
				GossipFanout:   spec.GossipFanout,
				Repair:         spec.Repair,
			}
		}
		ecfg := engine.Config{
			Capacity:  capacity,
			Workers:   runtime.GOMAXPROCS(0),
			Shards:    shards,
			Route:     cfg.Route,
			BatchSize: 32,
			Mode:      engine.ModeLive,
			Churn:     churn,
			Telemetry: rec,
		}
		if cfg.PIT {
			ecfg.Mode = engine.ModeLivePIT
			ecfg.PITTimeout = cfg.PITTimeout
			if ecfg.PITTimeout == 0 {
				ecfg.PITTimeout = 64 / capacity
			}
			ecfg.PITWaiters = cfg.PITWaiters
			if ecfg.PITWaiters == 0 {
				ecfg.PITWaiters = 16
			}
		}
		_, a0 := allocCounters()
		d.engineS = tr.do("engine.Run", func() {
			d.out, err = engine.Run(g, msgs, engine.Schedule{Initial: primed, Completed: cfg.Arrival.Completed}, ecfg, root)
		})
		_, a1 := allocCounters()
		d.allocated = a1 - a0
	})
	if err != nil {
		return nil, err
	}
	d.key = outcomeKey(d.out)
	if rec != nil {
		if runs := rec.Runs(); len(runs) > 0 {
			d.sched = runs[len(runs)-1].Sched()
		}
	}
	return d, nil
}

// engineAcc sums the engine-layer measures of one or more decomposed
// runs.
type engineAcc struct {
	runS, serialS                float64
	events, maxDepth             int
	allocated                    uint64
	windows, handoffs            int
	drain, wait                  []float64 // per shard, summed over runs
	occEvents, occWindows        int64
	injected, suppressed, expire int
	stranded, dropped            int
	gossip, changes              int
	lag                          float64
}

func (a *engineAcc) add(d *decomposed) {
	o := d.out
	a.runS += d.engineS
	a.events += o.Services + o.GossipSends
	a.maxDepth = max(a.maxDepth, o.MaxQueueDepth)
	a.allocated += d.allocated
	a.injected += len(o.Results)
	a.suppressed += o.Suppressed
	a.expire += o.PITExpired
	a.stranded += o.Stranded
	a.dropped += o.StrandDropped
	a.gossip += o.GossipSends
	a.changes += o.Crashes + o.Joins
	a.lag = max(a.lag, o.MembershipLag)
	s := d.sched
	if s == nil {
		return
	}
	a.windows += s.Windows
	var slowest float64
	for i := 0; i < s.Shards; i++ {
		if i >= len(a.drain) {
			a.drain = append(a.drain, 0)
			a.wait = append(a.wait, 0)
		}
		a.drain[i] += s.Drain[i]
		a.wait[i] += s.Wait[i]
		slowest = max(slowest, s.Drain[i]+s.Wait[i])
	}
	for _, h := range s.Handoffs {
		a.handoffs += h
	}
	a.serialS += max(d.engineS-slowest, 0)
	if s.Occupancy != nil {
		a.occEvents += int64(s.TotalEvents())
		a.occWindows += s.Occupancy.Total()
	}
}

// report sets the engine.* metrics; speedup is the Shards=1 reference
// wall over the sharded wall, 0 when the workload has no sharded run.
func (a *engineAcc) report(rep *report, speedup float64) {
	m := rep.metrics
	m["engine.run_s"] = a.runS
	m["engine.events"] = float64(a.events)
	m["engine.ns_per_event"] = a.runS * 1e9 / float64(max(a.events, 1))
	m["engine.alloc_bytes_per_event"] = float64(a.allocated) / float64(max(a.events, 1))
	m["engine.max_queue_depth"] = float64(a.maxDepth)
	m["engine.windows"] = float64(a.windows)
	var maxDrain, drain, wait float64
	for i := range a.drain {
		maxDrain = max(maxDrain, a.drain[i])
		drain += a.drain[i]
		wait += a.wait[i]
	}
	m["engine.drain_s"] = maxDrain
	m["engine.barrier_wait_frac"] = 0
	if drain+wait > 0 {
		m["engine.barrier_wait_frac"] = wait / (drain + wait)
	}
	m["engine.serial_s"] = a.serialS
	m["engine.shard_imbalance"] = 0
	if drain > 0 {
		m["engine.shard_imbalance"] = maxDrain / (drain / float64(len(a.drain)))
	}
	m["engine.handoffs"] = float64(a.handoffs)
	m["engine.occupancy_mean_events"] = 0
	if a.occWindows > 0 {
		m["engine.occupancy_mean_events"] = float64(a.occEvents) / float64(a.occWindows)
	}
	m["engine.shard_speedup"] = speedup
	m["engine.suppressed_frac"] = ratio(a.suppressed, a.injected)
	m["engine.pit_expired_frac"] = ratio(a.expire, a.suppressed)
	m["engine.strand_drop_frac"] = ratio(a.dropped, a.stranded)
	m["engine.gossip_per_change"] = ratio(a.gossip, a.changes)
	m["engine.membership_lag_ticks"] = a.lag
}

// trafficModel sums the model figures of the traffic runs that a
// measured run's first round over its instances made.
type trafficModel struct {
	hopsOK, delivered, failed, injected int
	p99s                                []float64
}

func (m *trafficModel) add(k runKey) {
	m.hopsOK += k.Search.HopsOK
	m.delivered += k.Search.Delivered
	m.failed += k.Failed
	m.injected += k.Injected
	m.p99s = append(m.p99s, k.LatencyP99)
}

// report sets mean_hops (delivered lookups) and names the failed
// fraction and the mean virtual-time p99 over the instances.
func (m *trafficModel) report(rep *report) {
	rep.metrics["mean_hops"] = float64(m.hopsOK) / float64(max(m.delivered, 1))
	rep.name("failed_frac", ratio(m.failed, m.injected), "frac")
	rep.name("latency_p99_ticks", sum(m.p99s)/float64(max(len(m.p99s), 1)), "ticks")
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// pitTrafficConfig is live Zipf traffic with pending-interest tables:
// msgs lookups arriving as a Poisson stream at nodes/8 per tick.
func pitTrafficConfig(nodes, msgs, shards int) load.Config {
	return load.Config{
		Messages: msgs,
		Shards:   shards,
		Live:     true,
		PIT:      true,
		Arrival:  load.Poisson(float64(nodes) / 8),
		Route:    searchOptions,
	}
}

// probeEngine measures the load and engine layers on a static
// workload's graph, which the workload itself never runs traffic
// over: PIT traffic of alive/2 lookups at its Shards=1 reference and
// at the sharded plan (which must agree exactly; the reference runs
// first so both time a warm heap), plus the churn schedule the churn
// workload would draw on a graph of this size.
func probeEngine(g *graph.Graph, seed uint64, tr *tracer, rep *report) {
	alive := g.AliveCount()
	msgs := max(alive/2, 1)
	shards := runtime.NumCPU()
	seq, err := decompose(g, load.Zipf(1), pitTrafficConfig(alive, msgs, 1), seed, nil, tr)
	if err != nil {
		rep.fail("engine probe reference: %v", err)
		return
	}
	par, err := decompose(g, load.Zipf(1), pitTrafficConfig(alive, msgs, shards), seed, telemetry.New(telemetry.Options{}), tr)
	if err != nil {
		rep.fail("engine probe: %v", err)
		return
	}
	rep.attempted += 2
	checkLedgers(rep, par.key, "engine probe")
	sameRun(rep, par.key, seq.key, "engine probe at shards="+fmt.Sprint(shards))
	var acc engineAcc
	acc.add(par)
	acc.report(rep, seq.engineS/par.engineS)
	rep.metrics["load.generate_s"] = par.generate
	rep.metrics["load.latency_p99_ticks"] = par.key.LatencyP99

	horizon := float64(msgs) / (float64(alive) / 8)
	spec := churnSpec(g.Size(), horizon)
	spec.ProbeTimeout = 4
	rep.metrics["failure.churn_schedule_s"] = tr.do("failure.ChurnSpec.Generate", func() {
		_, err = spec.Generate(g, rng.New(seed).Derive(80))
	})
	rep.attempted++
	if err != nil {
		rep.fail("churn schedule probe: %v", err)
	}
}
