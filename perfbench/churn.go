package main

import (
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// churn-pit-sharded runs the full membership and response path on the
// parallel loop: Zipf(1) lookups with pending-interest tables over a
// healthy torus while nodes crash, a regional arc dies and a flash
// crowd joins, repaired by gossip, at Shards = number of CPUs.

// setupChurn builds instance inst's healthy ideal torus of side
// ChurnSide. Churn mutates the graph, so every run builds its own.
func setupChurn(sc scale, seed uint64, inst int, tr *tracer) (metric.Space, *graph.Graph, error) {
	torus, err := metric.NewTorus(sc.ChurnSide, 2)
	if err != nil {
		return nil, nil, err
	}
	var g *graph.Graph
	tr.do("graph.BuildIdeal", func() {
		g, err = graph.BuildIdeal(torus, graph.PaperConfigFor(torus, mathx.ILog2(torus.Size())), instanceRoot(seed, inst).Derive(1))
	})
	return torus, g, err
}

// churnConfig is the run: 4·nodes Zipf lookups at nodes/8 per tick
// with PIT on, under churnSpec over the injection span.
func churnConfig(nodes, shards int) load.Config {
	cfg := pitTrafficConfig(nodes, 4*nodes, shards)
	cfg.Churn = churnSpec(nodes, float64(cfg.Messages)/(float64(nodes)/8))
	return cfg
}

func churnSeed(seed uint64, inst int) uint64 { return instanceRoot(seed, inst).Derive(2).Uint64() }

// checkChurnRun fails the run unless it balanced its ledgers, took the
// sharded plan (when more than one shard was asked for) and exercised
// every membership mechanism.
func checkChurnRun(rep *report, plan, reason string, k runKey, shards int) {
	checkLedgers(rep, k, "churn run")
	if shards > 1 {
		rep.check(plan == engine.PlanLiveSharded.String(),
			"churn run fell back to plan %q (%s)", plan, reason)
	}
	rep.check(k.Crashes > 0 && k.Joins > 0 && k.GossipSends > 0 && k.LinksRebuilt > 0 && k.Suppressed > 0,
		"churn run was vacuous: crashes %d joins %d gossip %d links %d suppressed %d",
		k.Crashes, k.Joins, k.GossipSends, k.LinksRebuilt, k.Suppressed)
}

func measureChurn(cfg runConfig, rep *report) {
	sc := cfg.scale
	shards := runtime.NumCPU()
	if _, ok := repeatSetup(sc, rep, func() (*graph.Graph, error) {
		_, g, err := setupChurn(sc, cfg.seed, 0, nil)
		return g, err
	}); !ok {
		return
	}
	// Each call runs the next instance on a fresh graph; the first
	// round over the instances gives the model figures, later rounds
	// must repeat them.
	firsts := make([]runKey, sc.Instances)
	var walls, events []float64
	var model trafficModel
	var lags []float64
	for call, elapsed := 0, 0.0; call < sc.Instances || elapsed < cfg.seconds; call++ {
		inst := call % sc.Instances
		runtime.GC() // the previous run's graph is garbage; do not time its collection
		_, g, err := setupChurn(sc, cfg.seed, inst, nil)
		if err != nil {
			rep.fail("set-up: %v", err)
			return
		}
		var res *load.Result
		d := timeIt(func() {
			res, err = load.Run(g, load.Zipf(1), churnConfig(g.Size(), shards), churnSeed(cfg.seed, inst))
		})
		elapsed += d
		rep.attempted++
		if err != nil {
			rep.fail("churn run: %v", err)
			return
		}
		k := resultKey(res)
		walls = append(walls, d)
		events = append(events, float64(k.Services+k.GossipSends))
		if call >= sc.Instances {
			sameRun(rep, k, firsts[inst], "repeated churn run")
			continue
		}
		firsts[inst] = k
		checkChurnRun(rep, res.Plan, res.PlanReason, k, shards)
		model.add(k)
		lags = append(lags, k.MembershipLag)
	}
	// An operation is one load.Run: the scenario simulated. Its wall time
	// holds steadier across seeds than the event rate, because each run
	// also pays for membership work (churn ops, gossip rounds, barriers)
	// that does not scale with its event count; the event rate is
	// printed beside it.
	reportRuns(rep, walls, ones(len(walls)), [2]string{"runs_per_s", "run_us"})
	rep.name("events_per_s", sum(events)/sum(walls), "1/s")
	model.report(rep)
	rep.name("membership_lag_ticks", sum(lags)/float64(len(lags)), "ticks")
	rep.metrics["peak_rss_mb"] = peakRSSMB()
}

func tracedChurn(cfg runConfig, rep *report, tr *tracer) {
	sc := cfg.scale
	shards := runtime.NumCPU()
	seed := churnSeed(cfg.seed, 0)
	base := heapInUse()
	var space metric.Space
	var g *graph.Graph
	var err error
	build := tr.do("bench.setup", func() { space, g, err = setupChurn(sc, cfg.seed, 0, tr) })
	if err != nil {
		rep.fail("set-up: %v", err)
		return
	}
	rep.attempted++
	nodes := g.Size()
	rep.metrics["graph.bytes_per_node"] = float64(heapInUse()-base) / float64(nodes)
	rep.metrics["graph.build_s"] = build
	probeMetric(space, cfg.seed, sc, tr, rep)
	probeGraph(g, tr, rep)
	runCfg := churnConfig(nodes, shards)

	// The run's message set routed from outside over the pre-churn
	// graph, before the untraced reference run mutates it.
	pairs, err := messagePairs(g, load.Zipf(1), runCfg.Messages, seed)
	if err != nil {
		rep.fail("churn messages: %v", err)
		return
	}
	_, _ = routeDecomposition(g, pairs, cfg.seed, tr, rep) // the run's own overhead and failures are reported below

	// The Shards=1 decomposition runs first: it warms the heap the
	// untraced run and the sharded decomposition then both reuse, so
	// the tracing overhead compares like with like. Each run gets a
	// fresh graph, and all three must agree field for field.
	runOn := func(s int, rec *telemetry.Recorder) *decomposed {
		_, g, err := setupChurn(sc, cfg.seed, 0, nil)
		if err != nil {
			rep.fail("set-up: %v", err)
			return nil
		}
		c := runCfg
		c.Shards = s
		d, err := decompose(g, load.Zipf(1), c, seed, rec, tr)
		rep.attempted++
		if err != nil {
			rep.fail("decomposed churn run at shards=%d: %v", s, err)
			return nil
		}
		return d
	}
	seq := runOn(1, telemetry.New(telemetry.Options{}))
	var ref *load.Result
	untraced := timeIt(func() { ref, err = load.Run(g, load.Zipf(1), runCfg, seed) })
	rep.attempted++
	if err != nil {
		rep.fail("churn run: %v", err)
		return
	}
	refKey := resultKey(ref)
	checkChurnRun(rep, ref.Plan, ref.PlanReason, refKey, shards)
	// The failure layer's static injection, probed on the post-churn
	// graph (the workload itself fails nodes only through churn).
	rep.metrics["failure.inject_s"] = tr.do("failure.FailNodesProb", func() {
		_, err = failure.FailNodesProb(g, 0.15, rng.New(cfg.seed).Derive(81))
	})
	if err != nil {
		rep.fail("failure probe: %v", err)
	}
	par := runOn(shards, telemetry.New(telemetry.Options{}))
	if par == nil || seq == nil {
		return
	}
	sameRun(rep, par.key, refKey, fmt.Sprintf("decomposed churn run at shards=%d", shards))
	sameRun(rep, seq.key, refKey, "decomposed churn run at shards=1")
	if shards > 1 {
		rep.check(par.out.Plan == engine.PlanLiveSharded, "decomposed churn run took plan %v", par.out.Plan)
	}
	rep.metrics["telemetry.overhead_frac"] = par.wall/untraced - 1
	var acc engineAcc
	acc.add(par)
	acc.report(rep, seq.engineS/par.engineS)
	rep.metrics["load.generate_s"] = par.generate
	rep.metrics["load.latency_p99_ticks"] = refKey.LatencyP99
	rep.metrics["route.failed_frac"] = float64(refKey.Failed) / float64(refKey.Injected)
	rep.metrics["failure.churn_schedule_s"] = par.schedule
	probeConstruct(space, mathx.ILog2(nodes), cfg.seed, sc, tr, rep)
}
