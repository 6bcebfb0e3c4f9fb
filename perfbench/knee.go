package main

import (
	"math"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// knee-sweep asks the repository's capacity question on a failed 2-D
// torus: the highest Poisson rate of Zipf(1) lookups whose p99 stays
// bounded and whose queues drain, found by load.Sweep on the
// sequential live loop.

// kneeSetup is knee-sweep's input graph.
type kneeSetup struct {
	space metric.Space
	g     *graph.Graph
	times setupTimes
}

// instanceRoot is the rng root of one of the independent instances a
// seed expands into.
func instanceRoot(seed uint64, inst int) *rng.Source {
	return rng.New(seed).Derive(1000 + uint64(inst))
}

// setupKnee builds instance inst's ideal torus of side KneeSide (ℓ = lg
// nodes) and fails each node with probability KneeFail.
func setupKnee(sc scale, seed uint64, inst int, tr *tracer) (*kneeSetup, error) {
	root := instanceRoot(seed, inst)
	torus, err := metric.NewTorus(sc.KneeSide, 2)
	if err != nil {
		return nil, err
	}
	s := &kneeSetup{space: torus}
	s.times.build = tr.do("graph.BuildIdeal", func() {
		s.g, err = graph.BuildIdeal(torus, graph.PaperConfigFor(torus, mathx.ILog2(torus.Size())), root.Derive(1))
	})
	if err != nil {
		return nil, err
	}
	s.times.inject = tr.do("failure.FailNodesProb", func() {
		_, err = failure.FailNodesProb(s.g, sc.KneeFail, root.Derive(2))
	})
	return s, err
}

// kneeSweepConfig is the sweep: 3·nodes messages per point, live mode
// on one shard, backtracking searches, Poisson arrivals.
func kneeSweepConfig(nodes int) load.SweepConfig {
	return load.SweepConfig{
		Config: load.Config{
			Messages: 3 * nodes,
			Shards:   1,
			Live:     true,
			Route:    searchOptions,
		},
		Model: "poisson",
	}
}

func kneeSeed(seed uint64, inst int) uint64 { return instanceRoot(seed, inst).Derive(3).Uint64() }

// sweepKeys is everything about a sweep that must repeat exactly.
type sweepKeys struct {
	knee, p99Bound float64
	saturated      bool
	points         []runKey
}

func keysOfSweep(s *load.SweepResult) sweepKeys {
	k := sweepKeys{knee: s.Knee, p99Bound: s.P99Bound, saturated: s.Saturated}
	for i := range s.Points {
		k.points = append(k.points, resultKey(s.Points[i].Result))
	}
	return k
}

func (k sweepKeys) services() int {
	n := 0
	for _, p := range k.points {
		n += p.Services
	}
	return n
}

// sameSweep fails the run unless got repeats want exactly.
func sameSweep(rep *report, got, want sweepKeys) {
	rep.check(got.knee == want.knee && got.p99Bound == want.p99Bound &&
		got.saturated == want.saturated && len(got.points) == len(want.points),
		"sweep not reproducible: knee %g vs %g", got.knee, want.knee)
	for i := range got.points {
		if i < len(want.points) {
			sameRun(rep, got.points[i], want.points[i], "repeated sweep point")
		}
	}
}

// checkSweep fails the run unless the sweep found a finite knee and
// every point's ledgers balance.
func checkSweep(rep *report, s *load.SweepResult) *load.SweepPoint {
	for i := range s.Points {
		checkLedgers(rep, resultKey(s.Points[i].Result), "sweep point")
	}
	kp := s.KneePoint()
	rep.check(s.Saturated && s.Knee > 0 && !math.IsInf(s.Knee, 0) && kp != nil,
		"sweep found no finite knee (knee %g, saturated %v)", s.Knee, s.Saturated)
	return kp
}

func measureKnee(cfg runConfig, rep *report) {
	sc := cfg.scale
	if _, ok := repeatSetup(sc, rep, func() (*kneeSetup, error) { return setupKnee(sc, cfg.seed, 0, nil) }); !ok {
		return
	}
	// Each call sweeps the next instance; the first round over the
	// instances gives the model figures, later rounds must repeat them.
	setups := make([]*kneeSetup, sc.Instances)
	firsts := make([]sweepKeys, sc.Instances)
	var walls, services []float64
	var model trafficModel
	var knees []float64
	for call, elapsed := 0, 0.0; call < sc.Instances || elapsed < cfg.seconds; call++ {
		inst := call % sc.Instances
		if setups[inst] == nil {
			s, err := setupKnee(sc, cfg.seed, inst, nil)
			if err != nil {
				rep.fail("set-up: %v", err)
				return
			}
			setups[inst] = s
		}
		s := setups[inst]
		var sw *load.SweepResult
		var err error
		d := timeIt(func() {
			sw, err = load.Sweep(s.g, load.Zipf(1), kneeSweepConfig(s.space.Size()), kneeSeed(cfg.seed, inst))
		})
		elapsed += d
		rep.attempted++
		if err != nil {
			rep.fail("sweep: %v", err)
			return
		}
		keys := keysOfSweep(sw)
		walls = append(walls, d)
		services = append(services, float64(keys.services()))
		if call >= sc.Instances {
			sameSweep(rep, keys, firsts[inst])
			continue
		}
		firsts[inst] = keys
		kp := checkSweep(rep, sw)
		if kp == nil {
			return
		}
		model.add(resultKey(kp.Result))
		knees = append(knees, sw.Knee)
	}
	// An operation is one engine service, a call one load.Sweep. The
	// service rate holds steadier across seeds than the sweep time,
	// which moves with each instance's knee and overload; sweep_s is
	// printed beside it.
	reportRuns(rep, walls, services, [2]string{"services_per_s", "service_p50_us"})
	rep.name("sweep_s", sum(walls)/float64(len(walls)), "s")
	model.report(rep)
	rep.name("knee_rate", sum(knees)/float64(len(knees)), "msgs/tick")
	rep.metrics["peak_rss_mb"] = peakRSSMB()
}

func tracedKnee(cfg runConfig, rep *report, tr *tracer) {
	sc := cfg.scale
	base := heapInUse()
	var s *kneeSetup
	var err error
	tr.do("bench.setup", func() { s, err = setupKnee(sc, cfg.seed, 0, tr) })
	if err != nil {
		rep.fail("set-up: %v", err)
		return
	}
	rep.attempted++
	nodes := s.space.Size()
	rep.metrics["graph.bytes_per_node"] = float64(heapInUse()-base) / float64(nodes)
	rep.metrics["graph.build_s"] = s.times.build
	rep.metrics["failure.inject_s"] = s.times.inject
	probeMetric(s.space, cfg.seed, sc, tr, rep)
	probeGraph(s.g, tr, rep)

	// The untraced sweep is the reference; the decomposition replays
	// every point it evaluated, layer by layer with a telemetry
	// recorder attached, and must reproduce each point exactly.
	swc := kneeSweepConfig(nodes)
	seed := kneeSeed(cfg.seed, 0)
	var sw *load.SweepResult
	untraced := timeIt(func() { sw, err = load.Sweep(s.g, load.Zipf(1), swc, seed) })
	rep.attempted++
	if err != nil {
		rep.fail("sweep: %v", err)
		return
	}
	kp := checkSweep(rep, sw)
	if kp == nil {
		return
	}
	rec := telemetry.New(telemetry.Options{})
	var acc engineAcc
	var generate float64
	var services, overloaded int
	traced := tr.do("bench.sweep_decomposed", func() {
		for _, p := range sw.Points {
			run := swc.Config
			run.Arrival = load.Poisson(p.Load)
			d, err := decompose(s.g, load.Zipf(1), run, seed, rec, tr)
			rep.attempted++
			if err != nil {
				rep.fail("decomposed sweep point %g: %v", p.Load, err)
				return
			}
			sameRun(rep, d.key, resultKey(p.Result), "decomposed sweep point")
			acc.add(d)
			generate += d.generate
			services += d.key.Services
			if !p.Stable {
				overloaded += d.key.Services
			}
		}
	})
	rep.metrics["telemetry.overhead_frac"] = traced/untraced - 1
	acc.report(rep, 0)
	rep.metrics["load.generate_s"] = generate
	rep.metrics["load.latency_p99_ticks"] = kp.Result.LatencyP99
	// The sweep's own layer figures: no other workload has a sweep.
	rep.name("load.sweep_points", float64(len(sw.Points)), "count")
	rep.name("load.overload_event_frac", ratio(overloaded, services), "frac")
	rep.name("load.knee_rate", sw.Knee, "msgs/tick")
	rep.metrics["route.failed_frac"] = float64(kp.Result.Failed) / float64(kp.Result.Injected)

	// The knee point's message set, routed from outside.
	pairs, err := messagePairs(s.g, load.Zipf(1), swc.Messages, seed)
	if err != nil {
		rep.fail("knee messages: %v", err)
		return
	}
	_, _ = routeDecomposition(s.g, pairs, cfg.seed, tr, rep) // the sweep's own overhead and failures are reported above
	probeConstruct(s.space, mathx.ILog2(nodes), cfg.seed, sc, tr, rep)
	horizon := float64(swc.Messages) / sw.Knee
	spec := churnSpec(nodes, horizon)
	spec.ProbeTimeout = 4
	rep.metrics["failure.churn_schedule_s"] = tr.do("failure.ChurnSpec.Generate", func() {
		_, err = spec.Generate(s.g, rng.New(cfg.seed).Derive(80))
	})
	rep.attempted++
	if err != nil {
		rep.fail("churn schedule probe: %v", err)
	}
}

// messagePairs draws the (from, key) pairs load.Run would draw for n
// messages of gen on g under seed.
func messagePairs(g *graph.Graph, gen load.Generator, n int, seed uint64) ([]pair, error) {
	root := rng.New(seed)
	if err := gen.Bind(g, root.Derive(0)); err != nil {
		return nil, err
	}
	src := root.Derive(1)
	pairs := make([]pair, n)
	for i := range pairs {
		from, to, err := gen.Pair(src)
		if err != nil {
			return nil, err
		}
		pairs[i] = pair{from, to}
	}
	return pairs, nil
}
