package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/construct"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/sim"
)

// The two static workloads replay the paper's own experiments: §6
// searches over the ideal ring with half the nodes failed
// (paper-search), and the §5 arrival/departure heuristic maintaining a
// ring under churn (paper-maintain). Neither uses the event engine.

// searchOptions is the routing policy of every search the benchmark
// issues itself: the paper's two-sided greedy with backtracking.
var searchOptions = route.Options{DeadEnd: route.Backtrack}

// pair is one (from, to) search.
type pair struct{ from, to metric.Point }

// livePoints returns the alive nodes of g in point order.
func livePoints(g *graph.Graph) []metric.Point {
	live := make([]metric.Point, 0, g.AliveCount())
	for i := 0; i < g.Size(); i++ {
		if g.Alive(metric.Point(i)) {
			live = append(live, metric.Point(i))
		}
	}
	return live
}

// drawPairs draws n uniform (from, to) pairs of distinct live nodes.
func drawPairs(live []metric.Point, src *rng.Source, n int) ([]pair, error) {
	if len(live) < 2 {
		return nil, fmt.Errorf("draw pairs: %d live nodes", len(live))
	}
	pairs := make([]pair, n)
	for i := range pairs {
		from := live[src.Intn(len(live))]
		to := from
		for to == from {
			to = live[src.Intn(len(live))]
		}
		pairs[i] = pair{from, to}
	}
	return pairs, nil
}

// searchModel accumulates the model metrics of a fixed batch of
// searches: deterministic in the seed, whatever the machine's speed.
type searchModel struct {
	stats sim.SearchStats
	hops  []float64 // hop counts of delivered searches
}

func (m *searchModel) record(res route.Result) {
	m.stats.Record(res)
	if res.Delivered {
		m.hops = append(m.hops, float64(res.Hops))
	}
}

// report sets mean_hops (delivered searches) and names the model's
// failed_frac and latency_p99_ticks: with one tick of service per hop
// and nothing queued, a static search's latency in ticks is its hop
// count.
func (m *searchModel) report(rep *report) {
	s := m.stats
	rep.check(s.Delivered > 0, "no search delivered")
	rep.metrics["mean_hops"] = float64(s.HopsOK) / float64(max(s.Delivered, 1))
	rep.name("failed_frac", ratio(s.Searches-s.Delivered, s.Searches), "frac")
	rep.name("latency_p99_ticks", quantile(m.hops, 0.99), "ticks")
}

// checkRoute fails the run when a search errs or a delivered search
// ended anywhere but its target.
func checkRoute(rep *report, res route.Result, err error, p pair) {
	if err != nil {
		rep.fail("route %d->%d: %v", p.from, p.to, err)
		return
	}
	rep.check(!res.Delivered || res.Target == p.to,
		"route %d->%d delivered at %d", p.from, p.to, res.Target)
}

// setupTimes are the set-up's layer calls, in seconds.
type setupTimes struct{ build, inject float64 }

// searchSetup is paper-search's input: the failed ideal ring and the
// seeded search pairs.
type searchSetup struct {
	space metric.Space
	g     *graph.Graph
	pairs []pair
	times setupTimes
}

// setupSearch builds the §6 graph (ring of 2^SearchLg nodes, ℓ = lg n),
// fails each node with probability SearchFail and draws the pairs.
func setupSearch(sc scale, seed uint64, tr *tracer) (*searchSetup, error) {
	root := rng.New(seed)
	ring, err := metric.NewRing(1 << sc.SearchLg)
	if err != nil {
		return nil, err
	}
	s := &searchSetup{space: ring}
	s.times.build = tr.do("graph.BuildIdeal", func() {
		s.g, err = graph.BuildIdeal(ring, graph.PaperConfig(sc.SearchLg), root.Derive(1))
	})
	if err != nil {
		return nil, err
	}
	s.times.inject = tr.do("failure.FailNodesProb", func() {
		_, err = failure.FailNodesProb(s.g, sc.SearchFail, root.Derive(2))
	})
	if err != nil {
		return nil, err
	}
	tr.do("bench.draw_pairs", func() {
		s.pairs, err = drawPairs(livePoints(s.g), root.Derive(3), sc.SearchPairs)
	})
	return s, err
}

// Set-up is repeated at least SetupReps times and for at least
// minSetupSeconds (at most maxSetupReps times), so a cheap set-up still
// yields a steady median.
const (
	minSetupSeconds = 3.0
	maxSetupReps    = 60
)

// repeatSetup runs setup repeatedly, reports the median as setup_s and
// returns the last set-up's value.
func repeatSetup[T any](sc scale, rep *report, setup func() (T, error)) (T, bool) {
	var last T
	var durs []float64
	for len(durs) < maxSetupReps && (len(durs) < sc.SetupReps || sum(durs) < minSetupSeconds) {
		var zero T
		last = zero
		runtime.GC() // the previous set-up is garbage; do not time its collection
		var err error
		durs = append(durs, timeIt(func() { last, err = setup() }))
		if err != nil {
			rep.fail("set-up: %v", err)
			return last, false
		}
	}
	rep.metrics["setup_s"] = median(durs)
	return last, true
}

// A static workload's timed loop is cut into blocks of consecutive
// calls, and throughput and tail are taken per block and reported as
// medians: a stall on a shared machine (the host taking the CPU away
// for a few milliseconds, a collection) then moves the blocks it hits,
// not the figure. Rate blocks are short so that most of them fall
// between such stalls; tail blocks hold 1000 calls so that ten lie
// beyond each block's p99.
const (
	rateBlock = 100
	tailBlock = 1000
)

// blockStats applies stat to each full block of size n of secs (the
// whole of secs when it is shorter than one block).
func blockStats(secs []float64, n int, stat func([]float64) float64) []float64 {
	if len(secs) < n {
		return []float64{stat(append([]float64(nil), secs...))}
	}
	var out []float64
	for i := 0; i+n <= len(secs); i += n {
		out = append(out, stat(append([]float64(nil), secs[i:i+n]...)))
	}
	return out
}

// reportCalls reports a loop whose every call is one operation:
// ops_per_s is the median block throughput and op_p50_us the median
// call. The workload's names for them are printed with the median
// block p99 and the sample count.
func reportCalls(rep *report, secs []float64, names [3]string) {
	if len(secs) == 0 {
		rep.fail("no call timed")
		return
	}
	rates := blockStats(secs, rateBlock, func(b []float64) float64 { return float64(len(b)) / sum(b) })
	tails := blockStats(secs, tailBlock, func(b []float64) float64 { return quantile(b, 0.99) * 1e6 })
	us := make([]float64, len(secs))
	for i, s := range secs {
		us[i] = s * 1e6
	}
	rep.metrics["ops_per_s"] = median(rates)
	rep.metrics["op_p50_us"] = quantile(us, 0.5)
	rep.name(names[0], rep.metrics["ops_per_s"], "1/s")
	rep.name(names[1], rep.metrics["op_p50_us"], "us")
	rep.name(names[2], median(tails), "us")
	rep.name("samples", float64(len(secs)), "count")
}

// reportRuns reports a loop whose every call carries ops[i] operations:
// ops_per_s is the operations of all calls over their summed wall time,
// so every stall in the loop counts against it, and op_p50_us is the
// median over calls of the wall time per operation, which a stall moves
// only if it hits most calls.
func reportRuns(rep *report, walls, ops []float64, names [2]string) {
	if len(walls) == 0 {
		rep.fail("no call timed")
		return
	}
	perOp := make([]float64, len(walls))
	for i, w := range walls {
		perOp[i] = w * 1e6 / ops[i]
	}
	rep.metrics["ops_per_s"] = sum(ops) / sum(walls)
	rep.metrics["op_p50_us"] = median(perOp)
	rep.name(names[0], rep.metrics["ops_per_s"], "1/s")
	rep.name(names[1], rep.metrics["op_p50_us"], "us")
	rep.name("samples", float64(len(walls)), "count")
}

// ones returns n ones: the operation counts of n one-operation calls.
func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func measureSearch(cfg runConfig, rep *report) {
	sc := cfg.scale
	s, ok := repeatSetup(sc, rep, func() (*searchSetup, error) { return setupSearch(sc, cfg.seed, nil) })
	if !ok {
		return
	}
	router := route.New(s.g, searchOptions)
	src := rng.New(cfg.seed).Derive(4)
	// The first pass over the fixed pairs gives the model metrics; the
	// loop then cycles them until the time is up, and every repeat must
	// reproduce its first-pass result exactly.
	first := make([]route.Result, len(s.pairs))
	var model searchModel
	secs := make([]float64, 0, 1<<18)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < len(s.pairs) || time.Now().Before(deadline); i++ {
		k := i % len(s.pairs)
		p := s.pairs[k]
		start := time.Now()
		res, err := router.Route(src, p.from, p.to)
		secs = append(secs, time.Since(start).Seconds())
		rep.attempted++
		checkRoute(rep, res, err, p)
		if i < len(s.pairs) {
			first[k] = res
			model.record(res)
		} else if f := first[k]; res.Delivered != f.Delivered || res.Hops != f.Hops || res.Backtracks != f.Backtracks {
			rep.fail("search %d->%d not reproducible: %d hops vs %d", p.from, p.to, res.Hops, f.Hops)
		}
	}
	reportCalls(rep, secs, [3]string{"searches_per_s", "search_p50_us", "search_p99_us"})
	model.report(rep)
	rep.metrics["peak_rss_mb"] = peakRSSMB()
}

func tracedSearch(cfg runConfig, rep *report, tr *tracer) {
	sc := cfg.scale
	base := heapInUse()
	var s *searchSetup
	var err error
	tr.do("bench.setup", func() { s, err = setupSearch(sc, cfg.seed, tr) })
	if err != nil {
		rep.fail("set-up: %v", err)
		return
	}
	rep.attempted++
	rep.metrics["graph.bytes_per_node"] = float64(heapInUse()-base) / float64(s.g.Size())
	rep.metrics["graph.build_s"] = s.times.build
	rep.metrics["failure.inject_s"] = s.times.inject
	probeMetric(s.space, cfg.seed, sc, tr, rep)
	probeGraph(s.g, tr, rep)
	n := min(sc.TracedSearches, len(s.pairs))
	rep.metrics["telemetry.overhead_frac"], rep.metrics["route.failed_frac"] = routeDecomposition(s.g, s.pairs[:n], cfg.seed, tr, rep)
	probeConstruct(s.space, sc.SearchLg, cfg.seed, sc, tr, rep)
	probeEngine(s.g, cfg.seed, tr, rep)
}

// routeDecomposition routes pairs over g once untraced (route.replay_s
// and allocations per search) and once with a span per Router.Route
// call (busy time per hop, hop and backtrack counts). It returns the
// traced pass's wall over the untraced one, minus 1, and the fraction
// of the searches that failed.
func routeDecomposition(g *graph.Graph, pairs []pair, seed uint64, tr *tracer, rep *report) (overhead, failedFrac float64) {
	router := route.New(g, searchOptions)
	src := rng.New(seed).Derive(50)
	m0, _ := allocCounters()
	untraced := timeIt(func() {
		for _, p := range pairs {
			res, err := router.Route(src, p.from, p.to)
			rep.attempted++
			checkRoute(rep, res, err, p)
		}
	})
	m1, _ := allocCounters()
	var hops, backtracks, failed int
	var busy float64
	calls := make([]float64, 0, len(pairs))
	traced := tr.do("bench.route_batch", func() {
		for _, p := range pairs {
			var res route.Result
			var err error
			d := tr.do("route.Route", func() { res, err = router.Route(src, p.from, p.to) })
			busy += d
			calls = append(calls, d*1e6)
			rep.attempted++
			checkRoute(rep, res, err, p)
			hops += res.Hops
			backtracks += res.Backtracks
			if !res.Delivered {
				failed++
			}
		}
	})
	rep.metrics["route.replay_s"] = untraced
	rep.metrics["route.allocs_per_search"] = float64(m1-m0) / float64(max(len(pairs), 1))
	rep.metrics["route.ns_per_hop"] = busy * 1e9 / float64(max(hops, 1))
	rep.metrics["route.call_p99_us"] = quantile(calls, 0.99)
	rep.metrics["route.hops"] = float64(hops)
	rep.metrics["route.backtracks"] = float64(backtracks)
	rep.metrics["route.useful_hop_frac"] = float64(hops-backtracks) / float64(max(hops, 1))
	return traced/untraced - 1, float64(failed) / float64(max(len(pairs), 1))
}

// probeSink keeps probe results live so the compiler cannot drop the
// probed calls.
var probeSink int

// probeMetric times the space's link sampler (the harmonic exponent
// every builder uses) and its distance function over seeded points.
func probeMetric(space metric.Space, seed uint64, sc scale, tr *tracer, rep *report) {
	sampler, err := space.NewLinkSampler(float64(space.Dim()))
	if err != nil {
		rep.fail("link sampler: %v", err)
		return
	}
	src := rng.New(seed).Derive(60)
	const mask = 4095
	pts := make([]metric.Point, mask+1)
	for i := range pts {
		pts[i] = metric.Point(src.Intn(space.Size()))
	}
	n := sc.ProbeCalls
	sink := 0
	d := tr.do("metric.Sample", func() {
		for i := 0; i < n; i++ {
			q, _ := sampler.Sample(pts[i&mask], src)
			sink += int(q)
		}
	})
	rep.metrics["metric.sample_ns"] = d * 1e9 / float64(n)
	d = tr.do("metric.Distance", func() {
		for i := 0; i < n; i++ {
			sink += space.Distance(pts[i&mask], pts[(i*7+1)&mask])
		}
	})
	rep.metrics["metric.distance_ns"] = d * 1e9 / float64(n)
	rep.attempted += 2
	probeSink += sink
}

// probeGraph enumerates the neighbours of every alive node.
func probeGraph(g *graph.Graph, tr *tracer, rep *report) {
	var visits, alive int
	d := tr.do("graph.ForEachNeighbor", func() {
		for i := 0; i < g.Size(); i++ {
			p := metric.Point(i)
			if !g.Alive(p) {
				continue
			}
			alive++
			g.ForEachNeighbor(p, func(metric.Point) { visits++ })
		}
	})
	rep.attempted++
	rep.check(visits > 0, "graph probe visited no neighbour")
	rep.metrics["graph.neighbor_ns"] = d * 1e9 / float64(max(visits, 1))
	rep.metrics["graph.neighbors_per_node"] = float64(visits) / float64(max(alive, 1))
}

// maintainer drives the §5 heuristic: a construct.Builder plus the
// present and absent point sets it alternates Remove and Add over.
type maintainer struct {
	b       *construct.Builder
	present []metric.Point
	absent  []metric.Point
	src     *rng.Source
	ops     int
}

// newMaintainer adds the first grow points of a seeded permutation of
// space (the set-up) and keeps the rest absent.
func newMaintainer(space metric.Space, links, grow int, root *rng.Source, tr *tracer) (*maintainer, float64, error) {
	b, err := construct.NewBuilder(space, construct.Config{Links: links}, root.Derive(1))
	if err != nil {
		return nil, 0, err
	}
	perm := root.Derive(2).Perm(space.Size())
	m := &maintainer{b: b, src: root.Derive(3)}
	for _, p := range perm[grow:] {
		m.absent = append(m.absent, metric.Point(p))
	}
	d := tr.do("construct.Grow", func() {
		for _, p := range perm[:grow] {
			if err = b.Add(metric.Point(p)); err != nil {
				return
			}
			m.present = append(m.present, metric.Point(p))
		}
	})
	return m, d, err
}

// take swap-removes a random point from set and returns it.
func (m *maintainer) take(set *[]metric.Point) metric.Point {
	s := *set
	i := m.src.Intn(len(s))
	p := s[i]
	s[i] = s[len(s)-1]
	*set = s[:len(s)-1]
	return p
}

// step makes one maintenance call, alternating Remove of a random
// present node with Add of a random absent point, and returns whether
// it was an Add and the call's wall seconds.
func (m *maintainer) step(tr *tracer) (add bool, secs float64, err error) {
	add = m.ops%2 == 1
	m.ops++
	if add {
		p := m.take(&m.absent)
		secs = tr.do("construct.Add", func() { err = m.b.Add(p) })
		m.present = append(m.present, p)
	} else {
		p := m.take(&m.present)
		secs = tr.do("construct.Remove", func() { err = m.b.Remove(p) })
		m.absent = append(m.absent, p)
	}
	if err == nil && m.b.Size() != len(m.present) {
		err = fmt.Errorf("builder holds %d nodes, want %d", m.b.Size(), len(m.present))
	}
	return add, secs, err
}

// quality fails each node of the maintained graph with probability
// fail, runs n seeded searches over the survivors and revives the
// failed nodes: the §6 Figure 7 measurement of a heuristic-built
// network.
// While the nodes are down, failed (when non-nil) gets the search
// pairs; quality returns the model and the failure injection's wall
// seconds.
func (m *maintainer) quality(fail float64, n int, root *rng.Source, tr *tracer, rep *report, failed func(g *graph.Graph, pairs []pair)) (searchModel, float64) {
	g := m.b.Graph()
	var model searchModel
	var crashed []metric.Point
	var err error
	inject := tr.do("failure.FailNodesProb", func() {
		_, err = failure.FailNodesProb(g, fail, root.Derive(4))
	})
	if err != nil {
		rep.fail("fail nodes: %v", err)
		return model, inject
	}
	for _, p := range m.present {
		if !g.Alive(p) {
			crashed = append(crashed, p)
		}
	}
	defer func() {
		for _, p := range crashed {
			g.Revive(p)
		}
	}()
	pairs, err := drawPairs(livePoints(g), root.Derive(5), n)
	if err != nil {
		rep.fail("quality pairs: %v", err)
		return model, inject
	}
	router := route.New(g, searchOptions)
	src := root.Derive(6)
	tr.do("bench.quality_searches", func() {
		for _, p := range pairs {
			res, err := router.Route(src, p.from, p.to)
			rep.attempted++
			checkRoute(rep, res, err, p)
			model.record(res)
		}
	})
	if failed != nil {
		failed(g, pairs)
	}
	return model, inject
}

func measureMaintain(cfg runConfig, rep *report) {
	sc := cfg.scale
	ring, err := metric.NewRing(1 << sc.MaintLg)
	if err != nil {
		rep.fail("space: %v", err)
		return
	}
	root := rng.New(cfg.seed)
	m, ok := repeatSetup(sc, rep, func() (*maintainer, error) {
		m, _, err := newMaintainer(ring, sc.MaintLinks, ring.Size()/2, root, nil)
		return m, err
	})
	if !ok {
		return
	}
	// Maintenance runs until the time is up; after exactly
	// MaintModelOps calls the loop pauses for the quality searches, so
	// the model metrics see the same graph on every machine.
	var model searchModel
	secs := make([]float64, 0, 1<<18)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < sc.MaintModelOps || time.Now().Before(deadline); i++ {
		if i == sc.MaintModelOps {
			model, _ = m.quality(sc.MaintFail, sc.MaintSearches, root, nil, rep, nil)
		}
		_, d, err := m.step(nil)
		secs = append(secs, d)
		rep.attempted++
		if err != nil {
			rep.fail("maintenance call %d: %v", i, err)
			return
		}
	}
	if m.ops == sc.MaintModelOps {
		model, _ = m.quality(sc.MaintFail, sc.MaintSearches, root, nil, rep, nil)
	}
	reportCalls(rep, secs, [3]string{"maint_ops_per_s", "maint_p50_us", "maint_p99_us"})
	model.report(rep)
	rep.metrics["peak_rss_mb"] = peakRSSMB()
}

func tracedMaintain(cfg runConfig, rep *report, tr *tracer) {
	sc := cfg.scale
	ring, err := metric.NewRing(1 << sc.MaintLg)
	if err != nil {
		rep.fail("space: %v", err)
		return
	}
	root := rng.New(cfg.seed)
	base := heapInUse()
	var m *maintainer
	var grow float64
	tr.do("bench.setup", func() { m, grow, err = newMaintainer(ring, sc.MaintLinks, ring.Size()/2, root, tr) })
	if err != nil {
		rep.fail("set-up: %v", err)
		return
	}
	rep.attempted++
	rep.metrics["graph.bytes_per_node"] = float64(heapInUse()-base) / float64(ring.Size())
	rep.metrics["construct.grow_s"] = grow
	probeMetric(ring, cfg.seed, sc, tr, rep)

	// The traced maintenance calls, then the quality searches, with the
	// route decomposition over the same failed graph they saw.
	constructCalls(m, sc.MaintModelOps, tr, rep)
	g := m.b.Graph()
	probeGraph(g, tr, rep)
	_, inject := m.quality(sc.MaintFail, sc.MaintSearches, root, tr, rep, func(g *graph.Graph, pairs []pair) {
		n := min(sc.TracedSearches, len(pairs))
		rep.metrics["telemetry.overhead_frac"], rep.metrics["route.failed_frac"] = routeDecomposition(g, pairs[:n], cfg.seed, tr, rep)
	})
	rep.metrics["failure.inject_s"] = inject

	// The ideal graph of the same shape is the paper's Figure 7
	// counterpart and the graph layer's build probe.
	rep.metrics["graph.build_s"] = tr.do("graph.BuildIdeal", func() {
		_, err = graph.BuildIdeal(ring, graph.PaperConfig(sc.MaintLinks), root.Derive(7))
	})
	if err != nil {
		rep.fail("ideal build: %v", err)
	}
	probeEngine(g, cfg.seed, tr, rep)
}

// constructCalls makes n traced maintenance calls and reports the
// median Add and Remove wall times.
func constructCalls(m *maintainer, n int, tr *tracer, rep *report) {
	var adds, removes []float64
	for i := 0; i < n; i++ {
		add, d, err := m.step(tr)
		rep.attempted++
		if err != nil {
			rep.fail("maintenance call %d: %v", i, err)
			return
		}
		if add {
			adds = append(adds, d*1e6)
		} else {
			removes = append(removes, d*1e6)
		}
	}
	rep.metrics["construct.add_us"] = quantile(adds, 0.5)
	rep.metrics["construct.remove_us"] = quantile(removes, 0.5)
}

// probeConstruct measures the construct layer on a workload that does
// not use it: ConstructProbe points grown over the workload's space
// with ℓ links, then as many alternating maintenance calls.
func probeConstruct(space metric.Space, links int, seed uint64, sc scale, tr *tracer, rep *report) {
	grow := min(sc.ConstructProbe, space.Size()/2)
	m, d, err := newMaintainer(space, links, grow, rng.New(seed).Derive(70), tr)
	rep.attempted++
	if err != nil {
		rep.fail("construct probe: %v", err)
		return
	}
	rep.metrics["construct.grow_s"] = d
	constructCalls(m, grow, tr, rep)
}
