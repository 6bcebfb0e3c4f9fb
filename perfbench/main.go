// Command perfbench is the repository's benchmark: four workloads over
// the routing stack (paper-search, paper-maintain, knee-sweep,
// churn-pit-sharded), each generated from a seed, timed from outside
// the library, checked for correctness, and reported as one JSON line.
//
//	go build -o perfbench . && ./perfbench -workload paper-search -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the run measures the end-to-end metrics (tracing off);
// with -trace 1 it is the separate traced run that decomposes the same
// workload into per-layer metrics, records spans around every layer
// call and writes them under -out. BENCHMARK.json at the repository
// root lists the metrics and the workloads; metric_map.json in this
// directory says what each metric means on each workload and which
// end-to-end metric each per-layer metric should move.
//
// BENCHMARK.json runs three of the workloads. knee-sweep stays runnable
// but out of it: its sweep time and service rate move across seeds by
// more than a benchmark bound may tolerate, because each seed places
// the knee and the overload differently (metric_map.json gives the
// measured spread).
//
// Run it from the repository root with bash perfbench/run.sh, which
// builds the binary under .bench_build/ and passes its arguments on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a measured (-trace 0) run reports, on every
// workload. Each workload maps them onto its own operation (a search, a
// maintenance call, a simulated run; see metric_map.json).
// They are the figures that hold steady across seeds: the seed-bound
// model figures (failed fraction, virtual-time p99, knee rate,
// membership lag) are printed by name and reported per layer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"mean_hops", "hops"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced (-trace 1) run reports, on every
// workload. Layers a workload bypasses are measured by a probe on the
// workload's own space and graph; workload-specific counters read 0
// where the workload has no such thing (membership lag without churn).
var perLayer = []metricDef{
	{"metric.sample_ns", "ns"},
	{"metric.distance_ns", "ns"},
	{"metric.self_s", "s"},
	{"graph.build_s", "s"},
	{"graph.bytes_per_node", "B"},
	{"graph.neighbor_ns", "ns"},
	{"graph.neighbors_per_node", "count"},
	{"graph.self_s", "s"},
	{"failure.inject_s", "s"},
	{"failure.churn_schedule_s", "s"},
	{"failure.self_s", "s"},
	{"construct.grow_s", "s"},
	{"construct.add_us", "us"},
	{"construct.remove_us", "us"},
	{"construct.self_s", "s"},
	{"route.ns_per_hop", "ns"},
	{"route.call_p99_us", "us"},
	{"route.allocs_per_search", "count"},
	{"route.hops", "count"},
	{"route.backtracks", "count"},
	{"route.useful_hop_frac", "frac"},
	{"route.failed_frac", "frac"},
	{"route.replay_s", "s"},
	{"route.self_s", "s"},
	{"load.generate_s", "s"},
	{"load.latency_p99_ticks", "ticks"},
	{"load.self_s", "s"},
	{"engine.run_s", "s"},
	{"engine.events", "count"},
	{"engine.ns_per_event", "ns"},
	{"engine.alloc_bytes_per_event", "B"},
	{"engine.max_queue_depth", "count"},
	{"engine.windows", "count"},
	{"engine.drain_s", "s"},
	{"engine.barrier_wait_frac", "frac"},
	{"engine.serial_s", "s"},
	{"engine.shard_imbalance", "ratio"},
	{"engine.handoffs", "count"},
	{"engine.occupancy_mean_events", "count"},
	{"engine.shard_speedup", "ratio"},
	{"engine.suppressed_frac", "frac"},
	{"engine.pit_expired_frac", "frac"},
	{"engine.strand_drop_frac", "frac"},
	{"engine.gossip_per_change", "ratio"},
	{"engine.membership_lag_ticks", "ticks"},
	{"engine.self_s", "s"},
	{"telemetry.overhead_frac", "frac"},
}

// runConfig is one invocation: which workload, its seed and scale, how
// long to measure, and where traced runs write their spans.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	scale    scale
}

// workload is one named benchmark workload: measure runs it with
// tracing off, traced runs the per-layer decomposition.
type workload struct {
	name    string
	measure func(cfg runConfig, rep *report)
	traced  func(cfg runConfig, rep *report, tr *tracer)
}

var workloads = []workload{
	{"paper-search", measureSearch, tracedSearch},
	{"paper-maintain", measureMaintain, tracedMaintain},
	{"knee-sweep", measureKnee, tracedKnee},
	{"churn-pit-sharded", measureChurn, tracedChurn},
}

// report accumulates one run's operation counts, failures and metrics.
// named holds the workload's own names for its end-to-end figures
// (searches_per_s, sweep_s, knee_rate, ...), printed beside the
// contract metrics.
type report struct {
	attempted int
	failed    int
	errors    []string
	metrics   map[string]float64
	named     []namedValue
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// name records one workload-named figure.
func (r *report) name(name string, value float64, unit string) {
	r.named = append(r.named, namedValue{name, value, unit})
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// maxLoggedErrors bounds how many failure messages a run keeps.
const maxLoggedErrors = 20

// fail counts one failed operation: a call that returned an error or a
// result that failed a correctness check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errors) < maxLoggedErrors {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

// check fails the run unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// run executes one invocation, prints its metrics and result line to w,
// and returns the result. A failed check still produces a result, with
// correct set to false.
func run(cfg runConfig, w io.Writer) (result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		names := make([]string, len(workloads))
		for i, x := range workloads {
			names[i] = x.name
		}
		return result{}, fmt.Errorf("unknown workload %q (one of %v)", cfg.workload, names)
	}
	prov := newProvenance(cfg)
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "provenance %s\n", provJSON)

	rep := newReport()
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		tr := newTracer(fmt.Sprintf("%s/seed%d", cfg.workload, cfg.seed))
		wl.traced(cfg, rep, tr)
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "spans %d written to %s\n", len(tr.spans), path)
		selfs := tr.selfTimes()
		layers := make([]string, 0, len(selfs))
		for l := range selfs {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(w, "self %-10s %.6f s\n", l, selfs[l])
			if hasMetric(perLayer, l+".self_s") {
				rep.metrics[l+".self_s"] = selfs[l]
			}
		}
	} else {
		wl.measure(cfg, rep)
	}
	if rep.attempted < 1 {
		rep.fail("no operation attempted")
	}

	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			rep.fail("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = valueUnit{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-30s %.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range rep.named {
		fmt.Fprintf(w, "named  %-30s %.6g %s\n", n.Name, n.Value, n.Unit)
	}
	res.Failed = rep.failed
	res.Correct = rep.failed == 0
	for _, e := range rep.errors {
		fmt.Fprintf(w, "error %s\n", e)
	}
	if err := writeResultFile(cfg, prov, res, rep.named); err != nil {
		return result{}, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// writeResultFile stores the result with its provenance under
// cfg.out/results, one file per (workload, seed, trace).
func writeResultFile(cfg runConfig, prov provenance, res result, named []namedValue) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	body, err := json.MarshalIndent(struct {
		Provenance provenance   `json:"provenance"`
		Result     result       `json:"result"`
		Named      []namedValue `json:"named"`
	}{prov, res, named}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace))
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-search, paper-maintain, knee-sweep or churn-pit-sharded")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the measured loop runs")
	flag.IntVar(&trace, "trace", 0, "0: measured run (end-to-end metrics); 1: traced run (per-layer metrics)")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and result files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.scale = fullScale
	if !(cfg.seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
