package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// runTiny runs one workload at tiny scale and returns its result and
// printed output.
func runTiny(t *testing.T, name string, seed uint64, trace bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(runConfig{
		workload: name, seed: seed, seconds: 0.05, trace: trace,
		out: t.TempDir(), scale: tinyScale,
	}, &out)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d\n%s",
			name, seed, trace, res.Correct, res.Attempted, res.Failed, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	return last, out.String()
}

// checkPrinted fails unless every metric of defs is in the result with
// its unit and printed on its own line.
func checkPrinted(t *testing.T, name string, res result, printed string, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", name, d.name, m, d.unit)
		}
		if !strings.Contains(printed, fmt.Sprintf("metric %-30s ", d.name)) ||
			!strings.Contains(printed, " "+d.unit+"\n") {
			t.Errorf("%s: metric %s not printed with its unit", name, d.name)
		}
	}
}

// pick returns the named metric values of res.
func pick(res result, names ...string) []float64 {
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = res.Metrics[n].Value
	}
	return out
}

func equal(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deterministic are the model figures: a function of the seed alone.
var (
	deterministicE2E   = []string{"mean_hops"}
	deterministicNamed = []string{
		"failed_frac", "latency_p99_ticks", "knee_rate", "membership_lag_ticks",
		"load.knee_rate", "load.sweep_points",
	}
	deterministicLayer = []string{
		"route.failed_frac", "load.latency_p99_ticks",
		"engine.membership_lag_ticks", "route.hops", "route.backtracks", "engine.events",
	}
)

// named returns the values of the deterministic workload-named figures
// printed in printed, in deterministicNamed order (-1 where absent).
func named(t *testing.T, printed string) []float64 {
	t.Helper()
	vals := map[string]float64{}
	for _, line := range strings.Split(printed, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && f[0] == "named" {
			var v float64
			if _, err := fmt.Sscan(f[2], &v); err != nil {
				t.Fatalf("bad named line %q: %v", line, err)
			}
			vals[f[1]] = v
		}
	}
	out := make([]float64, len(deterministicNamed))
	for i, n := range deterministicNamed {
		v, ok := vals[n]
		if !ok {
			v = -1
		}
		out[i] = v
	}
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			a, printed := runTiny(t, w.name, 1, false)
			checkPrinted(t, w.name, a, printed, endToEnd)
			for _, d := range endToEnd {
				if a.Metrics[d.name].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
				}
			}
			b, printedB := runTiny(t, w.name, 1, false)
			c, printedC := runTiny(t, w.name, 2, false)
			x := append(pick(a, deterministicE2E...), named(t, printed)...)
			y := append(pick(b, deterministicE2E...), named(t, printedB)...)
			z := append(pick(c, deterministicE2E...), named(t, printedC)...)
			if !equal(x, y) {
				t.Errorf("%s: model figures differ across runs of one seed: %v vs %v", w.name, x, y)
			}
			if equal(x, z) {
				t.Errorf("%s: model figures identical for seeds 1 and 2: %v", w.name, x)
			}
			if equal(pick(a, deterministicE2E...), pick(c, deterministicE2E...)) {
				t.Errorf("%s: mean_hops identical for seeds 1 and 2", w.name)
			}

			ta, printed := runTiny(t, w.name, 1, true)
			checkPrinted(t, w.name, ta, printed, perLayer)
			if !strings.Contains(printed, "spans ") {
				t.Errorf("%s: traced run wrote no spans", w.name)
			}
			tb, printedB := runTiny(t, w.name, 1, true)
			tc, printedC := runTiny(t, w.name, 2, true)
			x = append(pick(ta, deterministicLayer...), named(t, printed)...)
			y = append(pick(tb, deterministicLayer...), named(t, printedB)...)
			z = append(pick(tc, deterministicLayer...), named(t, printedC)...)
			if !equal(x, y) {
				t.Errorf("%s: per-layer counts differ across runs of one seed: %v vs %v", w.name, x, y)
			}
			if equal(x, z) {
				t.Errorf("%s: per-layer counts identical for seeds 1 and 2: %v", w.name, x)
			}
		})
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "bench.outer", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "graph.inner", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "route.leaf", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "graph.second", Start: 50, End: 60},
	}}
	got := tr.selfTimes()
	want := map[string]float64{"bench": 60e-9, "graph": 30e-9, "route": 10e-9}
	for k, v := range want {
		if d := got[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self time of %s = %g, want %g", k, got[k], v)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(runConfig{workload: "nope", seconds: 1, out: t.TempDir(), scale: tinyScale}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
