package graph_test

import (
	"sync"
	"testing"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
)

// Reads never write: several goroutines route over one graph whose
// churned nodes are still stale, each search must match the same
// search run alone, and settling afterwards changes no result. Run
// under -race this proves that enumerating a stale node touches no
// shared state.
func TestChurnedGraphConcurrentRouting(t *testing.T) {
	const n = 1 << 11
	ring, err := metric.NewRing(n)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(41)
	g, err := graph.BuildIdeal(ring, graph.PaperConfig(11), src.Derive(1))
	if err != nil {
		t.Fatal(err)
	}
	// Churn a slice of the ring without settling: departures, arrivals
	// and link redirects leave their nodes stale.
	churn := src.Derive(2)
	for i := 0; i < 200; i++ {
		p := metric.Point(churn.Intn(n))
		switch {
		case i%4 == 0 && g.Exists(p):
			if err := g.RemoveNode(p); err != nil {
				t.Fatal(err)
			}
		case i%4 == 1 && !g.Exists(p):
			if err := g.AddNode(p); err != nil {
				t.Fatal(err)
			}
		case g.Exists(p) && len(g.Long(p)) > 0:
			if to := metric.Point(churn.Intn(n)); to != p {
				if err := g.ReplaceLong(p, churn.Intn(len(g.Long(p))), to); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := failure.FailNodesProb(g, 0.3, src.Derive(3)); err != nil {
		t.Fatal(err)
	}
	if g.StaleCount() == 0 {
		t.Fatal("churn left no stale node; the test is vacuous")
	}
	var live []metric.Point
	for i := 0; i < n; i++ {
		if g.Alive(metric.Point(i)) {
			live = append(live, metric.Point(i))
		}
	}
	pairs := make([][2]metric.Point, 400)
	pick := src.Derive(4)
	for i := range pairs {
		pairs[i] = [2]metric.Point{live[pick.Intn(len(live))], live[pick.Intn(len(live))]}
	}
	router := route.New(g, route.Options{DeadEnd: route.Backtrack})
	routeAll := func() []route.Result {
		out := make([]route.Result, len(pairs))
		for i, p := range pairs {
			res, err := router.Route(rng.New(uint64(i)), p[0], p[1])
			if err != nil {
				t.Error(err)
			}
			out[i] = res
		}
		return out
	}
	stale := g.StaleCount()
	const workers = 4
	got := make([][]route.Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = routeAll()
		}(w)
	}
	wg.Wait()
	want := routeAll()
	if n := g.StaleCount(); n != stale {
		t.Fatalf("reads changed the stale count from %d to %d", stale, n)
	}
	g.Settle()
	settled := routeAll()
	for i := range pairs {
		for w := 0; w < workers; w++ {
			if got[w][i].Hops != want[i].Hops || got[w][i].Delivered != want[i].Delivered {
				t.Fatalf("worker %d, search %d: %+v, alone %+v", w, i, got[w][i], want[i])
			}
		}
		if settled[i].Hops != want[i].Hops || settled[i].Delivered != want[i].Delivered || settled[i].Backtracks != want[i].Backtracks {
			t.Fatalf("search %d after settling %d stale nodes: %+v, before %+v", i, stale, settled[i], want[i])
		}
	}
}
