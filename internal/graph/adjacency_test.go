package graph

import (
	"fmt"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// The neighbour-list contract: after any sequence of mutations, every
// settled list equals the reference enumeration element by element,
// its out-prefix equals the out-enumeration, the stale flags and the
// stale queue agree, and the enumeration itself still means what it
// always did (short neighbours, up long links to present nodes, valid
// in-links; InDegree counts the latter).

// adjacencySpace decodes a small space from sel: a line, a ring or a
// 2-D torus.
func adjacencySpace(sel, size byte) (metric.Space, error) {
	switch sel % 3 {
	case 0:
		return metric.NewLine(2 + int(size)%23)
	case 1:
		return metric.NewRing(2 + int(size)%23)
	default:
		return metric.NewTorus(2+int(size)%5, 2)
	}
}

// collect returns what an enumerator passes to its callback, in order.
func collect(each func(metric.Point, func(metric.Point)), p metric.Point) []metric.Point {
	var out []metric.Point
	each(p, func(q metric.Point) { out = append(out, q) })
	return out
}

// bruteForceNeighbors lists p's neighbours from first principles, in
// ascending point order: the nearest present point along each grid
// direction (a point two directions reach counts once), every up long
// link to a present point, and every up long link into p from another
// present node. It shares no code with the graph's enumerators.
func bruteForceNeighbors(g *Graph, p metric.Point) (out, in []metric.Point) {
	if !g.Exists(p) {
		return nil, nil
	}
	sp := g.Space()
	for axis := 1; axis <= sp.Dim(); axis++ {
		var short [2]metric.Point
		var found [2]bool
		for k, dir := range [2]int{-axis, +axis} {
			cur := p
			for {
				q, ok := sp.Step(cur, dir)
				if !ok || q == p {
					break
				}
				if g.Exists(q) {
					short[k], found[k] = q, true
					break
				}
				cur = q
			}
		}
		if found[0] {
			out = append(out, short[0])
		}
		if found[1] && (!found[0] || short[1] != short[0]) {
			out = append(out, short[1])
		}
	}
	for _, lk := range g.Long(p) {
		if lk.Up && g.Exists(lk.To) {
			out = append(out, lk.To)
		}
	}
	for i := 0; i < g.Size(); i++ {
		q := metric.Point(i)
		if q == p || !g.Exists(q) {
			continue
		}
		for _, lk := range g.Long(q) {
			if lk.To == p && lk.Up {
				in = append(in, q)
			}
		}
	}
	return sortedPoints(out), in
}

func sortedPoints(ps []metric.Point) []metric.Point {
	s := append([]metric.Point(nil), ps...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

func equalPoints(a, b []metric.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAdjacency returns the first violation of the contract on g.
func checkAdjacency(g *Graph) error {
	queued := map[int32]int{}
	for _, p := range g.stale {
		queued[p]++
	}
	for i := 0; i < g.Size(); i++ {
		p := metric.Point(i)
		stale := g.state[p]&stStale != 0
		if n := queued[int32(p)]; (stale && n != 1) || (!stale && n != 0) {
			return fmt.Errorf("node %d: stale flag %v, queued %d times", p, stale, n)
		}
		refOut := collect(g.refOut, p)
		ref := append(append([]metric.Point(nil), refOut...), collect(g.refIn, p)...)
		if !stale {
			l := g.nbrs[p]
			list := make([]metric.Point, len(l.pts))
			for k, q := range l.pts {
				list[k] = metric.Point(q)
			}
			if !equalPoints(list, ref) {
				return fmt.Errorf("node %d: settled list %v, reference %v", p, list, ref)
			}
			if int(l.out) > len(list) || !equalPoints(list[:l.out], refOut) {
				return fmt.Errorf("node %d: out-prefix of %v at %d, reference %v", p, list, l.out, refOut)
			}
		}
		if got := collect(g.ForEachNeighbor, p); !equalPoints(got, ref) {
			return fmt.Errorf("node %d (stale %v): ForEachNeighbor %v, reference %v", p, stale, got, ref)
		}
		if got := collect(g.ForEachOutNeighbor, p); !equalPoints(got, refOut) {
			return fmt.Errorf("node %d (stale %v): ForEachOutNeighbor %v, reference %v", p, stale, got, refOut)
		}
		wantOut, wantIn := bruteForceNeighbors(g, p)
		if got := sortedPoints(refOut); !equalPoints(got, wantOut) {
			return fmt.Errorf("node %d: out-neighbours %v, brute force %v", p, got, wantOut)
		}
		if got := sortedPoints(ref[len(refOut):]); !equalPoints(got, sortedPoints(wantIn)) {
			return fmt.Errorf("node %d: in-neighbours %v, brute force %v", p, got, sortedPoints(wantIn))
		}
		if d := g.InDegree(p); d != len(wantIn) {
			return fmt.Errorf("node %d: InDegree %d, brute force %d", p, d, len(wantIn))
		}
	}
	return nil
}

// runAdjacencyOps decodes data into a graph and a mutation sequence
// and checks the contract after every operation. data[0] picks the
// space, data[1] its size, data[2] the presence mask; then every three
// bytes are one operation.
func runAdjacencyOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) < 3 {
		return
	}
	sp, err := adjacencySpace(data[0], data[1])
	if err != nil {
		t.Fatal(err)
	}
	n := sp.Size()
	var g *Graph
	if holes := data[2]; holes%2 == 0 {
		g = New(sp)
	} else {
		present := make([]bool, n)
		src := rng.New(uint64(holes))
		for i := range present {
			present[i] = src.Bool(0.6)
		}
		present[int(holes)%n] = true
		if g, err = NewWithPresence(sp, present); err != nil {
			t.Fatal(err)
		}
	}
	if data[2]%4 < 2 {
		g.Settle()
	}
	if err := checkAdjacency(g); err != nil {
		t.Fatalf("initial graph: %v", err)
	}
	ops := data[3:]
	for step := 0; step+3 <= len(ops); step += 3 {
		kind, a, b := ops[step], ops[step+1], ops[step+2]
		p, q := metric.Point(int(a)%n), metric.Point(int(b)%n)
		slot := int(b) % 4
		var desc string
		switch kind % 8 {
		case 0:
			desc = fmt.Sprintf("AddLong(%d, %d)", p, q)
			_ = g.AddLong(p, q)
		case 1:
			desc = fmt.Sprintf("ReplaceLong(%d, %d, %d)", p, slot, q)
			_ = g.ReplaceLong(p, slot, q)
		case 2:
			desc = fmt.Sprintf("SetLongUp(%d, %d, %v)", p, slot, b%2 == 0)
			_ = g.SetLongUp(p, slot, b%2 == 0)
		case 3:
			desc = fmt.Sprintf("AddNode(%d)", p)
			_ = g.AddNode(p)
		case 4:
			desc = fmt.Sprintf("RemoveNode(%d)", p)
			_ = g.RemoveNode(p)
		case 5:
			desc = fmt.Sprintf("Fail(%d)", p)
			g.Fail(p)
		case 6:
			desc = fmt.Sprintf("Revive(%d)", p)
			g.Revive(p)
		default:
			desc = "Settle()"
			g.Settle()
		}
		if err := checkAdjacency(g); err != nil {
			t.Fatalf("%v, op %d %s: %v", sp, step/3, desc, err)
		}
	}
	g.Settle()
	if len(g.stale) != 0 {
		t.Fatalf("%d nodes stale after Settle", len(g.stale))
	}
	if err := checkAdjacency(g); err != nil {
		t.Fatalf("final Settle: %v", err)
	}
}

// TestAdjacencyMatchesReferenceUnderChurn drives random mutation
// sequences, with settles at random points, over lines, rings and
// tori, with and without presence holes.
func TestAdjacencyMatchesReferenceUnderChurn(t *testing.T) {
	src := rng.New(2024)
	for run := 0; run < 120; run++ {
		data := make([]byte, 3+3*150)
		for i := range data {
			data[i] = byte(src.Intn(256))
		}
		data[0] = byte(run) // cycle through the three spaces
		t.Run(fmt.Sprint(run), func(t *testing.T) { runAdjacencyOps(t, data) })
	}
}

// The builders settle before they return.
func TestBuildersSettle(t *testing.T) {
	ring := mustRing(t, 64)
	present := make([]bool, 64)
	for i := range present {
		present[i] = i%3 != 0
	}
	ideal, err := BuildIdeal(ring, PaperConfig(4), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	holes, err := BuildIdealWithPresence(ring, PaperConfig(4), present, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	det, err := BuildDeterministic(ring, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	powers, err := BuildDeterministicPowers(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"ideal": ideal, "presence": holes, "deterministic": det, "powers": powers} {
		if len(g.stale) != 0 {
			t.Errorf("%s: %d nodes stale after build", name, len(g.stale))
		}
		if err := checkAdjacency(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func FuzzGraphAdjacency(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 1, 5, 7, 0, 0})
	f.Add([]byte{1, 12, 1, 0, 2, 9, 4, 2, 0, 3, 4, 0, 7, 0, 0})
	f.Add([]byte{2, 2, 3, 0, 1, 7, 1, 1, 4, 2, 1, 1, 3, 1, 0, 7, 0, 0})
	f.Add([]byte{1, 20, 2, 0, 3, 11, 0, 11, 3, 1, 3, 5, 2, 3, 4, 7, 0, 0, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Longer inputs are rejected outright rather than truncated: the
		// fuzzer would otherwise spend its budget minimizing bytes the
		// target never reads.
		if len(data) > 3+3*64 {
			return
		}
		runAdjacencyOps(t, data)
	})
}

// Enumeration and settling allocate nothing: a settled node reads its
// list, a stale node runs the reference enumerator in place, and a
// rebuild whose degree did not grow reuses the node's storage.
func TestNeighborEnumerationAllocs(t *testing.T) {
	g, err := BuildIdeal(mustRing(t, 1<<10), PaperConfig(10), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	count := func(metric.Point) { visits++ }
	if avg := testing.AllocsPerRun(100, func() { g.ForEachNeighbor(17, count) }); avg != 0 {
		t.Errorf("ForEachNeighbor on a settled node allocates %.2f, want 0", avg)
	}
	// Redirecting a link to its own target leaves every degree as it
	// was but marks both endpoints stale.
	const p = 17
	to := g.Long(p)[0].To
	if err := g.ReplaceLong(p, 0, to); err != nil {
		t.Fatal(err)
	}
	if g.state[p]&stStale == 0 {
		t.Fatal("ReplaceLong left its node settled")
	}
	if avg := testing.AllocsPerRun(100, func() { g.ForEachNeighbor(p, count) }); avg != 0 {
		t.Errorf("ForEachNeighbor on a stale node allocates %.2f, want 0", avg)
	}
	g.Settle()
	resettle := func() {
		if err := g.ReplaceLong(p, 0, to); err != nil {
			t.Fatal(err)
		}
		g.Settle()
	}
	if avg := testing.AllocsPerRun(100, resettle); avg != 0 {
		t.Errorf("settling a node whose degree did not grow allocates %.2f, want 0", avg)
	}
	if visits == 0 {
		t.Fatal("no neighbour visited; the pins are vacuous")
	}
}

// On lines and rings ShortNeighbor walks the presence bytes directly;
// it must agree with the walk through the space's grid steps for every
// point and direction, invalid ones included.
func TestShortNeighborMatchesGridWalk(t *testing.T) {
	src := rng.New(8)
	for _, n := range []int{1, 2, 3, 17} {
		line, err := metric.NewLine(n)
		if err != nil {
			t.Fatal(err)
		}
		ring, err := metric.NewRing(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range []metric.Space{line, ring} {
			present := make([]bool, n)
			for i := range present {
				present[i] = src.Bool(0.4)
			}
			present[0] = true
			g, err := NewWithPresence(sp, present)
			if err != nil {
				t.Fatal(err)
			}
			for p := metric.Point(-2); p < metric.Point(n+2); p++ {
				for _, dir := range []int{-2, -1, 1, 2} {
					q, ok := g.ShortNeighbor(p, dir)
					wq, wok := g.scanAxis(p, dir)
					if q != wq || ok != wok {
						t.Errorf("%T n=%d: ShortNeighbor(%d, %d) = %d, %v; grid walk %d, %v", sp, n, p, dir, q, ok, wq, wok)
					}
				}
			}
		}
	}
}
