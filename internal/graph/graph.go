// Package graph implements the paper's overlay structure: nodes embedded
// at the grid points of a metric space (the 1-D line and ring of the
// paper's analysis, or a d-dimensional torus per §7), each connected to
// its grid neighbours (short links, always present per §4.3.3 — two per
// axis) and to a set of long-distance links drawn from a configurable
// distribution.
//
// The graph is a value-type store of links plus liveness bookkeeping;
// the routing algorithms live in package route, failure models in
// package failure, and the dynamic construction heuristic of §5 in
// package construct.
//
// # Neighbour lists and the stale/settle contract
//
// Routing scans a node's neighbours on every hop, so each node keeps
// its ForEachNeighbor enumeration materialized as a flat list of
// points, and the liveness flags live in one byte per point apart from
// the link records. The list order is behaviour: greedy routing keeps
// the first strictly better neighbour, so the list holds exactly the
// order of the reference enumerator that fills it.
//
// Every mutation that can change a list (AddLong, ReplaceLong,
// SetLongUp, AddNode, RemoveNode) marks the affected nodes stale.
// Reads never write: a stale node is enumerated by the reference
// enumerator itself, so any number of goroutines may read a graph that
// holds stale nodes, as long as nobody mutates it meanwhile. Settle
// rebuilds the stale lists in one pass; only the goroutine that owns
// the graph calls it, with no reader running. The builders in this
// package settle before they return.
package graph

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
)

// Link is a directed long-distance link. Up distinguishes a link that
// exists in the overlay from one whose underlying connection has failed
// (§4.3.3's independent link-failure model). Seq records creation order
// for the "replace oldest link" strategy of §5.
type Link struct {
	To  metric.Point
	Up  bool
	Seq int64
}

// Per-point flags of Graph.state.
const (
	stExists    uint8 = 1 << iota // the point hosts a node at all (§4.3.4.1 binomial model)
	stFailed                      // the node crashed after the graph was built
	stMalicious                   // Byzantine: alive but silently drops messages
	stStale                       // the node's neighbour list is out of date
)

type node struct {
	long []Link
	// rev indexes incoming long links: each entry names a node whose
	// long link at the given slot points here. Entries can go stale
	// (the slot redirected elsewhere); readers re-validate against the
	// forward link (inLink), so staleness is harmless.
	rev []revRef
}

// revRef locates one incoming long link: nodes[from].long[idx].
type revRef struct {
	from int32
	idx  int32
}

// nbrList is a node's materialized ForEachNeighbor enumeration;
// pts[:out] is its ForEachOutNeighbor enumeration.
type nbrList struct {
	pts []int32
	out int32
}

// Graph is an overlay network over a metric space of any dimension.
// It is not safe for concurrent mutation; experiment code builds one
// graph per goroutine. Concurrent reads are safe while no goroutine
// mutates or settles the graph, stale neighbour lists included (see
// the package comment).
type Graph struct {
	space      metric.Space
	nodes      []node
	state      []uint8 // st* flags, one byte per point
	nbrs       []nbrList
	stale      []int32 // points whose stStale flag is set, in marking order
	aliveCount int
	seq        int64
	// nearestMark/nearestQueue are reusable scratch for the d >= 2
	// NearestExisting BFS (a point is visited when its mark equals
	// nearestGen). NearestExisting is §5 construction machinery and
	// shares the Graph's single-goroutine mutation contract.
	nearestMark  []uint32
	nearestQueue []metric.Point
	nearestGen   uint32
}

// newGraph returns a graph over space with no node present and every
// point stale, so the first Settle fills every list.
func newGraph(space metric.Space) *Graph {
	n := space.Size()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: space of %d points exceeds the int32 point range", n))
	}
	g := &Graph{
		space: space,
		nodes: make([]node, n),
		state: make([]uint8, n),
		nbrs:  make([]nbrList, n),
		stale: make([]int32, n),
	}
	for i := range g.state {
		g.state[i] = stStale
		g.stale[i] = int32(i)
	}
	return g
}

// New returns a graph over space in which every grid point hosts a node
// and no long links exist yet.
func New(space metric.Space) *Graph {
	g := newGraph(space)
	for i := range g.state {
		g.state[i] |= stExists
	}
	g.aliveCount = len(g.nodes)
	return g
}

// NewWithPresence returns a graph in which point i hosts a node exactly
// when present[i] is true (the binomially-distributed node model of
// §4.3.4.1). It returns an error if len(present) != space.Size() or if
// no point is present.
func NewWithPresence(space metric.Space, present []bool) (*Graph, error) {
	if len(present) != space.Size() {
		return nil, fmt.Errorf("graph: presence mask has %d entries for space of size %d",
			len(present), space.Size())
	}
	g := newGraph(space)
	for i, p := range present {
		if p {
			g.state[i] |= stExists
			g.aliveCount++
		}
	}
	if g.aliveCount == 0 {
		return nil, fmt.Errorf("graph: presence mask admits no nodes")
	}
	return g, nil
}

// Space returns the underlying metric space.
func (g *Graph) Space() metric.Space { return g.space }

// Size returns the number of grid points (present or not).
func (g *Graph) Size() int { return g.space.Size() }

// Exists reports whether point p hosts a node (failed or not).
func (g *Graph) Exists(p metric.Point) bool {
	return g.inRange(p) && g.state[p]&stExists != 0
}

// Alive reports whether point p hosts a live node.
func (g *Graph) Alive(p metric.Point) bool {
	return g.inRange(p) && g.state[p]&(stExists|stFailed) == stExists
}

// AliveCount returns the number of live nodes.
func (g *Graph) AliveCount() int { return g.aliveCount }

func (g *Graph) inRange(p metric.Point) bool { return p >= 0 && int(p) < len(g.nodes) }

// Fail marks the node at p as crashed. Failing an absent or already
// failed node is a no-op. It returns true if the node transitioned from
// alive to failed.
func (g *Graph) Fail(p metric.Point) bool {
	if !g.Alive(p) {
		return false
	}
	g.state[p] |= stFailed
	g.aliveCount--
	return true
}

// Revive clears the failed flag of the node at p. It returns true if
// the node transitioned from failed to alive.
func (g *Graph) Revive(p metric.Point) bool {
	if !g.inRange(p) || g.state[p]&(stExists|stFailed) != stExists|stFailed {
		return false
	}
	g.state[p] &^= stFailed
	g.aliveCount++
	return true
}

// SetMalicious marks the live node at p as Byzantine: it participates
// in the overlay (others link and route to it) but silently drops every
// message it receives. Used by the §7-motivated robustness extension.
func (g *Graph) SetMalicious(p metric.Point, malicious bool) error {
	if !g.Alive(p) {
		return fmt.Errorf("graph: SetMalicious(%d): not a live node", p)
	}
	if malicious {
		g.state[p] |= stMalicious
	} else {
		g.state[p] &^= stMalicious
	}
	return nil
}

// Malicious reports whether p hosts a Byzantine node.
func (g *Graph) Malicious(p metric.Point) bool {
	return g.inRange(p) && g.state[p]&stMalicious != 0
}

// markStale flags p's neighbour list as out of date.
func (g *Graph) markStale(p metric.Point) {
	if g.state[p]&stStale == 0 {
		g.state[p] |= stStale
		g.stale = append(g.stale, int32(p))
	}
}

// AddLong appends a long-distance link from p to to. Self-links are
// rejected with an error; duplicate links are permitted (the paper's
// randomized strategy samples with replacement, Theorem 13).
func (g *Graph) AddLong(p, to metric.Point) error {
	if err := g.checkLink(p, to); err != nil {
		return err
	}
	g.appendLong(p, to)
	g.nodes[to].rev = append(g.nodes[to].rev, revRef{from: int32(p), idx: int32(len(g.nodes[p].long) - 1)})
	g.markStale(p)
	g.markStale(to)
	return nil
}

// checkLink rejects a long link p->to that is out of range or a
// self-link.
func (g *Graph) checkLink(p, to metric.Point) error {
	if !g.inRange(p) || !g.inRange(to) {
		return fmt.Errorf("graph: link %d->%d out of range [0,%d)", p, to, len(g.nodes))
	}
	if p == to {
		return fmt.Errorf("graph: self-link at %d", p)
	}
	return nil
}

// appendLong appends an up link p->to with a fresh sequence number,
// leaving the reverse index and the neighbour lists to the caller.
func (g *Graph) appendLong(p, to metric.Point) {
	g.seq++
	g.nodes[p].long = append(g.nodes[p].long, Link{To: to, Up: true, Seq: g.seq})
}

// indexRev rebuilds every reverse index from the forward links in one
// (point, slot) pass, each at exact capacity. The builders append
// their links in that same order, so the result equals what AddLong
// would have built link by link.
func (g *Graph) indexRev() {
	counts := make([]int32, len(g.nodes))
	total := 0
	for p := range g.nodes {
		for _, lk := range g.nodes[p].long {
			if lk.Up {
				counts[lk.To]++
				total++
			}
		}
	}
	arena := make([]revRef, total)
	for p := range g.nodes {
		c := int(counts[p])
		g.nodes[p].rev, arena = arena[:0:c], arena[c:]
	}
	for p := range g.nodes {
		for i, lk := range g.nodes[p].long {
			if lk.Up {
				g.nodes[lk.To].rev = append(g.nodes[lk.To].rev, revRef{from: int32(p), idx: int32(i)})
			}
		}
		g.markStale(metric.Point(p))
	}
}

// Long returns the long-link slice of p. The caller must not mutate it;
// use ReplaceLong or SetLongUp for modifications.
func (g *Graph) Long(p metric.Point) []Link {
	if !g.inRange(p) {
		return nil
	}
	return g.nodes[p].long
}

// ReplaceLong redirects p's i-th long link to point to, stamping a fresh
// sequence number. It is the primitive behind §5's link-redirection
// heuristic.
func (g *Graph) ReplaceLong(p metric.Point, i int, to metric.Point) error {
	if !g.inRange(p) || i < 0 || i >= len(g.nodes[p].long) {
		return fmt.Errorf("graph: ReplaceLong(%d, %d) out of range", p, i)
	}
	if p == to || !g.inRange(to) {
		return fmt.Errorf("graph: invalid redirect target %d for node %d", to, p)
	}
	ref := revRef{from: int32(p), idx: int32(i)}
	if old := g.nodes[p].long[i].To; g.dropRev(old, ref) {
		g.markStale(old)
	}
	g.seq++
	g.nodes[p].long[i] = Link{To: to, Up: true, Seq: g.seq}
	g.nodes[to].rev = append(g.nodes[to].rev, ref)
	g.markStale(p)
	g.markStale(to)
	return nil
}

// dropRev removes one reverse-index entry, if present, and reports
// whether it did.
func (g *Graph) dropRev(at metric.Point, ref revRef) bool {
	if !g.inRange(at) {
		return false
	}
	rev := g.nodes[at].rev
	for i, r := range rev {
		if r == ref {
			rev[i] = rev[len(rev)-1]
			g.nodes[at].rev = rev[:len(rev)-1]
			return true
		}
	}
	return false
}

// SetLongUp sets the Up flag of p's i-th long link (link-failure
// injection), keeping the reverse index in step: only up links are
// indexed.
func (g *Graph) SetLongUp(p metric.Point, i int, up bool) error {
	if !g.inRange(p) || i < 0 || i >= len(g.nodes[p].long) {
		return fmt.Errorf("graph: SetLongUp(%d, %d) out of range", p, i)
	}
	lk := &g.nodes[p].long[i]
	if lk.Up == up {
		return nil
	}
	lk.Up = up
	ref := revRef{from: int32(p), idx: int32(i)}
	if up {
		g.nodes[lk.To].rev = append(g.nodes[lk.To].rev, ref)
	} else {
		g.dropRev(lk.To, ref)
	}
	g.markStale(p)
	g.markStale(lk.To)
	return nil
}

// ShortNeighbor returns the nearest present node along the signed axis
// direction dir (±1..±Dim) from p, skipping absent grid points, along
// with whether one exists. Short links bind each node to the closest
// *present* node along every grid direction, so in the
// binomial-presence model the short chain skips holes.
func (g *Graph) ShortNeighbor(p metric.Point, dir int) (metric.Point, bool) {
	if g.inRange(p) {
		switch g.space.(type) {
		case *metric.Ring:
			return g.scan1D(p, dir, true)
		case *metric.Line:
			return g.scan1D(p, dir, false)
		}
	}
	return g.scanAxis(p, dir)
}

// scan1D is ShortNeighbor on a ring (wrap) or a line, walking the
// presence bytes directly: §5 construction and every settle call
// ShortNeighbor across the gaps of a sparse ring.
func (g *Graph) scan1D(p metric.Point, dir int, wrap bool) (metric.Point, bool) {
	if dir != 1 && dir != -1 {
		return 0, false
	}
	n := len(g.state)
	q := int(p)
	for i := 1; i < n; i++ {
		q += dir
		if q < 0 || q == n {
			if !wrap {
				return 0, false // line boundary
			}
			q = (q + n) % n
		}
		if g.state[q]&stExists != 0 {
			return metric.Point(q), true
		}
	}
	return 0, false // wrapped all the way around
}

// scanAxis is ShortNeighbor through the space's grid steps.
func (g *Graph) scanAxis(p metric.Point, dir int) (metric.Point, bool) {
	cur := p
	for i := 0; i < g.Size(); i++ {
		q, ok := g.space.Step(cur, dir)
		if !ok {
			return 0, false // line boundary
		}
		if q == p {
			return 0, false // wrapped all the way around
		}
		if g.state[q]&stExists != 0 {
			return q, true
		}
		cur = q
	}
	return 0, false
}

// ForEachOutNeighbor invokes fn for every outgoing overlay neighbour of
// p: the short neighbours — two per axis, always up, per the paper's
// assumption that immediate links never fail — and every long link that
// is up. fn receives the neighbouring point; absent points never
// appear. Neighbour liveness is NOT filtered here — routing decides
// what to do with dead neighbours. This is the directed model analyzed
// in §4.
func (g *Graph) ForEachOutNeighbor(p metric.Point, fn func(q metric.Point)) {
	if !g.inRange(p) {
		return
	}
	if g.state[p]&stStale != 0 {
		g.refOut(p, fn)
		return
	}
	l := &g.nbrs[p]
	for _, q := range l.pts[:l.out] {
		fn(metric.Point(q))
	}
}

// ForEachNeighbor invokes fn for every physical neighbour of p: the
// outgoing set of ForEachOutNeighbor plus every node holding an up long
// link INTO p. A long link is a network connection, and §5's protocol
// has link targets participate in link management, so both endpoints
// know each other; the §6 simulations route over this symmetric
// neighbour set. In-links can repeat out-links; fn may be called more
// than once per point (greedy selection is idempotent, so callers don't
// care).
func (g *Graph) ForEachNeighbor(p metric.Point, fn func(q metric.Point)) {
	if !g.inRange(p) {
		return
	}
	if g.state[p]&stStale != 0 {
		g.refOut(p, fn)
		g.refIn(p, fn)
		return
	}
	for _, q := range g.nbrs[p].pts {
		fn(metric.Point(q))
	}
}

// refOut is the reference enumeration of p's out-neighbours: short
// neighbours −/+ per axis, then up long links to present points in
// slot order. Settle fills the neighbour lists from it.
func (g *Graph) refOut(p metric.Point, fn func(q metric.Point)) {
	if g.state[p]&stExists == 0 {
		return
	}
	for axis := 1; axis <= g.space.Dim(); axis++ {
		neg, okN := g.ShortNeighbor(p, -axis)
		if okN {
			fn(neg)
		}
		if pos, okP := g.ShortNeighbor(p, +axis); okP && (!okN || pos != neg) {
			fn(pos)
		}
	}
	for _, lk := range g.nodes[p].long {
		if lk.Up && g.state[lk.To]&stExists != 0 {
			fn(lk.To)
		}
	}
}

// refIn is the reference enumeration of p's in-neighbours: the holders
// of valid in-links, in reverse-index order.
func (g *Graph) refIn(p metric.Point, fn func(q metric.Point)) {
	if g.state[p]&stExists == 0 {
		return
	}
	for _, ref := range g.nodes[p].rev {
		if g.inLink(p, ref) {
			fn(metric.Point(ref.from))
		}
	}
}

// inLink reports whether ref is a live in-link of p: the slot it names
// belongs to a present node other than p and still holds an up link to
// p.
func (g *Graph) inLink(p metric.Point, ref revRef) bool {
	from := metric.Point(ref.from)
	if !g.inRange(from) || g.state[from]&stExists == 0 || from == p {
		return false
	}
	long := g.nodes[from].long
	return int(ref.idx) < len(long) && long[ref.idx].To == p && long[ref.idx].Up
}

// degreeBound is an upper bound on the length of p's neighbour list
// that needs no link validation: two short neighbours per axis plus
// every long slot and every reverse-index entry.
func (g *Graph) degreeBound(p int32) int {
	if g.state[p]&stExists == 0 {
		return 0
	}
	return 2*g.space.Dim() + len(g.nodes[p].long) + len(g.nodes[p].rev)
}

// Settle rebuilds the neighbour list of every stale node from the
// reference enumerator. A list that may outgrow its capacity is carved
// afresh, at its degree bound, from one arena shared by the pass;
// every other rebuild reuses the node's storage. Only the goroutine
// that owns the graph may call Settle, and no reader may run
// concurrently.
func (g *Graph) Settle() {
	if len(g.stale) == 0 {
		return
	}
	need := 0
	for _, p := range g.stale {
		if b := g.degreeBound(p); cap(g.nbrs[p].pts) < b {
			need += b
		}
	}
	arena := make([]int32, need)
	for _, p32 := range g.stale {
		l := &g.nbrs[p32]
		pts := l.pts[:0]
		if b := g.degreeBound(p32); cap(pts) < b {
			pts, arena = arena[:0:b], arena[b:]
		}
		add := func(q metric.Point) { pts = append(pts, int32(q)) }
		p := metric.Point(p32)
		g.refOut(p, add)
		l.out = int32(len(pts))
		g.refIn(p, add)
		l.pts = pts
		g.state[p32] &^= stStale
	}
	g.stale = g.stale[:0]
}

// NearestExisting returns the present point closest to target (the
// "basin of attraction" rule of §5: a link aimed at an absent point
// connects to the nearest present one). In one dimension ties break
// toward the lower side; in higher dimensions toward the first point
// reached by a breadth-first expansion that scans −axis before +axis.
// ok is false only if no node exists at all.
func (g *Graph) NearestExisting(target metric.Point) (metric.Point, bool) {
	if !g.inRange(target) {
		return 0, false
	}
	if g.state[target]&stExists != 0 {
		return target, true
	}
	if g.space.Dim() == 1 {
		left, okL := g.ShortNeighbor(target, -1)
		right, okR := g.ShortNeighbor(target, +1)
		switch {
		case okL && okR:
			if g.space.Distance(left, target) <= g.space.Distance(right, target) {
				return left, true
			}
			return right, true
		case okL:
			return left, true
		case okR:
			return right, true
		}
		return 0, false
	}
	// d >= 2: breadth-first over unit grid steps. Grid steps are unit
	// moves under L1, so BFS level k is exactly the sphere of radius k
	// around the target and the first present point found is nearest.
	// The mark/queue scratch is reused across calls: §5 construction
	// invokes this once per sampled link, and a fresh O(n) allocation
	// each time would dominate the build.
	if g.nearestMark == nil {
		g.nearestMark = make([]uint32, len(g.nodes))
	}
	g.nearestGen++
	if g.nearestGen == 0 { // wrapped: stale marks could collide
		for i := range g.nearestMark {
			g.nearestMark[i] = 0
		}
		g.nearestGen = 1
	}
	gen := g.nearestGen
	queue := g.nearestQueue[:0]
	g.nearestMark[target] = gen
	queue = append(queue, target)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		if g.state[p]&stExists != 0 {
			g.nearestQueue = queue[:0]
			return p, true
		}
		for axis := 1; axis <= g.space.Dim(); axis++ {
			for _, dir := range [2]int{-axis, +axis} {
				if q, ok := g.space.Step(p, dir); ok && g.nearestMark[q] != gen {
					g.nearestMark[q] = gen
					queue = append(queue, q)
				}
			}
		}
	}
	g.nearestQueue = queue[:0]
	return 0, false
}

// RandomAlive returns a uniformly random live node, or ok=false when
// none are alive. It rejects dead points by resampling, which is fast
// whenever a constant fraction of nodes are alive; a linear fallback
// guards the near-extinct case.
func (g *Graph) RandomAlive(src *rng.Source) (metric.Point, bool) {
	if g.aliveCount == 0 {
		return 0, false
	}
	if g.aliveCount*8 >= len(g.nodes) {
		for {
			p := metric.Point(src.Intn(len(g.nodes)))
			if g.Alive(p) {
				return p, true
			}
		}
	}
	k := src.Intn(g.aliveCount)
	for i := range g.nodes {
		if g.state[i]&(stExists|stFailed) == stExists {
			if k == 0 {
				return metric.Point(i), true
			}
			k--
		}
	}
	return 0, false
}

// LinkLengthHistogram accumulates the metric length of every long link
// (up or down) into a linear histogram with one bucket per distance.
// Figure 5 plots exactly this.
func (g *Graph) LinkLengthHistogram() *mathx.Histogram {
	maxD := g.space.Size() // safe upper bound for every space
	h := mathx.NewHistogram(maxD)
	for p := range g.nodes {
		for _, lk := range g.nodes[p].long {
			h.Add(g.space.Distance(metric.Point(p), lk.To))
		}
	}
	return h
}

// AvgOutDegree returns the mean number of long links per existing node.
func (g *Graph) AvgOutDegree() float64 {
	var links, nodes int
	for p := range g.nodes {
		if g.state[p]&stExists != 0 {
			nodes++
			links += len(g.nodes[p].long)
		}
	}
	if nodes == 0 {
		return 0
	}
	return float64(links) / float64(nodes)
}

// InDegree returns the number of up long links pointing at p from
// existing nodes. For the ideal construction this is approximately
// Poisson(l)-distributed — the very assumption §5's arrival protocol
// makes when a newcomer estimates how many in-links it "should" have.
func (g *Graph) InDegree(p metric.Point) int {
	if !g.Exists(p) {
		return 0
	}
	count := 0
	for _, ref := range g.nodes[p].rev {
		if g.inLink(p, ref) {
			count++
		}
	}
	return count
}

// LongLinkCount returns the total number of long links in the graph.
func (g *Graph) LongLinkCount() int {
	var c int
	for p := range g.nodes {
		c += len(g.nodes[p].long)
	}
	return c
}
