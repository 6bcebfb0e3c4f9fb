package graph

import (
	"fmt"

	"repro/internal/metric"
)

// NewEmpty returns a graph over space in which no grid point hosts a
// node yet. Nodes arrive later through AddNode — the starting state of
// the §5 incremental construction.
func NewEmpty(space metric.Space) *Graph {
	return newGraph(space)
}

// AddNode marks point p as hosting a live node. It returns an error if
// p is out of range or already hosts a node.
func (g *Graph) AddNode(p metric.Point) error {
	if !g.inRange(p) {
		return fmt.Errorf("graph: AddNode(%d) out of range [0,%d)", p, len(g.nodes))
	}
	if g.state[p]&stExists != 0 {
		return fmt.Errorf("graph: node %d already exists", p)
	}
	g.state[p] = g.state[p]&^stFailed | stExists
	g.aliveCount++
	g.markMembers(p)
	return nil
}

// RemoveNode deletes the node at p entirely: its outgoing long links are
// dropped and the point stops hosting a node (unlike Fail, which models
// a crash that leaves the point occupied but dead). Links from other
// nodes toward p become dangling; ForEachNeighbor already hides them,
// and the construction heuristic repairs them. It returns an error if p
// hosts no node.
func (g *Graph) RemoveNode(p metric.Point) error {
	if !g.Exists(p) {
		return fmt.Errorf("graph: RemoveNode(%d): no such node", p)
	}
	if g.state[p]&stFailed == 0 {
		g.aliveCount--
	}
	g.markMembers(p)
	// Drop the reverse-index entries of p's outgoing links so the
	// index does not accumulate dead references under churn.
	for i, lk := range g.nodes[p].long {
		if lk.Up {
			g.dropRev(lk.To, revRef{from: int32(p), idx: int32(i)})
		}
	}
	// Take every incoming link down: the connection to a departed
	// node is gone for good. The slot stays in its owner's link list
	// (pointing at the vacated point, down) until the §5 repair
	// redirects it — so a later arrival at the same point does not
	// silently resurrect stale connections.
	for _, ref := range g.nodes[p].rev {
		from := metric.Point(ref.from)
		if g.inRange(from) && int(ref.idx) < len(g.nodes[from].long) {
			lk := &g.nodes[from].long[ref.idx]
			if lk.To == p {
				lk.Up = false
			}
		}
	}
	g.nodes[p] = node{}
	g.state[p] &^= stExists | stFailed | stMalicious
	return nil
}

// markMembers marks stale every node whose neighbour list changes when
// p arrives or departs: p itself, the targets of its up links, the
// holders of its live in-links, and its nearest present short
// neighbours on each axis. It reads p's links as they stand, so
// RemoveNode calls it before dropping them.
func (g *Graph) markMembers(p metric.Point) {
	g.markStale(p)
	for _, lk := range g.nodes[p].long {
		if lk.Up {
			g.markStale(lk.To)
		}
	}
	for _, ref := range g.nodes[p].rev {
		if g.inLink(p, ref) {
			g.markStale(metric.Point(ref.from))
		}
	}
	for axis := 1; axis <= g.space.Dim(); axis++ {
		for _, dir := range [2]int{-axis, +axis} {
			if q, ok := g.ShortNeighbor(p, dir); ok {
				g.markStale(q)
			}
		}
	}
}
