package engine

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// This file is the engine's node-dynamics layer: churn events (crashes
// and joins) share the virtual clock with traffic, and the damage is
// detected and repaired by a gossip membership protocol instead of an
// oracle mask.
//
// Mechanics. The schedule's events, failure detections, gossip rounds,
// and stranded-message resumptions live in a churn op queue ordered by
// (time, push order), drained interleaved with the event heaps; at equal
// instants churn ops run before message events, so a message arriving
// at t sees the world as of t (the horizon-boundary tests pin this
// tie rule). A crash takes effect between services: the service a node
// already committed to completes (die-after-commit — "dies
// mid-service" loses nothing it had accepted), but every later arrival
// finds the node dead and *strands*: it parks where it is, waits one
// ProbeTimeout (the sender's unanswered probe), and then re-forwards
// from the dead node without a service — the same one-lifetime-then-
// move-on discipline as the PIT path's expiredOnce re-route. A join
// revives the node, redraws its long links from the paper's §5
// power-law distribution (resolved to the nearest alive node), and
// bootstraps its membership view from its alive neighbours.
//
// Membership. Every crash and join becomes a *rumor*. ProbeTimeout
// after the event, the affected node's alive neighbours (link holders
// plus the point-order successors whose skip-hole short links now cross
// the gap — the nodes whose probes went unanswered) learn it; from
// then on, every GossipInterval, each node holding rumors that have not
// reached the whole network pushes them to GossipFanout uniformly
// random alive peers. Each transmission charges one FIFO service at
// the sender, so dissemination competes with traffic for the same
// capacity. A rumor stays hot at its knowers until every alive node
// knows it — a stand-in for ack-driven rumor retirement that keeps the
// charged cost honest and terminates with probability 1 — and the time
// from event to full knowledge is the membership lag the telemetry
// layer reports. Repair is gossip-driven, not oracular: only when a
// node *learns* of a crash does it redraw its long links into the dead
// node.
//
// Sharding. Churn runs scale across cores: the schedule is fully
// materialized before the run, so the barrier plan clips every safe-
// horizon window at the next churn-op instant, drains the shards in
// parallel up to the clip, and applies membership mutations (crashes,
// joins, link redraws, rumor rounds) sequentially between windows under
// the same ops-before-messages tie rule the eager drain uses —
// byte-identical to one shard at every shard count. Within a window
// the graph is immutable; the only churn artifact a parallel drain
// produces is a strand park, which settles at the barrier in global
// event order so op sequence numbers match the eager plan's. The
// eligibility condition is ProbeTimeout ≥ 1/Capacity (a resume must
// land at or beyond the window horizon); faster probes run on one
// shard (Config.Plan, PlanReasonChurn).
//
// Hot paths. Strand handling, gossip rounds, and link redraws run
// allocation-free in steady state, pinned at 0 allocs/op by
// bench_churn_test.go: detection dedups monitors through reusable
// scratch, nearest-alive resolution uses a stamped BFS instead of a
// per-call map, and retired rumors recycle their known bitmaps.

// ChurnConfig attaches node dynamics to a live engine run. The zero
// value is disabled. A config with knobs but no events attaches the
// machinery without scheduling any dynamics — runs byte-identical to
// the churn-free engine (the differential-test configuration).
type ChurnConfig struct {
	// Events is the churn schedule, sorted by time (package failure's
	// ChurnSpec.Generate produces one). The engine applies each event to
	// the graph at its instant, interleaved with traffic.
	Events []failure.ChurnEvent
	// ProbeTimeout is the failure-detection delay in virtual ticks: how
	// long after a crash the neighbours' probes give up (the rumor is
	// born), and how long a stranded message waits before re-forwarding.
	// Must be positive and finite when churn is enabled.
	ProbeTimeout float64
	// GossipInterval is the cadence of gossip rounds in virtual ticks.
	// Must be positive and finite when churn is enabled.
	GossipInterval float64
	// GossipFanout is how many random alive peers a node pushes its hot
	// rumors to per round. Must be at least 1 when churn is enabled.
	GossipFanout int
	// Repair turns on gossip-driven link repair: a node that learns of a
	// crash redraws its long links into the dead node from the §5
	// power-law distribution, resolved to the nearest alive node.
	Repair bool
}

// Enabled reports whether the run carries churn machinery at all.
func (c ChurnConfig) Enabled() bool {
	return len(c.Events) > 0 || c.ProbeTimeout > 0 || c.GossipInterval > 0 ||
		c.GossipFanout > 0 || c.Repair
}

// validate cross-checks the churn knobs against the mode, mirroring
// the PIT-knob discipline: enabled churn requires the live loop and
// fully resolved gossip knobs.
func (c ChurnConfig) validate(mode Mode) error {
	if !c.Enabled() {
		return nil
	}
	if !mode.Live() {
		return fmt.Errorf("engine: churn requires a live mode (snapshot routes whole paths against a static graph)")
	}
	if !(c.ProbeTimeout > 0) || math.IsInf(c.ProbeTimeout, 0) {
		return fmt.Errorf("engine: churn probe timeout %g must be positive and finite", c.ProbeTimeout)
	}
	if !(c.GossipInterval > 0) || math.IsInf(c.GossipInterval, 0) {
		return fmt.Errorf("engine: churn gossip interval %g must be positive and finite", c.GossipInterval)
	}
	if c.GossipFanout < 1 {
		return fmt.Errorf("engine: churn gossip fanout %d must be at least 1", c.GossipFanout)
	}
	last := math.Inf(-1)
	for i, ev := range c.Events {
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) || ev.Time < 0 {
			return fmt.Errorf("engine: churn event %d time %g must be finite and non-negative", i, ev.Time)
		}
		if ev.Time < last {
			return fmt.Errorf("engine: churn events out of time order at %d (%g after %g)", i, ev.Time, last)
		}
		last = ev.Time
	}
	return nil
}

// Churn op kinds, in no particular precedence — ordering is purely
// (time, seq), so at one instant ops run in the order they were
// created: schedule events (pushed first, at init) before the
// detections and resumptions they caused.
const (
	churnOpEvent  = iota // apply cfg.Events[ref] to the graph
	churnOpDetect        // rumor ref's monitors notice, ProbeTimeout after the event
	churnOpRound         // one gossip round
	churnOpResume        // stranded message ref re-forwards (idx = its event chain position)
)

// churnOp is one entry of the churn op queue.
type churnOp struct {
	time float64
	seq  int // creation order: the deterministic tie-break
	kind uint8
	ref  int // event index, rumor index, or message — by kind
	idx  int // churnOpResume: the event idx the message's chain continues from
}

func churnOpLess(a, b churnOp) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// rumor is one membership fact in flight: "node crashed" or "node
// joined", spreading epidemically until every alive node knows it.
type rumor struct {
	node     metric.Point
	crash    bool
	born     float64
	known    []bool // per grid point: has this node heard the rumor
	detected bool   // the ProbeTimeout detection has fired
	done     bool   // converged (all alive know) or abandoned (no alive knower)
}

// churnState is the runner's node-dynamics state: the op queue, the
// rumor table, and the per-node hot lists of rumors still spreading.
type churnState struct {
	cfg     ChurnConfig
	src     *rng.Source // gossip peer draws and repair link redraws (root stream 5)
	ops     *mathx.Heap[churnOp]
	seq     int
	rumors  []rumor
	hot     [][]int // per node: indices of rumors it knows and still spreads
	pending int     // rumors not yet done; rounds self-schedule while > 0
	rounds  bool    // a churnOpRound is already queued
	sampler metric.LinkSampler

	// Reusable scratch keeping the churn hot paths at 0 allocs/op
	// (bench_churn_test.go pins the contract).
	mon        []metric.Point     // detect: this call's deduped monitor set
	collectMon func(metric.Point) // detect: the ForEachNeighbor visitor, built once
	visited    []uint32           // nearestAlive: BFS visit stamps, one per grid point
	stamp      uint32             // current BFS generation
	bfs        []metric.Point     // nearestAlive: BFS queue
	freeKnown  [][]bool           // retired rumors' known bitmaps, recycled by born
}

func newChurnState(g *graph.Graph, cfg ChurnConfig, src *rng.Source) *churnState {
	c := &churnState{
		cfg: cfg,
		src: src,
		ops: mathx.NewHeap(churnOpLess, len(cfg.Events)+16),
		hot: make([][]int, g.Size()),
	}
	// Built once so detect's neighbour sweep costs no per-call closure.
	c.collectMon = func(q metric.Point) {
		if g.Alive(q) {
			c.addMonitor(q)
		}
	}
	for i, ev := range cfg.Events {
		c.push(churnOp{time: ev.Time, kind: churnOpEvent, ref: i})
	}
	return c
}

func (c *churnState) push(op churnOp) {
	op.seq = c.seq
	c.seq++
	c.ops.Push(op)
}

// nextOpBefore reports whether a churn op is due at or before t — the
// drain loop's interleave test (ops win ties, so an event popped at t
// sees the world as of t).
func (c *churnState) nextOpBefore(t float64, heapEmpty bool) bool {
	if c == nil || c.ops.Len() == 0 {
		return false
	}
	return heapEmpty || c.ops.Peek().time <= t
}

// churnOp dispatches one popped op.
func (r *runner) churnOp(op churnOp) {
	c := r.churn
	switch op.kind {
	case churnOpEvent:
		r.applyChurnEvent(c.cfg.Events[op.ref])
	case churnOpDetect:
		c.detect(r, op.ref, op.time)
	case churnOpRound:
		c.round(r, op.time)
	case churnOpResume:
		r.resumeStranded(op.ref, op.idx, op.time)
	}
}

// applyChurnEvent mutates the graph at the event's instant and births
// the membership rumor. Invalid transitions (crashing a dead node,
// reviving an alive one) are dropped — Generate never emits them, but
// hand-built schedules may.
func (r *runner) applyChurnEvent(ev failure.ChurnEvent) {
	c := r.churn
	switch ev.Kind {
	case failure.ChurnCrash:
		if !r.g.Fail(ev.Node) {
			return
		}
		r.alive--
		r.out.Crashes++
		// A dead node neither relays rumors nor counts toward their
		// convergence; whatever it knew dies with it.
		c.hot[ev.Node] = nil
		if r.tel != nil {
			r.tel.Churn(ev.Time, true)
		}
		c.born(r, ev, true)
	case failure.ChurnJoin:
		if !r.g.Revive(ev.Node) {
			return
		}
		r.alive++
		r.out.Joins++
		if r.tel != nil {
			r.tel.Churn(ev.Time, false)
		}
		// The joiner rebuilds its long links per the §5 construction and
		// pulls the membership state its neighbours hold — the bootstrap
		// exchange every real join protocol starts with, charged to the
		// consulted neighbours' FIFOs.
		c.rebuildLinks(r, ev.Node)
		c.bootstrap(r, ev.Node, ev.Time)
		ri := c.born(r, ev, false)
		// The joiner knows its own arrival from the first instant.
		c.teach(r, ri, ev.Node, ev.Time)
	}
}

// born creates the event's rumor and schedules its detection one
// ProbeTimeout later, returning the rumor's index. Retired rumors'
// known bitmaps are recycled, so sustained churn grows the rumor set
// without growing the heap.
func (c *churnState) born(r *runner, ev failure.ChurnEvent, crash bool) int {
	ri := len(c.rumors)
	var known []bool
	if n := len(c.freeKnown); n > 0 {
		known = c.freeKnown[n-1]
		c.freeKnown[n-1] = nil
		c.freeKnown = c.freeKnown[:n-1]
		for i := range known {
			known[i] = false
		}
	} else {
		known = make([]bool, r.g.Size())
	}
	c.rumors = append(c.rumors, rumor{
		node:  ev.Node,
		crash: crash,
		born:  ev.Time,
		known: known,
	})
	c.pending++
	c.push(churnOp{time: ev.Time + c.cfg.ProbeTimeout, kind: churnOpDetect, ref: ri})
	return ri
}

// detect fires ProbeTimeout after the event: the affected node's
// monitors — its alive link holders plus the nearest alive point-order
// successor in each direction, the nodes whose probes went unanswered
// (or who the joiner contacted) — learn the rumor and start spreading
// it. Detection itself charges nothing: the probes are the ambient
// heartbeat traffic every failure detector pays regardless.
func (c *churnState) detect(r *runner, ri int, t float64) {
	ru := &c.rumors[ri]
	if ru.done {
		return
	}
	ru.detected = true
	c.mon = c.mon[:0]
	r.g.ForEachNeighbor(ru.node, c.collectMon)
	for _, dir := range [2]int{+1, -1} {
		if q, ok := nearestAliveDir(r.g, ru.node, dir); ok {
			c.addMonitor(q)
		}
	}
	for _, q := range c.mon {
		c.teach(r, ri, q, t)
	}
	c.checkDone(r, ri, t)
	c.ensureRound(r, t)
}

// addMonitor dedups one node into the scratch monitor set. Monitor
// sets are a handful of nodes (link holders plus two probe
// successors), so the linear scan beats a map and allocates nothing.
func (c *churnState) addMonitor(q metric.Point) {
	for _, m := range c.mon {
		if m == q {
			return
		}
	}
	c.mon = append(c.mon, q)
}

// teach marks one node as knowing one rumor: it joins the rumor's
// spreaders, and — when repair is on and the rumor is a crash — redraws
// its own long links into the dead node.
func (c *churnState) teach(r *runner, ri int, q metric.Point, t float64) {
	ru := &c.rumors[ri]
	if ru.done || ru.known[q] {
		return
	}
	ru.known[q] = true
	c.hot[q] = append(c.hot[q], ri)
	if ru.crash && c.cfg.Repair {
		c.repairAt(r, q, ru.node)
	}
}

// round is one gossip round: every node holding live rumors pushes
// them to GossipFanout uniformly random alive peers, one FIFO service
// charged at the sender per transmission. Knowledge learned earlier in
// the same round relays immediately (push gossip with immediate
// relay) — deterministic, since nodes run in point order and peers come
// from the churn rng stream.
func (c *churnState) round(r *runner, t float64) {
	c.rounds = false
	if c.pending == 0 {
		return
	}
	sent := 0
	for i := range c.hot {
		if len(c.hot[i]) == 0 {
			continue
		}
		p := metric.Point(i)
		if !r.g.Alive(p) {
			c.hot[i] = nil
			continue
		}
		live := c.hot[i][:0]
		for _, ri := range c.hot[i] {
			if !c.rumors[ri].done {
				live = append(live, ri)
			}
		}
		c.hot[i] = live
		if len(live) == 0 {
			continue
		}
		for k := 0; k < c.cfg.GossipFanout; k++ {
			q, ok := r.g.RandomAlive(c.src)
			if !ok || q == p {
				continue
			}
			r.serveAt(&r.seq, p, t)
			sent++
			for _, ri := range live {
				c.teach(r, ri, q, t)
			}
		}
	}
	if sent > 0 {
		r.out.GossipSends += sent
		if r.tel != nil {
			r.tel.Gossip(t, sent)
		}
	}
	for ri := range c.rumors {
		c.checkDone(r, ri, t)
	}
	c.ensureRound(r, t)
}

// checkDone resolves a rumor that has finished spreading: converged
// when every alive node knows it (the membership lag is recorded), or
// abandoned when no alive node knows it any more (all its knowers
// crashed; nothing can revive it). A rumor born but not yet detected
// has no knowers by construction — abandonment only applies once its
// detection has fired (a gossip round between birth and detection must
// not orphan it; the staggered-crash repro pins this).
func (c *churnState) checkDone(r *runner, ri int, t float64) {
	ru := &c.rumors[ri]
	if ru.done {
		return
	}
	aliveTotal, aliveKnow := 0, 0
	for i := range ru.known {
		if !r.g.Alive(metric.Point(i)) {
			continue
		}
		aliveTotal++
		if ru.known[i] {
			aliveKnow++
		}
	}
	switch {
	case aliveTotal > 0 && aliveKnow == aliveTotal:
		ru.done = true
		c.pending--
		r.out.RumorsConverged++
		if lag := t - ru.born; lag > r.out.MembershipLag {
			r.out.MembershipLag = lag
		}
	case ru.detected && aliveKnow == 0:
		ru.done = true
		c.pending--
		r.out.RumorsAbandoned++
	}
	if ru.done {
		// A done rumor is never read again (teach and round both gate on
		// done first): recycle its bitmap for the next born.
		c.freeKnown = append(c.freeKnown, ru.known)
		ru.known = nil
	}
}

// ensureRound keeps exactly one future gossip round queued while any
// rumor is unresolved; the loop drains to quiescence, so Run returns
// only after membership has converged (or every rumor was orphaned).
func (c *churnState) ensureRound(r *runner, t float64) {
	if c.pending == 0 || c.rounds {
		return
	}
	c.rounds = true
	c.push(churnOp{time: t + c.cfg.GossipInterval, kind: churnOpRound})
}

// bootstrap is the join handshake: the joiner consults up to 2·dim
// alive neighbours (its short-link span) and learns every unresolved
// rumor they collectively hold, one FIFO service charged at each
// consulted neighbour.
func (c *churnState) bootstrap(r *runner, p metric.Point, t float64) {
	limit := 2 * r.g.Space().Dim()
	consulted := 0
	r.g.ForEachNeighbor(p, func(q metric.Point) {
		if consulted >= limit || !r.g.Alive(q) {
			return
		}
		consulted++
		r.serveAt(&r.seq, q, t)
		r.out.GossipSends++
		if r.tel != nil {
			r.tel.Gossip(t, 1)
		}
		for _, ri := range c.hot[q] {
			c.teach(r, ri, p, t)
		}
	})
}

// rebuildLinks redraws every long link of a (re)joining node per §5.
func (c *churnState) rebuildLinks(r *runner, p metric.Point) {
	for i := range r.g.Long(p) {
		if to, ok := c.drawLink(r, p); ok {
			if r.g.ReplaceLong(p, i, to) == nil {
				r.out.LinksRebuilt++
			}
		}
	}
	r.g.Settle()
}

// repairAt redraws q's long links whose target is the dead node — the
// §5 construction re-run for the broken slots, from q's own power-law
// distribution, resolved to the nearest alive node.
func (c *churnState) repairAt(r *runner, q, dead metric.Point) {
	for i, l := range r.g.Long(q) {
		if l.To != dead || !l.Up {
			continue
		}
		if to, ok := c.drawLink(r, q); ok && to != dead {
			if r.g.ReplaceLong(q, i, to) == nil {
				r.out.LinksRebuilt++
			}
		}
	}
	r.g.Settle()
}

// drawLink samples one long-link target for p from the paper's
// harmonic distribution (exponent = dimension), resolved to the
// nearest alive node, with the construction's retry discipline.
func (c *churnState) drawLink(r *runner, p metric.Point) (metric.Point, bool) {
	if c.sampler == nil {
		s, err := r.g.Space().NewLinkSampler(float64(r.g.Space().Dim()))
		if err != nil {
			return 0, false
		}
		c.sampler = s
	}
	for attempt := 0; attempt < 32; attempt++ {
		q, ok := c.sampler.Sample(p, c.src)
		if !ok {
			continue
		}
		if v, ok := c.nearestAlive(r.g, q); ok && v != p {
			return v, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------
// Stranding: in-flight messages at a dying node.
// ---------------------------------------------------------------------

// pushEvent routes a churn-path event to the live loop: the owning
// shard's heap. Always called from sequential code (the eager drain, or
// barrier-time op application); the destination is the message's
// current node, which every caller sets before pushing.
func (r *runner) pushEvent(e event) {
	r.shards.owner(r.pos[e.msg]).h.Push(e)
}

// strand parks a message whose arrival found its node dead: no service
// happens (the node cannot serve), and one ProbeTimeout later — the
// sender's probe giving up — the message resumes.
func (r *runner) strand(m, idx int, t float64) {
	r.out.Stranded++
	if r.tel != nil {
		r.tel.Strand(t)
	}
	r.churn.push(churnOp{time: t + r.churn.cfg.ProbeTimeout, kind: churnOpResume, ref: m, idx: idx})
}

// resumeStranded continues a stranded message after its probe window.
// If the node revived in the meantime the arrival simply replays there
// (and is served normally); otherwise the message moves on without a
// service — an answer leg skips the dead relays on its recorded
// reverse path, a request leg re-steps its walker from the dead node,
// exactly the expiredOnce re-route discipline.
func (r *runner) resumeStranded(m, idx int, t float64) {
	if r.doneAt[m] >= 0 {
		return // completed while parked (e.g. a carrier's cascade)
	}
	node := r.pos[m]
	if r.g.Alive(node) {
		r.out.StrandResumed++
		r.pushEvent(event{time: t, msg: m, idx: idx})
		return
	}
	if r.cfg.Mode.PIT() && r.answering[m] {
		for r.ansAt[m] >= 0 && !r.g.Alive(r.ansPath[m][r.ansAt[m]]) {
			r.ansAt[m]--
		}
		r.out.StrandResumed++
		if r.ansAt[m] < 0 {
			// Every remaining relay (the origin included) is dead: the
			// answer's journey ends here, receipt at the resume instant.
			r.completeLive(m, t, r.answerResult(m))
			return
		}
		r.pos[m] = r.ansPath[m][r.ansAt[m]]
		r.pushEvent(event{time: t, msg: m, idx: idx + 1})
		return
	}
	r.stepWithoutService(m, idx, t)
}

// stepWithoutService advances a request walker parked at a dead node:
// the dead node does no work, so the step is free — the cost was the
// ProbeTimeout already paid. The walker's own policy (greedy,
// backtrack, random re-route) picks the escape, filtered to alive
// candidates as always.
func (r *runner) stepWithoutService(m, idx int, t float64) {
	w := r.walkers[m]
	stepped := r.step(w, t)
	if r.seq.view != nil {
		r.seq.view.Hop(m, r.pos[m], t, t, t, 0, telemetry.DecisionReroute)
	}
	if stepped {
		r.out.StrandResumed++
		r.pos[m] = w.At()
		r.pushEvent(event{time: t, msg: m, idx: idx + 1})
		return
	}
	res := w.Result()
	if !res.Delivered {
		r.out.StrandDropped++
		r.completeLive(m, t, res)
		return
	}
	r.out.StrandResumed++
	if r.cfg.Mode.PIT() {
		// Delivered from the strand: the answer leg spawns as usual, its
		// generation service at the target.
		r.spawnAnswer(m, t, res)
		r.pushEvent(event{time: t, msg: m, idx: idx + 1})
		return
	}
	r.completeLive(m, t, res)
}

// errExtinct: churn killed every node; nothing can be injected.
var errExtinct = fmt.Errorf("engine: churn extinguished the network (no alive node to inject at)")

// bornFailed completes a lookup that could not even start — every
// replica of its key dead at injection. It is a failed search with an
// empty path, finalized at its injection instant.
func (r *runner) bornFailed(m int, at float64) {
	r.doneAt[m] = at
	if r.tel != nil {
		r.tel.Complete(m, at, false, telemetry.ServedNone)
	}
	if r.sched.Completed != nil {
		if next, ok := r.sched.Completed(m, at); ok {
			r.unlock(next)
		}
	}
}

// reattachOrigin finds the entry point for a lookup whose source node
// is dead at injection time: the nearest alive node stands in (the
// client behind the dead portal retries via the next one). Reports
// ok=false only when the whole network is dead.
func (r *runner) reattachOrigin(from metric.Point) (metric.Point, bool) {
	p, ok := r.churn.nearestAlive(r.g, from)
	if ok {
		r.out.Reattached++
	}
	return p, ok
}

// nearestAlive returns the alive node nearest to target: breadth-first
// over unit grid steps, so level k is the L1 sphere of radius k and the
// first alive point found is nearest (the alive-filtered sibling of
// graph.NearestExisting). The visit set is a reusable stamp array and
// the queue a reusable slice, so the link-redraw hot path allocates
// nothing once warm; the expansion order (−axis before +axis, axes
// ascending) matches the old map-based walk exactly.
func (c *churnState) nearestAlive(g *graph.Graph, target metric.Point) (metric.Point, bool) {
	if g.Alive(target) {
		return target, true
	}
	if g.AliveCount() == 0 {
		return 0, false
	}
	if len(c.visited) < g.Size() {
		c.visited = make([]uint32, g.Size())
		c.stamp = 0
	}
	c.stamp++
	if c.stamp == 0 {
		// Stamp wrapped (2^32 searches): clear and restart the epoch.
		for i := range c.visited {
			c.visited[i] = 0
		}
		c.stamp = 1
	}
	c.bfs = c.bfs[:0]
	c.visited[target] = c.stamp
	c.bfs = append(c.bfs, target)
	for head := 0; head < len(c.bfs); head++ {
		p := c.bfs[head]
		if g.Alive(p) {
			return p, true
		}
		for axis := 1; axis <= g.Space().Dim(); axis++ {
			for _, dir := range [2]int{-axis, +axis} {
				if q, ok := g.Space().Step(p, dir); ok && c.visited[q] != c.stamp {
					c.visited[q] = c.stamp
					c.bfs = append(c.bfs, q)
				}
			}
		}
	}
	return 0, false
}

// nearestAliveDir walks the point order from p in one direction to the
// first alive node — the probe neighbour whose skip-hole short link
// now crosses the gap.
func nearestAliveDir(g *graph.Graph, p metric.Point, dir int) (metric.Point, bool) {
	cur := p
	for i := 0; i < g.Size(); i++ {
		next, ok := g.Space().Step(cur, dir)
		if !ok {
			return 0, false
		}
		cur = next
		if cur == p {
			return 0, false
		}
		if g.Alive(cur) {
			return cur, true
		}
	}
	return 0, false
}
