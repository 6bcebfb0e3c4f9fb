package engine

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// aggKey identifies a coalescing point: one key's pending service at
// one node.
type aggKey struct {
	node metric.Point
	key  metric.Point
}

// aggEntry remembers the message currently carrying a key through a
// node and when its service there completes; arrivals for the same key
// before that instant ride along.
type aggEntry struct {
	leader int
	finish float64
}

// runner is one engine run's mutable state. Both modes serve through
// the same per-node FIFOs (serveAt); snapshot mode replays precomputed
// paths from its own heap, and every live plan runs the shard loop
// (shard.go) — one eagerly settled shard, or several synchronized at
// window barriers (horizon.go).
type runner struct {
	g     *graph.Graph
	msgs  []Message
	sched Schedule
	cfg   Config
	root  *rng.Source
	out   *Outcome
	err   error

	serviceTime float64
	queues      []nodeQueue
	inject      []float64

	// caching/decay shorthands resolved from cfg.Placement.
	caching  bool
	decaying bool

	// tel is the attached telemetry recorder (nil = disabled; every
	// hook site checks). seenPromos/seenEvicts are the placement churn
	// counters as of the last poll, so cache events report as deltas
	// attributed to the virtual time of the triggering engine event.
	tel        *telemetry.Recorder
	seenPromos int
	seenEvicts int

	// seq tallies the services charged by code that runs outside any
	// shard drain: snapshot replay and churn gossip.
	seq tally

	// Snapshot mode: the replay heap, forwarder paths of routed
	// messages, the routed frontier, each message's schedule entries
	// (sched.Initial bucketed by Msg, preserving order), and closed-loop
	// injections unlocked before their message was routed (admitted
	// when its batch routes).
	h          *mathx.Heap[event]
	paths      [][]metric.Point
	delivered  []bool
	routed     int
	initialFor [][]Injection
	pendingAt  []float64
	hasPending []bool

	// fullyPrimed reports that the schedule fixed every message's
	// injection up front, in message order, at nondecreasing times —
	// the open-loop shape under which depth probes can read the live
	// loop frontier instead of replaying the prefix.
	fullyPrimed bool

	// Live mode: one walker per in-flight message and its current node,
	// the shard loop, and — under the windowed plan only — injections
	// waiting for a window to admit them (nil under the eager plan, so
	// unlock pushes straight onto the heap).
	router   *route.Router
	walkers  []*route.Walker
	pos      []metric.Point
	injected int       // injections admitted, the live decay cadence
	doneAt   []float64 // completion time per message, -1 while in flight
	shards   *shardSet
	pend     *mathx.Heap[Injection]

	// Live congestion signal (Penalty or DepthPenalty set; such runs are
	// single-shard by plan): the instant of the decision being made and
	// the services charged so far, per node and in total — written only
	// when congested — plus the alive-node count the load term
	// normalizes by. Read only by the congestion closure.
	congested    bool
	now          float64
	charged      []int
	totalCharged int
	alive        int

	// Live aggregation state (the coalescing maps are per shard).
	followers [][]int
	merged    []bool

	// Live PIT state (the interest tables are per shard — see pit.go).
	// waits counts suppressions per message (monotone), waitIdx
	// remembers the event idx the message was suppressed at, so its
	// release or re-forward continues the idx sequence past every event
	// already pushed. expiredOnce flips when a message's wait expires: a
	// lookup that already sat out one interest lifetime is never
	// suppressed again, so chained strandings cannot stack timeouts —
	// the protocol's worst lawful wait is one lifetime per lookup.
	// answering flips when a message starts its answer leg;
	// ansPath/ansAt/ansTarget hold the reverse path, the index of the
	// next node to service, and the delivery target the answer reports.
	waits       []int
	waitIdx     []int
	expiredOnce []bool
	answering   []bool
	ansAt       []int
	ansPath     [][]metric.Point
	ansTarget   []metric.Point

	// Node dynamics (Config.Churn enabled; nil otherwise — every churn
	// site checks). See churn.go.
	churn *churnState
}

// tally is one event-processing context's share of the outcome's
// service counters and its telemetry view, folded into the Outcome
// when the run ends. Each shard owns one, written only from its own
// drain; the runner owns one (seq) for the code between drains.
type tally struct {
	view          *telemetry.View // nil = telemetry disabled
	services      int
	maxQueueDepth int
	makespan      float64
	suppressed    int
	fanout        int
	expired       int
}

// fold adds a tally into the outcome.
func (r *runner) fold(c *tally) {
	r.out.Services += c.services
	r.out.Suppressed += c.suppressed
	r.out.MulticastFanout += c.fanout
	r.out.PITExpired += c.expired
	if c.maxQueueDepth > r.out.MaxQueueDepth {
		r.out.MaxQueueDepth = c.maxQueueDepth
	}
	if c.makespan > r.out.Makespan {
		r.out.Makespan = c.makespan
	}
}

// serveAt runs one FIFO service at node for an arrival at time `at`,
// charging it to the node's load, to tally c, and — when the run has a
// live congestion signal — to the charged-load counters.
func (r *runner) serveAt(c *tally, node metric.Point, at float64) (start, finish float64, depth int) {
	start, finish, depth = r.queues[node].serve(at, r.serviceTime)
	r.out.Loads[node]++
	c.services++
	if depth > c.maxQueueDepth {
		c.maxQueueDepth = depth
	}
	if finish > c.makespan {
		c.makespan = finish
	}
	if c.view != nil {
		c.view.Service(at, depth)
	}
	if r.congested {
		r.charged[node]++
		r.totalCharged++
	}
	return start, finish, depth
}

func newRunner(g *graph.Graph, msgs []Message, sched Schedule, cfg Config, root *rng.Source) *runner {
	n := len(msgs)
	r := &runner{
		g:           g,
		msgs:        msgs,
		sched:       sched,
		cfg:         cfg,
		root:        root,
		tel:         cfg.Telemetry,
		serviceTime: 1 / cfg.Capacity,
		queues:      make([]nodeQueue, g.Size()),
		inject:      make([]float64, n),
		out: &Outcome{
			Results: make([]route.Result, n),
			Loads:   make([]int, g.Size()),
		},
	}
	if cfg.Placement != nil {
		r.caching = cfg.Placement.Caching()
		r.decaying = cfg.Placement.Decaying()
	}
	if cfg.Mode.Live() && cfg.Churn.Enabled() {
		// Stream 5 of the run's root is the churn layer's randomness
		// (gossip peer draws, repair link redraws); streams 16+i stay the
		// per-message routing contract, so a schedule with zero events
		// consumes nothing and perturbs nothing.
		r.churn = newChurnState(g, cfg.Churn, root.Derive(5))
	}
	if cfg.Mode.Live() {
		r.walkers = make([]*route.Walker, n)
		r.pos = make([]metric.Point, n)
		r.doneAt = make([]float64, n)
		for i := range r.doneAt {
			r.doneAt[i] = -1
		}
		r.alive = g.AliveCount()
		if cfg.Penalty > 0 || cfg.DepthPenalty > 0 {
			r.congested = true
			r.charged = make([]int, g.Size())
		}
		if cfg.Mode.Aggregate() {
			r.followers = make([][]int, n)
			r.merged = make([]bool, n)
		}
		if cfg.Mode.PIT() {
			r.waits = make([]int, n)
			r.waitIdx = make([]int, n)
			r.expiredOnce = make([]bool, n)
			r.answering = make([]bool, n)
			r.ansAt = make([]int, n)
			r.ansPath = make([][]metric.Point, n)
			r.ansTarget = make([]metric.Point, n)
		}
	} else {
		r.h = newEventHeap(n)
		r.paths = make([][]metric.Point, n)
		r.delivered = make([]bool, n)
		r.initialFor = make([][]Injection, n)
		for _, inj := range sched.Initial {
			if inj.Msg >= 0 && inj.Msg < n {
				r.initialFor[inj.Msg] = append(r.initialFor[inj.Msg], inj)
			}
		}
		r.pendingAt = make([]float64, n)
		r.hasPending = make([]bool, n)
		r.fullyPrimed = fullyPrimed(sched.Initial, n)
	}
	return r
}

// fullyPrimed reports whether initial fixes message i's injection at
// position i with nondecreasing times — true for the open-loop arrival
// models, whose whole schedule is known before the loop starts.
func fullyPrimed(initial []Injection, n int) bool {
	if len(initial) != n {
		return false
	}
	for i, inj := range initial {
		if inj.Msg != i {
			return false
		}
		if i > 0 && inj.Time < initial[i-1].Time {
			return false
		}
	}
	return true
}

// forwarders returns the nodes whose FIFO queues a search occupies: the
// hop u→v is charged to u, the node doing the routing work. A delivered
// message therefore charges every visited node except its destination
// (which consumes the message; its application-level work is not
// routing load), while a failed search charges everything it touched —
// the last node too received the message and hunted for a next hop.
func forwarders(res route.Result) []metric.Point {
	if res.Delivered && len(res.Path) > 0 {
		return res.Path[:len(res.Path)-1]
	}
	return res.Path
}

// servedKind classifies a completion for the flight recorder: how the
// lookup was answered. The cache test reads the placement's current
// cached set for the key, which is exact for live mode (completions
// and churn interleave in event order) and a completion-time
// approximation for snapshot mode.
func (r *runner) servedKind(msg int, res route.Result) telemetry.Served {
	if r.merged != nil && r.merged[msg] {
		return telemetry.ServedAggregated
	}
	if !res.Delivered {
		return telemetry.ServedNone
	}
	if r.answering != nil && !r.walkers[msg].Done() {
		// Delivered but its own walk never reached a target: the lookup
		// was answered from a PIT point by a returning answer's multicast.
		return telemetry.ServedPIT
	}
	key := r.msgs[msg].Key
	if res.Target == key {
		return telemetry.ServedPrimary
	}
	if r.cfg.Placement != nil {
		for _, c := range r.cfg.Placement.CachedFor(key) {
			if c == res.Target {
				return telemetry.ServedCache
			}
		}
	}
	return telemetry.ServedReplica
}

// hopDecision maps the walker's last step onto the flight recorder's
// decision label.
func hopDecision(w *route.Walker) telemetry.Decision {
	switch w.LastStep() {
	case route.StepBacktrack:
		return telemetry.DecisionBacktrack
	case route.StepReroute:
		return telemetry.DecisionReroute
	default:
		return telemetry.DecisionGreedy
	}
}

// cacheDelta polls the placement's cumulative churn counters and
// reports what changed since the last poll, attributed to virtual
// time t. Called (with tel enabled) right after every engine event
// that can move them: Observe on delivery and Decay on its cadence.
func (r *runner) cacheDelta(t float64) {
	p, e := r.cfg.Placement.CacheEvents()
	r.tel.Cache(t, p-r.seenPromos, e-r.seenEvicts)
	r.seenPromos, r.seenEvicts = p, e
}

// ---------------------------------------------------------------------
// Snapshot mode: the classic route-then-replay pipeline, as a small
// replay loop over precomputed paths. Routing happens in
// congestion-snapshot batches; each batch's injections are admitted as
// it routes, and the loop is advanced only as far as the depth probes
// need, so the final event sequence is identical to replaying
// everything at once.
// ---------------------------------------------------------------------

func (r *runner) runSnapshot() {
	cfg := r.cfg
	aware := cfg.Penalty > 0 || cfg.DepthPenalty > 0
	ropt := cfg.Route
	ropt.TracePath = true
	if aware {
		// The congestion feedback owns these fields (the documented
		// contract); drop any caller-supplied signal so the first,
		// zero-load batch routes hop-optimally.
		ropt.Congestion = nil
		ropt.CongestionWeight = 0
	}
	charged := make([]int, r.g.Size())
	batch := len(r.msgs)
	if aware || r.caching {
		batch = cfg.BatchSize
	}
	for start := 0; start < len(r.msgs); start += batch {
		end := start + batch
		if end > len(r.msgs) {
			end = len(r.msgs)
		}
		if r.decaying && start > 0 {
			// Snapshot boundary: age cache-on-path popularity before the
			// next batch consults the placement.
			cfg.Placement.Decay()
			if r.tel != nil {
				// Snapshot churn has no single event instant; attribute it
				// to the latest admitted injection — the batch boundary's
				// virtual "now".
				r.cacheDelta(r.out.LastInject)
			}
		}
		opt := ropt
		if aware && start > 0 {
			// The cumulative congestion signal is the node's charged
			// load relative to the mean live-node load of the snapshot —
			// dimensionless, so the detour pressure stays constant as
			// traffic accumulates instead of drowning the distance term.
			snapshot := append([]int(nil), charged...)
			var loadScale float64
			if cfg.Penalty > 0 {
				var total int
				for i, c := range snapshot {
					if r.g.Alive(metric.Point(i)) {
						total += c
					}
				}
				if total > 0 {
					loadScale = cfg.Penalty * float64(r.g.AliveCount()) / float64(total)
				}
			}
			// The instantaneous signal is the engine's own queue state
			// as this batch's first injection comes due.
			var depth []int
			if cfg.DepthPenalty > 0 {
				depth = r.depthsAtBatch(start)
			}
			if loadScale > 0 || depth != nil {
				depthPenalty := cfg.DepthPenalty
				opt.Congestion = func(q metric.Point) float64 {
					s := float64(snapshot[q]) * loadScale
					if depth != nil {
						s += depthPenalty * float64(depth[q])
					}
					return s
				}
				opt.CongestionWeight = 1
			}
		}
		// Freeze this batch's replica sets before any parallelism: the
		// placement may gain or lose cached copies only between batches.
		var targets [][]metric.Point
		if cfg.Placement != nil {
			targets = make([][]metric.Point, end-start)
			for i := start; i < end; i++ {
				targets[i-start] = cfg.Placement.Targets(r.msgs[i].Key)
			}
		}
		if r.err = r.routeRange(opt, start, end, targets); r.err != nil {
			return
		}
		for i := start; i < end; i++ {
			res := r.out.Results[i]
			r.paths[i] = forwarders(res)
			r.delivered[i] = res.Delivered
			for _, p := range r.paths[i] {
				charged[p]++
			}
			if r.caching && res.Delivered {
				cfg.Placement.Observe(r.msgs[i].Key, res.Path)
			}
		}
		r.routed = end
		r.admitBatch(start, end)
		if r.tel != nil && r.caching {
			// Promotions triggered by this batch's Observe calls.
			r.cacheDelta(r.out.LastInject)
		}
	}
	r.advanceThrough(math.Inf(1))
}

// admitBatch enqueues the injections of messages [start, end): their
// schedule entries known up front, plus any closed-loop injection
// unlocked while the message was still unrouted.
func (r *runner) admitBatch(start, end int) {
	for m := start; m < end; m++ {
		for _, inj := range r.initialFor[m] {
			r.enqueue(inj)
		}
		if r.hasPending[m] {
			r.hasPending[m] = false
			r.enqueue(Injection{Msg: m, Time: r.pendingAt[m]})
		}
	}
}

// depthsAtBatch returns every node's instantaneous queue depth as the
// batch beginning at message `start` is about to route.
//
// For a fully primed schedule the loop itself is the probe: all events
// up to the batch's first injection time are processed (they precede
// every event the new batch can add, so the final event sequence is
// unchanged), and each node's depth is read off its live queue in
// O(1) amortized — the engine lookup that replaced the quadratic
// prefix-replay probing of the pre-engine pipeline.
//
// A schedule that is not fully primed (closed-loop feedback) cannot be
// advanced safely — a future batch may still inject earlier than the
// probe — so the prefix [0, start) is replayed in a scratch loop and
// probed at its last injection, reproducing the pre-engine estimate
// exactly: a pure function of already-routed traffic, modelling the
// staleness of queue-depth gossip.
func (r *runner) depthsAtBatch(start int) []int {
	if r.fullyPrimed {
		probe := r.sched.Initial[start].Time
		r.advanceThrough(probe)
		depth := make([]int, len(r.queues))
		for i := range r.queues {
			depth[i] = r.queues[i].depthAt(probe)
		}
		return depth
	}
	return r.prefixDepths(start)
}

// prefixDepths replays the routed prefix [0, start) in a scratch loop,
// suppressing injections beyond it, and probes queue depths at the
// prefix's last injection (found by a first untimed replay when the
// schedule does not fix it up front).
func (r *runner) prefixDepths(start int) []int {
	scratch := make([]replayMsg, start)
	for i := 0; i < start; i++ {
		scratch[i] = replayMsg{path: r.paths[i], delivered: r.delivered[i]}
	}
	initial := make([]Injection, 0, start)
	for _, inj := range r.sched.Initial {
		if inj.Msg < start {
			initial = append(initial, inj)
		}
	}
	var completed func(m int, at float64) (Injection, bool)
	if r.sched.Completed != nil {
		completed = func(m int, at float64) (Injection, bool) {
			next, ok := r.sched.Completed(m, at)
			if !ok || next.Msg >= start {
				return Injection{}, false
			}
			return next, true
		}
	}
	var probe float64
	if len(r.sched.Initial) == len(r.msgs) && start < len(r.sched.Initial) {
		probe = r.sched.Initial[start].Time
	} else {
		probe = replay(len(r.queues), scratch, r.serviceTime, initial, completed, -1).lastInject
	}
	return replay(len(r.queues), scratch, r.serviceTime, initial, completed, probe).probeDepths
}

// routeRange routes messages [start, end) across cfg.Workers
// goroutines, each message from its own derived rng stream, so the
// assignment of messages to workers is irrelevant. A non-nil targets
// slice carries each message's frozen replica set.
func (r *runner) routeRange(opt route.Options, start, end int, targets [][]metric.Point) error {
	router := route.New(r.g, opt)
	routeOne := func(i int) (route.Result, error) {
		src := r.root.Derive(16 + uint64(i))
		if targets != nil {
			return router.RouteAny(src, r.msgs[i].From, targets[i-start])
		}
		return router.Route(src, r.msgs[i].From, r.msgs[i].Key)
	}
	workers := r.cfg.Workers
	if workers > end-start {
		workers = end - start
	}
	if workers <= 1 {
		for i := start; i < end; i++ {
			res, err := routeOne(i)
			if err != nil {
				return err
			}
			r.out.Results[i] = res
		}
		return nil
	}
	var (
		next     = int64(start) - 1
		firstErr error
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= end {
					return
				}
				res, err := routeOne(i)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				r.out.Results[i] = res
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// enqueue admits one snapshot-mode injection, chasing chains of
// path-less messages (which complete at their injection instant and
// may unlock further injections) and stashing injections whose message
// is not yet routed.
func (r *runner) enqueue(inj Injection) {
	for {
		msg := inj.Msg
		if msg >= r.routed {
			// Unlocked before its batch routed: admitted with the batch.
			r.pendingAt[msg] = inj.Time
			r.hasPending[msg] = true
			return
		}
		r.injectAt(msg, inj.Time)
		if len(r.paths[msg]) > 0 {
			r.h.Push(event{time: inj.Time, msg: msg, idx: 0})
			return
		}
		if r.tel != nil {
			// A path-less snapshot message never enters a queue: it
			// completes at its injection instant.
			r.tel.Complete(msg, inj.Time, r.delivered[msg], r.servedKind(msg, r.out.Results[msg]))
		}
		if r.sched.Completed == nil {
			return
		}
		next, ok := r.sched.Completed(msg, inj.Time)
		if !ok {
			return
		}
		inj = next
	}
}

// advanceThrough replays every queued snapshot event with time at most
// t.
func (r *runner) advanceThrough(t float64) {
	for r.h.Len() > 0 && r.h.Peek().time <= t {
		r.replayHop(r.h.Pop())
	}
}

// replayHop serves one snapshot-mode arrival at the next node of its
// precomputed path and either forwards the message to the following
// node or completes it there.
func (r *runner) replayHop(a event) {
	node := r.paths[a.msg][a.idx]
	start, finish, depth := r.serveAt(&r.seq, node, a.time)
	if r.seq.view != nil {
		r.seq.view.Hop(a.msg, node, a.time, start, finish, depth, telemetry.DecisionSnapshot)
	}
	if a.idx+1 < len(r.paths[a.msg]) {
		r.h.Push(event{time: finish, msg: a.msg, idx: a.idx + 1})
		return
	}
	if r.delivered[a.msg] {
		r.out.Latencies = append(r.out.Latencies, finish-r.inject[a.msg])
	}
	if r.tel != nil {
		r.tel.Complete(a.msg, finish, r.delivered[a.msg], r.servedKind(a.msg, r.out.Results[a.msg]))
	}
	if r.sched.Completed != nil {
		if next, ok := r.sched.Completed(a.msg, finish); ok {
			r.enqueue(next)
		}
	}
}

// injectAt records message msg entering the network at time t.
func (r *runner) injectAt(msg int, t float64) {
	r.inject[msg] = t
	r.out.Injected++
	if t > r.out.LastInject {
		r.out.LastInject = t
	}
	if r.tel != nil {
		r.tel.Inject(msg, t, r.msgs[msg].From, r.msgs[msg].Key)
	}
}

// ---------------------------------------------------------------------
// Live mode: walkers advance one hop per service completion through
// the shard loop (shard.go). PlanLiveSequential runs it as one shard
// that settles every side effect the moment it is produced;
// PlanLiveSharded runs several shards in windows (horizon.go).
// ---------------------------------------------------------------------

// runLive starts the live loop under the resolved plan: the router
// (with the live congestion closure when configured) and the shard
// set, then either the eager drain or the windowed one.
func (r *runner) runLive(plan ExecutionPlan) {
	shards := 1
	if plan == PlanLiveSharded {
		shards = r.cfg.Shards
	}
	r.startLive(shards)
	if shards > 1 {
		r.runSharded()
		return
	}
	for _, inj := range r.sched.Initial {
		r.unlock(inj)
	}
	r.drainEager()
}

// startLive builds the live router and a shard set of the given size.
func (r *runner) startLive(shards int) {
	cfg := r.cfg
	ropt := cfg.Route
	ropt.TracePath = true
	if r.congested {
		// The live congestion signal: charged load relative to the
		// current mean live-node load, plus the candidate's queue depth
		// at the instant of the decision. Reading r.now and the queues
		// directly is what "live" means — no snapshot, no staleness.
		ropt.Congestion = func(q metric.Point) float64 {
			s := 0.0
			if cfg.Penalty > 0 && r.totalCharged > 0 {
				s += cfg.Penalty * float64(r.alive) * float64(r.charged[q]) / float64(r.totalCharged)
			}
			if cfg.DepthPenalty > 0 {
				s += cfg.DepthPenalty * float64(r.queues[q].depthAt(r.now))
			}
			return s
		}
		ropt.CongestionWeight = 1
	}
	r.router = route.New(r.g, ropt)
	r.shards = newShardSet(r, shards)
}

// drainEager runs the one-shard plan to exhaustion. With churn
// attached the op queue interleaves on the same clock; ops win ties,
// so a message event popped at t sees the graph and membership state
// as of t, and the loop runs until both traffic and gossip quiesce.
func (r *runner) drainEager() {
	s := r.shards
	sh := s.shards[0]
	for r.err == nil {
		if r.churn.nextOpBefore(peekTime(sh.h), sh.h.Len() == 0) {
			r.churnOp(r.churn.ops.Pop())
			continue
		}
		if sh.h.Len() == 0 {
			return
		}
		sh.process(r, s, sh.h.Pop())
	}
}

// peekTime is the heap's next event time (unused when the heap is
// empty — nextOpBefore checks heapEmpty first).
func peekTime(h *mathx.Heap[event]) float64 {
	if h.Len() == 0 {
		return 0
	}
	return h.Peek().time
}

// targetsFor resolves a message's routing target set at injection
// time: the fixed Options.Targets set when configured (mirroring
// Route's precedence), the key's live replica set under a placement,
// or the key alone.
func (r *runner) targetsFor(msg int) []metric.Point {
	if len(r.cfg.Route.Targets) > 0 {
		return r.cfg.Route.Targets
	}
	if r.cfg.Placement != nil {
		return r.cfg.Placement.Targets(r.msgs[msg].Key)
	}
	return []metric.Point{r.msgs[msg].Key}
}

// unlock takes a live injection — primed up front or released by a
// completion. The windowed plan parks it in the pending set for the
// next window's admission pass; the eager plan records it and pushes
// its first arrival, whose walker is created when the event pops.
func (r *runner) unlock(inj Injection) {
	if r.pend != nil {
		r.pend.Push(inj)
		return
	}
	r.injectAt(inj.Msg, inj.Time)
	r.shards.shards[0].h.Push(event{time: inj.Time, msg: inj.Msg, idx: 0})
}

// admitLive performs a live message's virtual injection instant: it
// ticks the decay cadence and creates the walker against the placement
// and congestion state of that instant. The eager plan calls it when
// the message's first arrival pops, the windowed plan from its
// admission pass. It reports false when the message does not enter the
// loop — it was born delivered or born unroutable, or walker creation
// failed (r.err).
func (r *runner) admitLive(msg int, at float64) bool {
	r.injected++
	if r.decaying && r.injected%r.cfg.BatchSize == 0 {
		// One half-life every BatchSize injections — the same
		// staleness knob snapshot mode ties its boundaries to.
		r.cfg.Placement.Decay()
		if r.tel != nil {
			r.cacheDelta(at)
		}
	}
	from := r.msgs[msg].From
	if r.churn != nil && !r.g.Alive(from) {
		// The source died before this lookup was injected: the client
		// behind the dead portal enters at the nearest alive node.
		p, ok := r.reattachOrigin(from)
		if !ok {
			r.err = errExtinct
			return false
		}
		from = p
	}
	w, err := r.router.Walker(r.root.Derive(16+uint64(msg)), from, r.targetsFor(msg))
	if err != nil {
		if r.churn != nil {
			// Under churn a lookup can be born unroutable — every replica
			// of its key dead at this instant. That is a failed search,
			// not a configuration error.
			r.bornFailed(msg, at)
			return false
		}
		r.err = err
		return false
	}
	r.walkers[msg] = w
	if w.Done() {
		// Born delivered: the lookup completes at its injection
		// instant without entering a queue.
		r.completeBorn(msg, at)
		return false
	}
	r.pos[msg] = w.At()
	return true
}

// step makes walker w's forwarding decision at time t; under live
// congestion the decision reads the signal as of t.
func (r *runner) step(w *route.Walker, t float64) bool {
	if r.congested {
		r.now = t
	}
	return w.Step()
}

// completeBorn finalizes a zero-hop lookup at its injection instant:
// no queue was entered, so no latency is recorded, but the completion
// still unlocks the closed-loop successor.
func (r *runner) completeBorn(msg int, at float64) {
	r.out.Results[msg] = r.walkers[msg].Result()
	r.doneAt[msg] = at
	if r.tel != nil {
		res := r.out.Results[msg]
		r.tel.Complete(msg, at, res.Delivered, r.servedKind(msg, res))
	}
	if r.sched.Completed != nil {
		if next, ok := r.sched.Completed(msg, at); ok {
			r.unlock(next)
		}
	}
}

// completeLive finalizes one live-mode message at virtual time `at`:
// it records the result and latency, feeds cache-on-path observation,
// unlocks the closed-loop successor, and cascades to any lookups that
// coalesced onto this one.
func (r *runner) completeLive(msg int, at float64, res route.Result) {
	r.out.Results[msg] = res
	r.doneAt[msg] = at
	if res.Delivered {
		// Zero-hop lookups complete at admission and never reach here,
		// so every delivered completion contributes a queueing latency —
		// coalesced lookups included (they waited in a queue too).
		r.out.Latencies = append(r.out.Latencies, at-r.inject[msg])
		if r.caching && !r.cfg.Mode.PIT() && (r.merged == nil || !r.merged[msg]) {
			// Only real deliveries feed popularity: a coalesced lookup's
			// partial path does not end at the key, so observing it
			// would corrupt the forwarder counts. PIT mode observes at
			// answer spawn instead — the delivery instant, once.
			r.cfg.Placement.Observe(r.msgs[msg].Key, res.Path)
		}
	}
	if r.tel != nil {
		r.tel.Complete(msg, at, res.Delivered, r.servedKind(msg, res))
		if r.caching {
			// An Observe above may have promoted cached copies.
			r.cacheDelta(at)
		}
	}
	if r.sched.Completed != nil {
		if next, ok := r.sched.Completed(msg, at); ok {
			r.unlock(next)
		}
	}
	if r.followers != nil {
		for _, f := range r.followers[msg] {
			fr := r.walkers[f].Result()
			fr.Delivered = res.Delivered
			fr.Target = res.Target
			r.completeLive(f, at, fr)
		}
		r.followers[msg] = nil
	}
}
