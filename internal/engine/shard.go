package engine

import (
	"sort"
	"sync"
	"time"

	"repro/internal/mathx"
	"repro/internal/metric"
	"repro/internal/route"
)

// This file is the live event loop: the shard state, the one function
// that handles a live arrival (shard.process, with its PIT branch in
// pit.go), and the settle step every globally ordered side effect goes
// through. A shard owns a contiguous region of nodes and its own event
// heap; the loop runs under one of two settlements:
//
//   - Eager (PlanLiveSequential): one shard owns every node and drains
//     its heap in (time, msg, idx) order, interleaved with churn ops
//     (runner.drainEager). Pop order is the global event order, so each
//     side effect applies the moment it is produced, and a message's
//     walker is created when its first arrival pops — congestion and
//     caching read placement and load at that instant.
//   - Barrier (PlanLiveSharded): conservative parallel discrete-event
//     simulation with a lookahead of one service time — an
//     α-synchronizer whose degenerate one-shard case is the eager plan.
//     Every event processed at time t schedules its successor at
//     finish ≥ t + 1/Capacity, so inside a window [W, W+1/Capacity) no
//     event can create work another shard would have to see in the same
//     window, and every shard drains its own heap below the horizon
//     without locks. A successor hopping to another shard's node lands
//     in a per-destination outbox, merged at the barrier. Side effects
//     whose order is globally visible — completions, aggregation
//     merges, latency records, closed-loop unlocks, churn strand parks —
//     are recorded as doneRecs keyed by the triggering event and
//     replayed at the barrier in (time, msg, idx) order through the same
//     apply function the eager plan calls. That replay, not luck, is
//     what makes every Shards value byte-identical. Window selection and
//     admission live in horizon.go.
//
// Churn extends the barrier model without touching the drains:
// membership mutations apply only between windows — every window is
// clipped at the next churn-op instant — so within a drain the graph is
// immutable. The one churn artifact a drain can produce is a strand (an
// arrival at a node that died at an earlier barrier); its park settles
// like a completion, and its resume op lands at or beyond the horizon
// because eligibility requires ProbeTimeout ≥ the lookahead.
//
// Node-indexed state (queues, Loads) needs no deferral: a message
// occupies exactly one node per event, so within a window each slot is
// touched only by its owning shard, in that shard's pop order — the
// same relative order the eager plan uses, because events at one node
// never straddle shards. The live congestion counters are written only
// by congested runs, which the plan confines to one shard.

// shardOf maps a node to its owning shard: the contiguous partition
// p ∈ [s·size/shards, (s+1)·size/shards) ⇒ s, computed without
// division by the owner. O(1), no maps, exact for every shards ≤ size.
func shardOf(p metric.Point, shards, size int) int {
	return int(uint64(p) * uint64(shards) / uint64(size))
}

// doneRec is one globally ordered side effect of processing an event.
// at is the popped event that produced it — the global replay key —
// and seq the ordinal within that pop: a PIT answer service can
// complete several messages at once (origin-parked waiters, then
// possibly the answering lookup itself), so (at, seq) keys records
// uniquely and in production order. msg is the message the record
// settles, which under PIT multicast need not be the popped event's.
type doneRec struct {
	at     event
	seq    int
	msg    int
	merge  bool
	strand bool         // churn: the arrival found its node dead; park it
	leader int          // merge: the aggregation carrier; strand: the idx to resume from
	finish float64      // terminal: the final service's completion time
	res    route.Result // terminal: the walker's final result
}

// shard is one partition's event loop: its own heap, outboxes toward
// every other shard, side effects awaiting the barrier, and its tally
// of the outcome's service counters.
type shard struct {
	id     int
	eager  bool // the only shard: settle side effects at once
	h      *mathx.Heap[event]
	outbox [][]event // per destination shard, reused across windows
	done   []doneRec // side effects awaiting the barrier, in pop order

	// agg is this shard's slice of the aggregation state: it is keyed
	// by (node, key) with node always shard-owned, so no map is ever
	// touched by two shards. Nil unless aggregating.
	agg map[aggKey]aggEntry

	// pit/pitWait are this shard's slice of the PIT state, sharded on
	// the same argument as agg: a waiter parks at one shard-owned node,
	// so its suppression, timeout, and release all pop here. Nil unless
	// ModeLivePIT (pit.go).
	pit     map[aggKey]*pitEntry
	pitWait map[int]int

	tally
	arriving int // handoffs headed here, counted during the merge

	// Scratch for the window's wall-clock profile (telemetry on, barrier
	// plan only), read back at the sequential window epilogue.
	drainSecs float64
	winEvents int
}

// shardSet is the whole partitioned loop: the shards plus the
// barrier-side scratch buffers, all reused across windows.
type shardSet struct {
	shards []*shard
	size   int       // node count, the shardOf denominator
	moved  []event   // cross-shard handoffs being merged
	recs   []doneRec // side effects being replayed
	active []*shard  // shards with work below the current horizon
}

// newShardSet partitions the live loop into n shards. One shard is the
// eager plan: it reports through the sequential telemetry view and
// needs no scheduler profile.
func newShardSet(r *runner, n int) *shardSet {
	s := &shardSet{
		shards: make([]*shard, n),
		size:   r.g.Size(),
		active: make([]*shard, 0, n),
	}
	per := len(r.msgs)/n + 1
	for i := range s.shards {
		sh := &shard{id: i, eager: n == 1, h: newEventHeap(per), outbox: make([][]event, n)}
		if r.cfg.Mode.Aggregate() {
			sh.agg = make(map[aggKey]aggEntry)
		}
		if r.cfg.Mode.PIT() {
			sh.pit = make(map[aggKey]*pitEntry)
			sh.pitWait = make(map[int]int)
		}
		s.shards[i] = sh
	}
	if r.tel != nil {
		if n == 1 {
			s.shards[0].view = r.seq.view
		} else {
			// Views are handed out here, sequentially, before any window
			// drains; the occupancy histogram's range bounds events per
			// shard-window, which a hot window can push into the
			// hops-per-message regime — 2^20 buckets it log-scale.
			r.tel.SchedInit(n, 1<<20)
			for _, sh := range s.shards {
				sh.view = r.tel.View(sh.id)
			}
		}
	}
	return s
}

// owner returns the shard owning node p.
func (s *shardSet) owner(p metric.Point) *shard {
	return s.shards[shardOf(p, len(s.shards), s.size)]
}

// nextTime returns the earliest pending instant across every shard
// heap, the pending injection set, and the churn op queue — the next
// window's start — or false when the simulation is drained. Churn ops
// count because gossip rounds outlive traffic: the loop must keep
// opening (possibly event-free) windows until membership quiesces,
// exactly as the eager drain does.
func (s *shardSet) nextTime(r *runner) (float64, bool) {
	t, ok := 0.0, false
	if r.pend.Len() > 0 {
		t, ok = r.pend.Peek().Time, true
	}
	if r.churn != nil && r.churn.ops.Len() > 0 {
		if ot := r.churn.ops.Peek().time; !ok || ot < t {
			t, ok = ot, true
		}
	}
	for _, sh := range s.shards {
		if sh.h.Len() > 0 && (!ok || sh.h.Peek().time < t) {
			t, ok = sh.h.Peek().time, true
		}
	}
	return t, ok
}

// drainWindow runs every shard with work below the horizon
// concurrently, one goroutine per busy shard (the first busy shard
// runs on the caller's goroutine). Shards only read immutable run
// state and write shard-owned state, so the window needs no locks;
// the WaitGroup is the whole synchronization story.
func (s *shardSet) drainWindow(r *runner, horizon float64) {
	s.active = s.active[:0]
	for _, sh := range s.shards {
		if sh.h.Len() > 0 && sh.h.Peek().time < horizon {
			s.active = append(s.active, sh)
		}
	}
	if len(s.active) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, sh := range s.active[1:] {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.drain(r, s, horizon)
		}(sh)
	}
	s.active[0].drain(r, s, horizon)
	wg.Wait()
	if r.tel != nil {
		s.profileWindow(r)
	}
}

// profileWindow folds one window's wall-clock profile into the
// recorder, at the sequential point right after the drains joined:
// each active shard's drain time, its wait for the window's slowest
// shard (the barrier cannot start before that one), and the events it
// processed.
func (s *shardSet) profileWindow(r *runner) {
	var slowest float64
	for _, sh := range s.active {
		if sh.drainSecs > slowest {
			slowest = sh.drainSecs
		}
	}
	for _, sh := range s.active {
		r.tel.SchedWindow(sh.id, sh.drainSecs, slowest-sh.drainSecs, sh.winEvents)
		sh.drainSecs, sh.winEvents = 0, 0
	}
	r.tel.SchedWindowDone()
}

// drain processes the shard's events strictly below the horizon.
func (sh *shard) drain(r *runner, s *shardSet, horizon float64) {
	if sh.view != nil {
		sh.drainProfiled(r, s, horizon)
		return
	}
	for sh.h.Len() > 0 && sh.h.Peek().time < horizon {
		sh.process(r, s, sh.h.Pop())
	}
}

// drainProfiled is drain with the wall clock running — a separate
// loop so the disabled path pays no time.Now calls and no counting.
func (sh *shard) drainProfiled(r *runner, s *shardSet, horizon float64) {
	started := time.Now()
	n := 0
	for sh.h.Len() > 0 && sh.h.Peek().time < horizon {
		sh.process(r, s, sh.h.Pop())
		n++
	}
	sh.drainSecs = time.Since(started).Seconds()
	sh.winEvents = n
}

// process handles one live arrival, under either plan: the message
// joins the node's FIFO, is served for serviceTime ticks, and decides
// its next hop at that service. Under the eager plan a message's first
// arrival also creates its walker (admitLive). In aggregate mode the
// arrival may instead coalesce onto a pending same-key service and
// never occupy the queue; PIT mode has its own arrival discipline
// (pit.go). Everything whose order another shard could observe goes
// through settle.
func (sh *shard) process(r *runner, s *shardSet, a event) {
	if sh.pit != nil {
		sh.processPIT(r, s, a)
		return
	}
	if a.idx == 0 && r.walkers[a.msg] == nil && !r.admitLive(a.msg, a.time) {
		return
	}
	node := r.pos[a.msg]
	if r.churn != nil && !r.g.Alive(node) {
		// The node died since this hop was scheduled: the message
		// strands here and resumes after the probe window (churn.go).
		sh.settle(r, doneRec{at: a, msg: a.msg, strand: true, leader: a.idx})
		return
	}
	if sh.agg != nil {
		key := aggKey{node: node, key: r.msgs[a.msg].Key}
		if e, ok := sh.agg[key]; ok && a.time < e.finish {
			// A same-key lookup is queued or in service here: ride along.
			// Whether it settles now or waits on the carrier depends on
			// doneAt, which earlier-keyed events elsewhere may still
			// change — settlement decides, in event order.
			sh.settle(r, doneRec{at: a, msg: a.msg, merge: true, leader: e.leader})
			return
		}
	}
	start, finish, depth := r.serveAt(&sh.tally, node, a.time)
	if sh.agg != nil {
		sh.agg[aggKey{node: node, key: r.msgs[a.msg].Key}] = aggEntry{leader: a.msg, finish: finish}
	}
	w := r.walkers[a.msg]
	stepped := r.step(w, a.time)
	if sh.view != nil {
		// The flight hop append is safe because this shard owns the
		// message for this event (same ownership argument as r.pos).
		sh.view.Hop(a.msg, node, a.time, start, finish, depth, hopDecision(w))
	}
	if stepped {
		next := w.At()
		r.pos[a.msg] = next
		sh.push(s, next, event{time: finish, msg: a.msg, idx: a.idx + 1})
		return
	}
	sh.settle(r, doneRec{at: a, msg: a.msg, finish: finish, res: w.Result()})
}

// push routes a successor event to its node's shard: own heap or
// outbox (the eager shard owns every node). Cross-shard events always
// carry time ≥ the window horizon (they are service finishes of events
// popped at or after the window start), so merging them at the barrier
// preserves the lookahead.
func (sh *shard) push(s *shardSet, node metric.Point, e event) {
	if sh.eager {
		sh.h.Push(e)
	} else if d := s.owner(node); d == sh {
		sh.h.Push(e)
	} else {
		sh.outbox[d.id] = append(sh.outbox[d.id], e)
	}
}

// settle takes one globally ordered side effect: applied at once by
// the eager shard, whose pop order is the global event order; recorded
// for the barrier's ordered replay otherwise.
func (sh *shard) settle(r *runner, rec doneRec) {
	if sh.eager {
		r.apply(rec)
		return
	}
	sh.done = append(sh.done, rec)
}

// apply performs one settled side effect: park a stranded message,
// coalesce a lookup onto its carrier (completing it at once if the
// carrier already completed), or complete a message.
func (r *runner) apply(rec doneRec) {
	msg := rec.msg
	switch {
	case rec.strand:
		r.strand(msg, rec.leader, rec.at.time)
	case rec.merge:
		r.merged[msg] = true
		r.out.Aggregated++
		if r.tel != nil {
			r.tel.Merge(msg, rec.at.time)
		}
		if r.doneAt[rec.leader] >= 0 {
			// The carrier already completed (its later hops resolved
			// before this arrival); settle at its completion time.
			lr := r.out.Results[rec.leader]
			fr := r.walkers[msg].Result()
			fr.Delivered = lr.Delivered
			fr.Target = lr.Target
			r.completeLive(msg, r.doneAt[rec.leader], fr)
		} else {
			r.followers[rec.leader] = append(r.followers[rec.leader], msg)
		}
	default:
		r.completeLive(msg, rec.finish, rec.res)
	}
}

// barrier is the window's sequential epilogue: merge cross-shard
// handoffs in event order and replay the window's side effects in
// event order. After it returns the run state is byte-identical to the
// eager plan having just processed the same events.
func (s *shardSet) barrier(r *runner) {
	// Handoffs: collect, order by (time, msg, idx), admit to the
	// destination heaps. The destination is recomputed from the
	// message's position — the handoff event *is* "msg arrives at
	// pos[msg]". Heap admission is order-independent (the pop sequence
	// is a function of the multiset), but the deterministic merge keeps
	// the structure honest if the heap is ever swapped for something
	// order-sensitive, and costs one sort of a small batch.
	s.moved = s.moved[:0]
	for _, sh := range s.shards {
		sent := 0
		for d := range sh.outbox {
			sent += len(sh.outbox[d])
			s.moved = append(s.moved, sh.outbox[d]...)
			sh.outbox[d] = sh.outbox[d][:0]
		}
		if r.tel != nil && sent > 0 {
			r.tel.SchedHandoffs(sh.id, sent)
		}
	}
	sort.Slice(s.moved, func(i, j int) bool { return eventLess(s.moved[i], s.moved[j]) })
	for _, e := range s.moved {
		s.owner(r.pos[e.msg]).arriving++
	}
	for _, sh := range s.shards {
		if sh.arriving > 0 {
			// One growth per batch, not one per push: the next window's
			// drain then runs allocation-free on the heap side.
			sh.h.Reserve(sh.h.Len() + sh.arriving)
			sh.arriving = 0
		}
	}
	for _, e := range s.moved {
		s.owner(r.pos[e.msg]).h.Push(e)
	}

	// Side effects, in global event order, through the apply step the
	// eager plan uses. Unlocked injections go to r.pend: every record
	// here carries finish ≥ horizon, so they belong to later windows by
	// the lookahead argument.
	s.recs = s.recs[:0]
	for _, sh := range s.shards {
		s.recs = append(s.recs, sh.done...)
		sh.done = sh.done[:0]
	}
	sort.Slice(s.recs, func(i, j int) bool {
		if eventLess(s.recs[i].at, s.recs[j].at) {
			return true
		}
		if eventLess(s.recs[j].at, s.recs[i].at) {
			return false
		}
		return s.recs[i].seq < s.recs[j].seq
	})
	if r.churn != nil {
		// One ops-heap growth for the whole batch of strand parks, not
		// one per push; the replay loop below then runs allocation-free
		// on the op-queue side.
		strands := 0
		for i := range s.recs {
			if s.recs[i].strand {
				strands++
			}
		}
		if strands > 0 {
			r.churn.ops.Reserve(r.churn.ops.Len() + strands)
		}
	}
	for _, rec := range s.recs {
		// Strand parks replayed here, in (at, seq) order, take churn-op
		// sequence numbers in exactly the eager plan's order — the op
		// queue's deterministic tie-break.
		r.apply(rec)
	}
}
