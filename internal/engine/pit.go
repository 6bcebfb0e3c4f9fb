package engine

import (
	"repro/internal/metric"
	"repro/internal/route"
	"repro/internal/telemetry"
)

// This file is ModeLivePIT: per-node pending-interest tables and the
// answer leg, as the PIT branch of the live arrival path (shard.go).
// Globally ordered side effects go through settle like the rest of the
// loop, so both plans run this code.
//
// The request leg works like plain live mode — one FIFO service per
// hop, the walker deciding the next hop at each service — with two
// differences. Every request service plants (or refreshes) a pending
// interest at its node, keyed (node, key), expiring PITTimeout after
// the service finishes. And a request *arriving* at a node whose
// same-key interest is still pending does not enter the queue at all:
// it parks as a waiter on that entry, with its own timeout event in
// case the answer never comes. That suppression is the network-wide
// generalization of per-queue aggregation — the two requests need not
// be queued at the same instant, only within an interest lifetime.
// Suppression is once per lifetime per lookup: a wait that expires
// marks its message expiredOnce, and such a lookup forwards past every
// later pending interest (while still planting its own). Without that
// rule a retrying waiter could park behind another stranded carrier
// and chain timeout upon timeout; with it, the protocol's worst lawful
// wait is exactly one interest lifetime.
//
// Delivery flips the message onto its answer leg: the answer retraces
// the reverse of the request path hop by hop, charging the same FIFO
// capacity (one service per node, the delivery target and the origin
// included). Each answer service consumes the node's pending interest
// and multicasts to its waiters: every waiter forks its own answer leg
// from the release point back down its own partial path to its origin.
// A lookup's latency is measured to *answer receipt* — the finish of
// the answer service at its origin — not to delivery.
//
// Event encoding. Request and answer arrivals use the usual
// nonnegative monotone idx chain (each service pushes the popped
// idx+1; a released waiter continues from its suppressed arrival's
// idx). Timeout events carry idx = -waits[msg], the per-message
// suppression ordinal — negative so they collide with nothing, unique
// so a stale timeout (its wait already ended by answer or by an
// earlier expiry) is detected by comparing against the pitWait
// registry and dropped. pitWait is shard-local: a waiter parks at one
// node, so its suppression, release, and timeout all pop at that
// node's shard, and a stale timeout touches nothing but that shard's
// own map.
//
// Shard eligibility. PIT runs stay shardable even under closed-loop
// schedules (unlike aggregation, see Config.Plan): every completion —
// leader at its origin's answer service, waiter at its release
// service or its origin's answer service — carries a service finish
// time, which lies at or beyond the window horizon, so the injections
// it unlocks always belong to later windows.

// pitEntry is one pending interest: when it lapses and the suppressed
// lookups waiting on the answer. The waiter list may hold stale
// entries (waits ended by timeout); refreshes compact it and releases
// check the pitWait registry, so staleness costs nothing but slack in
// the PITWaiters bound.
type pitEntry struct {
	expiry  float64
	waiters []int
	// owner is the lookup whose service most recently planted or
	// refreshed this interest. A backtracking walk can revisit a node
	// it already forwarded through; suppressing it against its own
	// interest would park it waiting for itself until the timeout, so
	// the owner is exempt.
	owner int
}

// answerResult is a completing lookup's final Result: its own walk so
// far, marked delivered at the answering target. For a released waiter
// that is a partial path ending at the release point — the same
// carrier-answered shape aggregation reports for coalesced lookups.
func (r *runner) answerResult(m int) route.Result {
	res := r.walkers[m].Result()
	res.Delivered = true
	res.Target = r.ansTarget[m]
	return res
}

// spawnAnswer flips a delivered lookup onto its answer leg: the
// reverse of the full visited path, starting with a generation service
// at the delivery target itself. Delivery, not answer receipt, is the
// popularity signal, so cache-on-path observes here (caching runs are
// single-shard by plan, so the placement is never shared by drains).
func (r *runner) spawnAnswer(m int, finish float64, res route.Result) {
	if r.caching {
		r.cfg.Placement.Observe(r.msgs[m].Key, res.Path)
		if r.tel != nil {
			r.cacheDelta(finish)
		}
	}
	r.answering[m] = true
	r.ansPath[m] = res.Path
	r.ansAt[m] = len(res.Path) - 1
	// The delivering step ended the walk without a service at the
	// target (live-mode discipline: delivery is decided during the
	// penultimate node's service), so the generation service is the
	// target's first and the answer leg is one service per path node.
	r.pos[m] = res.Path[len(res.Path)-1]
	r.ansTarget[m] = res.Target
}

// processPIT handles one PIT-mode arrival: an interest timeout, an
// answer-leg arrival, or a request arrival that either parks on a
// pending same-key interest or is served.
func (sh *shard) processPIT(r *runner, s *shardSet, a event) {
	m := a.msg
	if a.idx < 0 {
		// Timeout candidate: valid only if it is the waiter's current
		// timeout — a release or an earlier expiry consumed stale ones.
		if c, ok := sh.pitWait[m]; !ok || c != -a.idx {
			return
		}
		delete(sh.pitWait, m)
		r.expiredOnce[m] = true
		sh.expired++
		if sh.view != nil {
			sh.view.PITExpire(a.time)
		}
		if r.churn != nil && !r.g.Alive(r.pos[m]) {
			// The wait node died under the waiter: no service can happen
			// here, so the re-forward goes through the strand discipline —
			// one more probe window, then a serviceless step out.
			sh.settle(r, doneRec{at: a, msg: m, strand: true, leader: r.waitIdx[m]})
			return
		}
		// The wait is over: re-forward from the wait node, skipping the
		// suppression check — the entry here demonstrably failed to
		// produce an answer within an interest lifetime.
		sh.servePIT(r, s, a, r.waitIdx[m])
		return
	}
	if a.idx == 0 && r.walkers[m] == nil && !r.admitLive(m, a.time) {
		return
	}
	if r.churn != nil && !r.g.Alive(r.pos[m]) {
		// Request or answer, the arrival found its node dead: strand.
		// An interest pending here will never multicast — its waiters
		// expire on their own timeouts, the waiters-must-expire rule.
		sh.settle(r, doneRec{at: a, msg: m, strand: true, leader: a.idx})
		return
	}
	if r.answering[m] {
		sh.serveAnswer(r, s, a)
		return
	}
	node := r.pos[m]
	if e, ok := sh.pit[aggKey{node: node, key: r.msgs[m].Key}]; ok &&
		e.owner != m && !r.expiredOnce[m] && a.time < e.expiry && len(e.waiters) < r.cfg.PITWaiters {
		// A same-key interest is pending here: park instead of
		// forwarding, with a timeout in case the answer never comes.
		r.waits[m]++
		sh.pitWait[m] = r.waits[m]
		r.waitIdx[m] = a.idx
		e.waiters = append(e.waiters, m)
		sh.suppressed++
		if sh.view != nil {
			sh.view.Suppress(a.time)
		}
		// PITTimeout may be shorter than the lookahead, so the timeout
		// can land inside the current window — safe, because it fires at
		// the wait node: same shard, same heap, same pop order.
		sh.h.Push(event{time: a.time + r.cfg.PITTimeout, msg: m, idx: -r.waits[m]})
		return
	}
	sh.servePIT(r, s, a, a.idx)
}

// servePIT services message m's request arrival at its current node:
// plant or refresh the interest, step the walker, and either forward,
// fail, or flip onto the answer leg. a is the popped event (the
// settle key); fwdIdx is the idx the forward chain continues from —
// a.idx normally, the suppressed arrival's idx on a timeout re-forward.
func (sh *shard) servePIT(r *runner, s *shardSet, a event, fwdIdx int) {
	m := a.msg
	node := r.pos[m]
	start, finish, depth := r.serveAt(&sh.tally, node, a.time)
	pk := aggKey{node: node, key: r.msgs[m].Key}
	e := sh.pit[pk]
	if e == nil {
		e = &pitEntry{}
		sh.pit[pk] = e
	} else if len(e.waiters) > 0 {
		e.waiters = sh.liveWaiters(r, node, e.waiters)
	}
	e.expiry = finish + r.cfg.PITTimeout
	e.owner = m
	w := r.walkers[m]
	stepped := r.step(w, a.time)
	if sh.view != nil {
		sh.view.Hop(m, node, a.time, start, finish, depth, hopDecision(w))
	}
	if stepped {
		next := w.At()
		r.pos[m] = next
		sh.push(s, next, event{time: finish, msg: m, idx: fwdIdx + 1})
		return
	}
	res := w.Result()
	if !res.Delivered {
		sh.settle(r, doneRec{at: a, msg: m, finish: finish, res: res})
		return
	}
	// Delivered: the generation service happens at the target, which
	// may live on another shard; the event carries a service finish ≥
	// the window horizon, so the outbox hand-off is as safe as a
	// forwarding hop.
	r.spawnAnswer(m, finish, res)
	sh.push(s, r.pos[m], event{time: finish, msg: m, idx: fwdIdx + 1})
}

// serveAnswer services one answer arrival: the answer passes through
// this node, satisfying its pending interest — a multicast releasing
// every still-valid waiter, each forking its own answer leg from the
// release point back down its partial path (a waiter suppressed at its
// own origin has no leg to retrace: this service is its receipt) — and
// moves one hop down the reverse path, or, past the path's start, has
// reached the lookup's origin: receipt, the completion instant. Waiters
// park at this node, so the released state is this shard's. One service
// can complete several lookups, so their records carry a within-pop
// ordinal (doneRec.seq) that keeps the barrier replay in this order.
func (sh *shard) serveAnswer(r *runner, s *shardSet, a event) {
	m := a.msg
	node := r.pos[m]
	start, finish, depth := r.serveAt(&sh.tally, node, a.time)
	if sh.view != nil {
		sh.view.Hop(m, node, a.time, start, finish, depth, telemetry.DecisionAnswer)
	}
	seq := 0
	pk := aggKey{node: node, key: r.msgs[m].Key}
	if e, ok := sh.pit[pk]; ok {
		delete(sh.pit, pk)
		fan := 0
		for _, w := range e.waiters {
			if _, waiting := sh.pitWait[w]; !waiting || r.pos[w] != node {
				continue // wait already ended, or re-parked elsewhere
			}
			delete(sh.pitWait, w)
			fan++
			path := r.walkers[w].Visited()
			r.answering[w] = true
			r.ansPath[w] = path
			r.ansAt[w] = len(path) - 2
			r.ansTarget[w] = r.ansTarget[m]
			if r.ansAt[w] < 0 {
				sh.settle(r, doneRec{at: a, seq: seq, msg: w, finish: finish, res: r.answerResult(w)})
				seq++
				continue
			}
			next := path[r.ansAt[w]]
			r.pos[w] = next
			sh.push(s, next, event{time: finish, msg: w, idx: r.waitIdx[w] + 1})
		}
		if fan > 0 {
			sh.fanout += fan
			if sh.view != nil {
				sh.view.Multicast(finish, fan)
			}
		}
	}
	r.ansAt[m]--
	if r.ansAt[m] >= 0 {
		next := r.ansPath[m][r.ansAt[m]]
		r.pos[m] = next
		sh.push(s, next, event{time: finish, msg: m, idx: a.idx + 1})
		return
	}
	sh.settle(r, doneRec{at: a, seq: seq, msg: m, finish: finish, res: r.answerResult(m)})
}

// liveWaiters compacts a waiter list in place, keeping only lookups
// still parked at this node.
func (sh *shard) liveWaiters(r *runner, node metric.Point, ws []int) []int {
	kept := ws[:0]
	for _, w := range ws {
		if _, ok := sh.pitWait[w]; ok && r.pos[w] == node {
			kept = append(kept, w)
		}
	}
	return kept
}
