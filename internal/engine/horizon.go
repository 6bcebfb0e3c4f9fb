package engine

import "repro/internal/mathx"

// This file is the barrier settlement of the live loop (shard.go has
// the model overview and the arrival path): the window coordinator and
// the admission pass that turns pending injections into walkers and
// first-arrival events. The eligibility gate is Config.Plan (mode.go):
// the loop runs in windows only when the plan resolved to
// PlanLiveSharded; otherwise one shard settles eagerly.

// injectionLess orders pending injections by (time, msg) — the order
// the eager plan pops their idx-0 events in, since no message is
// injected twice.
func injectionLess(a, b Injection) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Msg < b.Msg
}

// runSharded drives the partitioned live loop: pick the earliest
// pending instant, admit every injection below that window's horizon,
// drain all shards in parallel below it, then barrier. The horizon is
// one service time past the window start — the engine's lookahead:
// every successor of a processed event finishes at least one service
// time later, so nothing processed this window can add same-window
// work anywhere, and every injection a completion unlocks belongs to
// a later window too (completion times are successor finish times).
//
// With churn attached the membership layer becomes a window barrier:
// churn ops due at or before the window start apply here, sequentially,
// before any admission or drain (ops win ties, so an event at w sees
// the world as of w — the same tie rule the eager drain pins), and
// the horizon is clipped at the next pending op instant, so the graph
// and membership state are immutable while the shards drain. The one
// op kind born during a drain — a strand's probe-timeout resumption —
// is deferred as a doneRec and replayed at the barrier in global event
// order, and lands at t + ProbeTimeout ≥ horizon by the eligibility
// gate (Config.Plan requires ProbeTimeout ≥ the lookahead), so it
// never belongs to the window that created it.
func (r *runner) runSharded() {
	r.pend = mathx.NewHeap(injectionLess, len(r.sched.Initial))
	for _, inj := range r.sched.Initial {
		r.pend.Push(inj)
	}
	s := r.shards
	for r.err == nil {
		w, ok := s.nextTime(r)
		if !ok {
			return
		}
		if r.churn != nil {
			// Barrier-time membership mutation: crashes, joins, link
			// redraws, rumor rounds, and strand resumptions due at or
			// before the window start run now, on one goroutine, against
			// quiescent shard heaps. Events they push route to the owning
			// shard (runner.pushEvent) and carry time ≥ w.
			for r.churn.ops.Len() > 0 && r.churn.ops.Peek().time <= w {
				r.churnOp(r.churn.ops.Pop())
				if r.err != nil {
					return
				}
			}
		}
		horizon := w + r.serviceTime
		if r.churn != nil && r.churn.ops.Len() > 0 && r.churn.ops.Peek().time < horizon {
			// Clip the window at the next churn-op instant: nothing may
			// mutate membership while the shards drain, and the op applies
			// at the next window's start under the ops-first tie rule.
			horizon = r.churn.ops.Peek().time
		}
		if r.admitWindow(s, horizon); r.err != nil {
			return
		}
		s.drainWindow(r, horizon)
		s.barrier(r)
	}
}

// admitWindow processes pending injections below the horizon in
// (time, msg) order through the admission body the eager plan runs at
// the first arrival's pop (admitLive), then sends the first-arrival
// event to the origin's shard. Born-delivered lookups complete on the
// spot; their closed-loop successors can land back under the horizon (a
// think time of zero re-injects at the same instant), so the loop keeps
// consuming the pending heap until it clears the window.
//
// Creating walkers at admission rather than at the event pop is the
// one scheduling difference from the eager plan, and it is
// unobservable: for a shardable configuration walker creation is a
// pure function of the graph, the placement, and the message (no
// congestion signal, no cache churn), consumes no rng, and touches no
// queue state. That argument survives churn because membership only
// mutates between windows — every churn op at or below the window
// start has applied before admission, and none is pending below the
// horizon — so the graph an admitted walker reads is exactly the graph
// the eager plan's pop would have read.
func (r *runner) admitWindow(s *shardSet, horizon float64) {
	for r.pend.Len() > 0 && r.pend.Peek().Time < horizon {
		inj := r.pend.Pop()
		r.injectAt(inj.Msg, inj.Time)
		if r.admitLive(inj.Msg, inj.Time) {
			s.owner(r.pos[inj.Msg]).h.Push(event{time: inj.Time, msg: inj.Msg, idx: 0})
		} else if r.err != nil {
			return
		}
	}
}
