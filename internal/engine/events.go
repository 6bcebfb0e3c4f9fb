package engine

import (
	"repro/internal/mathx"
	"repro/internal/metric"
)

// Injection schedules message Msg to enter the network at virtual time
// Time. (Package load re-exports this type as load.Injection, so the
// arrival models there feed the engine directly.)
type Injection struct {
	Msg  int
	Time float64
}

// Schedule is the arrival side of a run: the injections known before
// the event loop starts, plus the closed-loop feedback hook. Completed
// is consulted whenever a message leaves the system — its last service
// finished, delivered or not — and returns the injection that
// completion unlocks, if any; the returned time must not precede the
// completion time. Both fields are consumed only from sequential
// event-loop code: the sharded live loop consults them at admission
// and during the barrier's ordered replay, never from a parallel
// drain.
type Schedule struct {
	Initial   []Injection
	Completed func(msg int, at float64) (Injection, bool)
}

// event is one message reaching its idx-th visited node at a virtual
// time: the engine's single event type. Events are ordered by
// (time, msg, idx) — a strict total order, since no message reaches
// two nodes at the same instant — so the heap's pop sequence, and with
// it the whole simulation, is independent of push order. The
// pending-interest response path reuses the type for interest
// timeouts, marked by a negative idx (the per-message suppression
// ordinal; see pit.go), which keeps the order total because a hop
// event's idx is never negative.
type event struct {
	time float64
	msg  int // message index; the deterministic tie-break
	idx  int // position in the message's visited sequence
}

// eventLess is the engine's total event order.
func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.msg != b.msg {
		return a.msg < b.msg
	}
	return a.idx < b.idx
}

// newEventHeap returns an event heap with room for capacity events.
func newEventHeap(capacity int) *mathx.Heap[event] {
	return mathx.NewHeap(eventLess, capacity)
}

// nodeQueue tracks one node's FIFO: the virtual time its server frees
// up, and the finish times of messages still in the system (for queue-
// depth accounting). finish is consumed front-to-back, so a head index
// replaces repeated slicing.
type nodeQueue struct {
	busyUntil float64
	finish    []float64
	head      int
}

// depthAt drains completed services and returns how many messages are
// still queued or in service at time t. A service finishing exactly at
// t has left the system; one arriving exactly at t is in it. This is
// the engine's O(1)-amortized live depth lookup: each finish entry is
// pushed once and drained once, however often routing probes the
// queue.
func (q *nodeQueue) depthAt(t float64) int {
	for q.head < len(q.finish) && q.finish[q.head] <= t {
		q.head++
	}
	if q.head == len(q.finish) {
		q.finish = q.finish[:0]
		q.head = 0
	}
	return len(q.finish) - q.head
}

// serve queues one arrival at time t behind the server's backlog and
// serves it for serviceTime ticks, returning when its service starts
// and finishes and the depth it saw on arrival (itself included). It is
// the engine's one copy of the FIFO arithmetic: the live loop, snapshot
// replay, churn gossip charging and the scratch replay all serve
// through it.
func (q *nodeQueue) serve(t, serviceTime float64) (start, finish float64, depth int) {
	depth = q.depthAt(t) + 1
	start = t
	if q.busyUntil > start {
		start = q.busyUntil
	}
	finish = start + serviceTime
	q.busyUntil = finish
	q.finish = append(q.finish, finish)
	return start, finish, depth
}

// replayMsg is one pre-routed message entering a scratch replay: an
// injection time (assigned by the schedule during the replay), the
// node sequence its search serviced, and whether it delivered.
type replayMsg struct {
	inject    float64
	path      []metric.Point
	delivered bool
}

// replayOutcome aggregates one scratch replay.
type replayOutcome struct {
	loads         []int     // services charged per grid point
	maxQueueDepth int       // peak of any node's queue (incl. in service)
	latencies     []float64 // end-to-end latency of each delivered message
	services      int       // total message-hops serviced
	injected      int       // messages the schedule actually injected
	lastInject    float64   // latest injection time that occurred
	makespan      float64   // finish time of the last service
	probeDepths   []int     // per-node in-system count at the probe time (nil unless probed)
}

// replay runs pre-routed messages against per-node FIFO queues in
// virtual time: the whole-schedule form of the engine's event loop,
// kept as a standalone function because the depth probes of
// closed-loop snapshot runs need to replay a traffic prefix in
// isolation (see runner.prefixDepths) and because it is the executable
// specification the engine's incremental loop is tested against.
//
// Every node of a message's path serves it for serviceTime ticks, one
// message at a time; the message leaves node i the instant its service
// there completes and joins node i+1's queue. A message's latency is
// the completion of service at its final path node minus its injection
// time. Injection times come from `initial` plus the `completed` hook
// (the closed-loop feedback path); a message with an empty path
// occupies no queue and completes the instant it is injected, still
// unlocking its successor.
//
// A non-negative probe time additionally records, per node, how many
// messages were in system (queued or in service) at that instant: a
// service with arrival time ≤ probe and finish > probe counts,
// matching depthAt's boundary convention.
func replay(size int, msgs []replayMsg, serviceTime float64,
	initial []Injection, completed func(msg int, at float64) (Injection, bool),
	probe float64) replayOutcome {
	out := replayOutcome{loads: make([]int, size)}
	if probe >= 0 {
		out.probeDepths = make([]int, size)
	}
	queues := make([]nodeQueue, size)
	h := newEventHeap(len(initial))
	// enqueue admits one injection, chasing chains of path-less messages
	// (which complete immediately and may unlock further injections).
	enqueue := func(inj Injection) {
		for {
			msgs[inj.Msg].inject = inj.Time
			out.injected++
			if inj.Time > out.lastInject {
				out.lastInject = inj.Time
			}
			if len(msgs[inj.Msg].path) > 0 {
				h.Push(event{time: inj.Time, msg: inj.Msg, idx: 0})
				return
			}
			if completed == nil {
				return
			}
			next, ok := completed(inj.Msg, inj.Time)
			if !ok {
				return
			}
			inj = next
		}
	}
	for _, inj := range initial {
		enqueue(inj)
	}
	for h.Len() > 0 {
		a := h.Pop()
		msg := &msgs[a.msg]
		node := msg.path[a.idx]
		_, finish, depth := queues[node].serve(a.time, serviceTime)
		if depth > out.maxQueueDepth {
			out.maxQueueDepth = depth
		}
		out.loads[node]++
		out.services++
		if finish > out.makespan {
			out.makespan = finish
		}
		if out.probeDepths != nil && a.time <= probe && probe < finish {
			out.probeDepths[node]++
		}
		if a.idx+1 < len(msg.path) {
			h.Push(event{time: finish, msg: a.msg, idx: a.idx + 1})
			continue
		}
		if msg.delivered {
			out.latencies = append(out.latencies, finish-msg.inject)
		}
		if completed != nil {
			if next, ok := completed(a.msg, finish); ok {
				enqueue(next)
			}
		}
	}
	return out
}
