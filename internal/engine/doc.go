// Package engine is the discrete-event core of the traffic subsystem:
// one virtual-time event loop in which routing, queueing, replication,
// and caching share a clock. It folds the pipeline's historical
// route-then-replay split — compute every path against a frozen
// congestion snapshot, then replay hops through FIFO queues — into a
// single simulation, so forwarding decisions can read *live* state.
//
// # The event loop
//
// There is one event type: "message m reaches its idx-th visited node
// at time t". Events are processed in the strict total order
// (time, msg, idx); each event parks the message in the node's FIFO,
// serves it for 1/Capacity ticks once the server frees up, and decides
// what happens at the service:
//
//	          ┌────────────────────────────────────────────────┐
//	          │                 event heap                      │
//	          │        pop min (time, msg, idx)                 │
//	          └───────────────┬────────────────────────────────┘
//	                          ▼
//	          node FIFO: wait ≤ busyUntil, serve 1/Capacity
//	                          │ charge load, update depth
//	                          ▼
//	    snapshot mode                     live mode
//	next := path[idx+1]          next := Walker.Step()   ← reads live
//	(path precomputed per        (decision made now:       load, depth,
//	 congestion batch)            Penalty/DepthPenalty     replicas
//	                              over live queues)
//	                          │
//	          ┌───────────────┴───────────────┐
//	          ▼                               ▼
//	 push (finish, msg, idx+1)        message completes:
//	                                  latency, cache Observe,
//	                                  closed-loop injection
//
// # Snapshot mode (ModeSnapshot)
//
// Messages route in batches of Config.BatchSize against a congestion
// signal frozen at the batch boundary, exactly as the pre-engine
// pipeline did — byte-for-byte: the per-message rng streams, the
// batch cadence, the queue mechanics and the tie-breaking all match,
// so the seeded goldens pinned before the engine existed still pass,
// for any worker count. What changed is the cost of the
// instantaneous-depth probe (Config.DepthPenalty): the engine advances
// its own loop to the batch's first injection and reads each node's
// depth off the live queue in O(1) amortized, where the old pipeline
// re-replayed the whole routed prefix every batch — O(n²/batch) heap
// work. (Closed-loop schedules, whose later injections are not yet
// known at the boundary, still replay the prefix in a scratch loop to
// keep the historical estimate bit-exact.)
//
// # Live mode (ModeLive, ModeLiveAggregate, ModeLivePIT)
//
// Every forwarding decision happens at the service that forwards the
// message, through the resumable route.Walker: the congestion penalty
// reads the load charged so far, the depth penalty reads the
// candidate's queue depth at the decision instant, and replica targets
// and cache-on-path placements are consulted per injection and per
// delivery instead of per batch. This is the paper's online model —
// each node forwards on what it can observe locally at forwarding time
// — extended to congestion state.
//
// Under ModeLiveAggregate, same-key lookups that meet in a node's
// queue coalesce: a lookup arriving while another lookup for the same
// key is queued or in service there rides along — it occupies no
// queue anywhere downstream and completes the instant its carrier
// completes. Under a hot-key flood this collapses the duplicate
// service load on the victim's in-neighbourhood, which is what moves
// the flood knee past what replication alone buys.
//
// The Mode enum names the four modes (ModeSnapshot, ModeLive,
// ModeLiveAggregate, ModeLivePIT), and Config.Plan reports — ahead of
// Run — which plan a configuration will take and the pinned reason
// string.
//
// # Response path (ModeLivePIT)
//
// Under ModeLivePIT (live mode's third variant), a delivered lookup
// is not the end of the story: the answer travels back. Every request
// service plants a pending interest for the message's key at the
// serving node, and the lifecycle of a lookup becomes:
//
//	      request leg                       answer leg
//	inject ─► hop ─► hop ─► deliver ─► answer retraces the visited
//	    │serve: plant interest │       path in reverse, hop by hop,
//	    │at each node, FIFO as │       through the same per-node
//	    │usual                 │       FIFOs; latency is measured to
//	    │                      │       answer receipt at the origin
//	    ▼                      ▼
//	a later same-key lookup    each answer service consumes the
//	reaching any node with a   node's interest entry and multicasts
//	pending interest parks     to its waiters: a released waiter
//	there (network-wide        forks its own answer leg from the
//	suppression): it occupies  release point back down its own
//	no queue and spawns no     partial path to its origin
//	events while parked
//
// Each interest entry is bounded: at most Config.PITWaiters lookups
// park on it (later arrivals forward normally), and a parked lookup
// waits at most Config.PITTimeout virtual ticks — an interest timeout
// (a heap event with negative idx; see pit.go) re-forwards the waiter
// from where it parked, and a lookup whose wait has expired once is
// never suppressed again, so the protocol adds at most one interest
// lifetime to any lookup's latency. The suppression ledger balances
// exactly: Suppressed = MulticastFanout + PITExpired. Under a hot-key
// flood, suppression collapses duplicate work network-wide — not just
// per queue as aggregation does — at the price of charging every
// delivery its answer's return trip.
//
// # One live loop, two settlements (Config.Shards)
//
// Every live plan runs the same loop: shards own contiguous regions of
// the metric space (shardOf), each with a private event heap, and one
// function handles every live arrival (shard.process, with its PIT
// branch). Side effects whose order is globally visible — completions,
// latencies, aggregation merges, closed-loop unlocks, churn strand
// parks, PIT waiter completions — go through one settle step. What
// differs between the plans is only when settlement happens.
//
// PlanLiveSequential runs one shard with eager settlement: it owns
// every node, pops events in (time, msg, idx) order, and applies each
// side effect the moment it is produced. A message's walker is created
// when its first arrival pops, so congestion penalties, depth probes,
// cache churn, and closed-loop aggregation — the configurations that
// read global state — see the world as of that instant.
//
// PlanLiveSharded runs several shards with barrier settlement, a
// conservative parallel discrete-event simulation (an α-synchronizer;
// one eager shard is its degenerate case). Shards advance together
// through virtual-time windows bounded by the safe horizon
// W + 1/Capacity — the service time is the lookahead, since any event
// at t ≥ W spawns its successor no earlier than t + 1/Capacity:
//
//	        W = min over shards (and pending injections)
//	                       │
//	                       ▼
//	  admit: injections with time < W + 1/Capacity,
//	         sequentially in (time, msg) order
//	                       │
//	                       ▼
//	┌─ shard 0 ─┐   ┌─ shard 1 ─┐   ┌─ shard k ─┐
//	│ drain own │   │ drain own │…  │ drain own │   (parallel:
//	│ heap to   │   │ heap to   │   │ heap to   │    own nodes'
//	│ horizon   │   │ horizon   │   │ horizon   │    queues only)
//	└─────┬─────┘   └─────┬─────┘   └─────┬─────┘
//	      │   outboxes: cross-shard hops  │
//	      │   done-records: side effects  │
//	      └───────────────┬───────────────┘
//	                       ▼
//	  barrier: merge outboxes and apply side effects
//	           in (time, msg, idx) order
//	                       │
//	                       ▼  next window
//
// Cross-shard forwards buffer in per-destination outboxes and are
// pushed at the barrier; side effects are recorded during the parallel
// drain and applied at the barrier in the global event order, through
// the same apply function the eager plan calls, so every observable
// byte — loads, latencies in completion order, aggregation
// bookkeeping, error choice — matches one shard exactly.
// Configurations whose forwarding decisions read global mutable
// signals run on one shard; see Config.Shards.
//
// Churn rides the same window machinery by becoming part of the
// barrier: the churn schedule is materialized before the run, so each
// window's horizon is clipped at the next churn-op instant and the
// membership mutation applies between drains, where one goroutine owns
// everything:
//
//	  churn ops due at the window start W apply sequentially
//	  (crash/join, link redraws, rumor rounds, strand resumes)
//	                       │
//	                       ▼
//	  horizon = min(W + 1/Capacity, next churn-op instant)
//	                       │
//	                       ▼
//	┌─ shard 0 ─┐   ┌─ shard 1 ─┐   ┌─ shard k ─┐   graph and
//	│ drain to  │   │ drain to  │…  │ drain to  │   membership
//	│ horizon   │   │ horizon   │   │ horizon   │   frozen
//	└─────┬─────┘   └─────┬─────┘   └─────┬─────┘
//	      │  arrivals at dead nodes defer │
//	      │  as strand records            │
//	      └───────────────┬───────────────┘
//	                       ▼
//	  barrier: apply completions and strand parks in
//	           (time, msg, idx) order — op seq numbers
//	           assigned exactly as the eager plan's
//	                       │
//	                       ▼  next window
//
// Gossip sends and rumor-round events route to the owning shard's
// heap, and a strand's probe-timeout resume lands at or beyond the
// horizon because eligibility requires ProbeTimeout ≥ 1/Capacity
// (Config.Plan; faster probes run on one shard, PlanReasonChurn).
//
// # Node dynamics (Config.Churn)
//
// With Config.Churn enabled (live mode only), nodes crash and join
// *during* the run: a failure.ChurnSpec expands into a timestamped
// schedule whose events share the virtual clock with the traffic. The
// churn op queue — schedule events, probe-timeout detections, gossip
// rounds, stranded-message resumptions — drains interleaved with the
// event heaps, churn ops first at equal instants, so a message arriving
// at t sees the world as of t. A crash is die-after-commit: the
// service the node already committed to completes, every later arrival
// strands, waits one ProbeTimeout, and re-forwards from the dead node.
// Repair is gossip membership, not an oracle: neighbours detect the
// event when their probes go unanswered, rumors push to GossipFanout
// random alive peers every GossipInterval (each transmission one FIFO
// service at the sender, so dissemination competes with traffic), and
// a node redraws its long links into a dead node only once it has
// *learned* of the crash. A join revives the node, redraws its §5
// long-range links, and bootstraps its view from alive neighbours.
// Churn runs shard like any other live run — mutations apply at
// window barriers, windows clip at churn-op instants (see the diagram
// above) — as long as ProbeTimeout covers the one-service-time
// lookahead; see churn.go for the full mechanics and internal/failure
// for the schedule model.
//
// Determinism: both modes are pure functions of (graph, messages,
// schedule, config, root source). Snapshot mode parallelizes path
// computation but keys every message to its own derived rng stream;
// the live loop settles eagerly on one shard and at barriers on
// several. Either way, results are byte-identical for every
// Config.Workers and Config.Shards value.
//
// Observability: a telemetry.Recorder (Config.Telemetry) hooks the
// loops at their sequential choke points — injection admission,
// completion/merge bookkeeping, and cache-churn polling all run from
// sequential code in every mode — plus the per-event service, hop, and
// PIT records, which every shard writes to its own telemetry.View (the
// eager shard and the sequential code share view 0; each view has one
// writer at a time and folds at EndRun), and the barrier profiles with
// wall-clock drain/wait splits. The recorder
// never feeds back into routing, consumes no simulation randomness,
// and keys its window timeseries to virtual time, so outcomes and the
// virtual-time telemetry stream are byte-identical at every shard
// count; only the wall-clock scheduler profile varies. A nil recorder
// reduces every hook site to one predictable branch — the hot-path
// alloc tests pin that disabled cost at zero.
package engine
