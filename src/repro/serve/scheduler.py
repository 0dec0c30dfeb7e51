"""The serving event loop, and its single-pool placement.

:class:`SchedulerCore` is the one deterministic event-driven loop over
*simulated* time that both serving tiers run:

* **Admission** — a bounded queue per placement group.  When
  ``max_queue`` requests are already waiting, new arrivals are shed with
  a typed :class:`Overloaded` error (load shedding beats queueing
  collapse for deadline-bound traffic).
* **Batching window** — an admitted request waits up to
  ``batch_window_ms`` for same-primitive batch mates (or until
  ``max_lanes`` are queued), then the group becomes dispatchable.
* **Take** — the most urgent ready group (earliest deadline first) is
  drained; requests whose deadline already passed are dropped rather
  than executed, and requests a fresher cache entry now answers
  complete as late hits.
* **Streaming updates** — a graph update either bumps the version
  (invalidate everything) or, on the incremental path, selects the warm
  repairable cache entries it would orphan and re-derives them through
  :func:`~repro.dynamic.incremental.repair_payload`.

A subclass supplies *placement* — where a taken group runs, what a fault
costs, and when its results become cache-visible.
:class:`DeadlineScheduler` is the single-pool placement: the
lowest-numbered idle device (each device is its own
:class:`~repro.simt.machine.Machine`, so service cost is that device's
simulated makespan for the batched execution), results committed and
requests completed *at dispatch*.  A seeded Bernoulli draw per dispatch
models a transient mid-request fault; recovery reuses
:class:`~repro.resilience.recovery.RetryPolicy`: the device pays the
wasted half-execution plus the policy's backoff (charged to the device's
simulated clock), then replays.  The routed, replicated placement is
:class:`~repro.serve.shard_scheduler.ShardScheduler`.

Every decision is a pure function of the event sequence and the seed, so
a replay report is byte-identical across runs.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from ..dynamic.delta import (GraphUpdate, MutationBatch,
                             REPAIRABLE_PRIMITIVES, unaffected_primitives)
from ..dynamic.incremental import repair_payload
from ..graph.csr import Csr
from ..obs.metrics import MetricsRegistry
from ..obs.spans import (CAT_DYNAMIC, CAT_SERVE, current_observer,
                         span as obs_span)
from ..resilience.recovery import RetryPolicy
from ..simt.machine import Machine
from .batcher import Batch, DEFAULT_MAX_LANES, LaneResult, plan_batches
from .service import (Completion, GraphService, Request, VersionedGraph,
                      key_parts, key_primitive)

#: event kinds, in processing order at equal timestamps: graph updates
#: and topology changes (sharded tier: kill, shard-map repair) land
#: before request arrivals (a coinciding arrival sees the new version /
#: the repaired map), and completions land before arrivals (a coinciding
#: duplicate hits the fresh cache); cache repairs land last so foreground
#: work at the same tick wins.  The core handles UPDATE, ARRIVAL and
#: WAKE; the rest belong to the sharded tier
(_EV_UPDATE, _EV_KILL, _EV_REPAIR, _EV_DONE, _EV_ARRIVAL, _EV_HEDGE,
 _EV_WAKE, _EV_CACHE_REPAIR) = range(8)

#: a queue key: (graph, primitive, shard) — shard is None in a single pool
GroupKey = Tuple[str, str, Optional[int]]

OnComplete = Callable[[Request, Completion], Optional[Request]]


class Overloaded(RuntimeError):
    """Typed admission-control rejection: the service queue is full."""

    def __init__(self, rid: int, queue_depth: int, limit: int):
        super().__init__(
            f"request {rid} shed: queue depth {queue_depth} at limit {limit}")
        self.rid = rid
        self.queue_depth = queue_depth
        self.limit = limit


@dataclass
class RepairJob:
    """One background repair: re-derive a warm cache entry after an
    incremental graph update instead of letting it go cold.

    Captures everything the repair algorithm needs *at update time*:
    the pre-update arrays and graph, the mutation batch, and the target
    version — a later update makes the job stale (version guard drops
    it; a fresher job for the same key was queued by that update).
    """

    graph: str
    version: int            # graph version the repaired entry targets
    key: Tuple              # cache query key to repopulate
    primitive: str
    params: Dict
    old_arrays: Dict        # pre-update result arrays
    old_csr: Csr            # pre-update topology (for retraction scans)
    batch: MutationBatch
    sid: int = -1           # owning shard (sharded tier only)


@dataclass
class Device:
    """One serving device: a simulated GPU plus its busy horizon."""

    index: int
    machine: Machine = field(default_factory=Machine)
    busy_until_ms: float = 0.0

    def idle(self, now: float) -> bool:
        return self.busy_until_ms <= now


class SchedulerCore:
    """The event loop both serving tiers run; subclasses add placement.

    A subclass provides ``_dispatch(now)`` (place ready groups, return
    the completions that produced), ``_land_update`` / ``_queue_repair``
    (price an incremental update, schedule its cache repairs), its own
    public ``replay`` seeding any extra events before :meth:`_run`, and
    names handlers for those events in ``_HANDLERS``.
    """

    #: event kind -> name of the method handling it as (payload, now),
    #: for a subclass's own events (names, not bound methods: a bound
    #: method stored on the instance would make it a reference cycle)
    _HANDLERS: Dict[int, str] = {}

    def __init__(self, service: GraphService, *, max_queue: int,
                 batch_window_ms: float, max_lanes: int,
                 retry: Optional[RetryPolicy], fault_rate: float, seed: int,
                 incremental: bool, max_repairs_per_update: int):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError("fault_rate must be in [0, 1)")
        self.service = service
        self.max_queue = max_queue          # per placement group
        self.batch_window_ms = batch_window_ms
        self.max_lanes = max_lanes
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_rate = fault_rate
        self._rng = np.random.default_rng(seed)
        self._queues: Dict[GroupKey, Deque[Request]] = {}
        self._queued: Dict[Optional[int], int] = {}   # depth per shard
        self.completions: List[Completion] = []
        self.recovered_faults = 0
        self.retry_backoff_ms = 0.0
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self._wakes: Set[float] = set()
        # streaming-update state: cache repairs are background work the
        # placement schedules behind the priced cost of landing the update
        self.incremental = incremental
        self.max_repairs_per_update = max_repairs_per_update
        self._repair_jobs: Deque[RepairJob] = deque()
        self.graph_updates = 0
        self.incremental_updates = 0
        self.repairs_incremental = 0
        self.repair_fallbacks = 0
        self.stale_repairs = 0
        self.repair_ms = 0.0
        #: priced cost of landing incremental updates: the delta
        #: apply/compaction on a device, or the broadcast to shard groups
        self.compaction_ms = 0.0
        # per-primitive latency histograms + outcome counters: recorded
        # into this replay's own registry, which ServeReport reads its
        # p50/p95/p99 estimates from, and into the process-wide observer's
        # when one is installed (so `repro serve --metrics` sees them) —
        # a report never reads another replay's samples
        self.metrics = MetricsRegistry()
        observer = current_observer()
        self._registries: Tuple[MetricsRegistry, ...] = (self.metrics,) \
            if observer is None else (self.metrics, observer.metrics)

    # -- bookkeeping -------------------------------------------------------

    def _push(self, time: float, kind: int, payload) -> None:
        heapq.heappush(self._heap, (time, kind, self._seq, payload))
        self._seq += 1

    def _wake(self, time: float) -> None:
        """Schedule a dispatcher wake-up, deduplicated per timestamp."""
        if time not in self._wakes:
            self._wakes.add(time)
            self._push(time, _EV_WAKE, None)

    def _complete(self, done: Completion,
                  sid: Optional[int] = None) -> Completion:
        """Record one terminal request outcome (list + metrics); a
        request that got no reply must say why."""
        if not done.served and not done.reason:
            raise ValueError(f"request {done.rid} ended {done.outcome!r} "
                             "without a reason")
        self.completions.append(done)
        for m in self._registries:
            m.counter("repro_serve_requests_total", outcome=done.outcome,
                      primitive=done.primitive).inc()
            if sid is not None:
                m.counter("repro_shard_requests_total", outcome=done.outcome,
                          shard=str(sid)).inc()
            if done.served:
                m.histogram("repro_serve_latency_ms",
                            primitive=done.primitive).observe(done.latency_ms)
                if not done.deadline_met:
                    m.counter("repro_serve_deadline_misses_total",
                              primitive=done.primitive).inc()
        return done

    def _shed(self, req: Request, now: float, reason: str,
              sid: Optional[int] = None) -> Completion:
        return self._complete(Completion(
            req.rid, req.primitive, req.arrival_ms, now, "shed",
            deadline_met=False, reason=reason), sid)

    # -- admission ---------------------------------------------------------

    def enqueue(self, request: Request, now: float) -> Optional[Completion]:
        """Admit one request at time ``now``.

        Returns a completion immediately for a cache hit (or a typed
        placement shed), None when the request was queued or parked, and
        raises :class:`Overloaded` when its bounded queue is full.
        """
        self.service.validate(request)
        sid = self.service.route(request)
        if self.service.lookup(request, sid) is not None:
            return self._complete(Completion(
                request.rid, request.primitive, request.arrival_ms, now,
                "cache_hit",
                deadline_met=now <= request.absolute_deadline_ms), sid)
        return self._admit(request, now, sid)

    def _admit(self, request: Request, now: float,
               sid: Optional[int]) -> Optional[Completion]:
        depth = self._queued.get(sid, 0)
        if depth >= self.max_queue:
            raise Overloaded(request.rid, depth, self.max_queue)
        key = (request.graph, request.primitive, sid)
        self._queues.setdefault(key, deque()).append(request)
        self._queued[sid] = depth + 1
        self._wake(now + self.batch_window_ms)
        return None

    def _enqueue_or_shed(self, req: Request,
                         now: float) -> Optional[Completion]:
        try:
            return self.enqueue(req, now)
        except Overloaded:
            return self._shed(req, now, "queue_full",
                              self.service.route(req))

    # -- the replay loop ---------------------------------------------------

    def _run(self, requests: List[Request],
             updates: Optional[List[Tuple[float, str, GraphUpdate]]],
             on_complete: Optional[OnComplete]) -> List[Completion]:
        """Run the full event loop; returns every request's completion.

        ``updates`` are ``(at_ms, graph_name, update)`` graph-version
        bumps, each a :class:`~repro.dynamic.delta.GraphUpdate` (the new
        CSR, plus the mutation batch the incremental path needs);
        ``on_complete`` (closed-loop workloads) may return the
        originating client's next request.
        """
        by_rid: Dict[int, Request] = {}
        for req in requests:
            by_rid[req.rid] = req
            self._push(req.arrival_ms, _EV_ARRIVAL, req)
        for at_ms, name, payload in updates or []:
            self._push(at_ms, _EV_UPDATE, (name, payload))

        while self._heap:
            now = self._heap[0][0]
            # drain every event at this timestamp before dispatching, so
            # coinciding arrivals can share a batch
            finished: List[Completion] = []
            while self._heap and self._heap[0][0] == now:
                _, kind, _, payload = heapq.heappop(self._heap)
                if kind == _EV_UPDATE:
                    self._handle_update(*payload, now)
                elif kind == _EV_ARRIVAL:
                    by_rid[payload.rid] = payload
                    done = self._enqueue_or_shed(payload, now)
                    if done is not None:
                        finished.append(done)
                elif kind != _EV_WAKE:  # a wake only triggers the dispatcher
                    handler = getattr(self, self._HANDLERS[kind])
                    finished.extend(handler(payload, now) or ())
            finished.extend(self._dispatch(now))
            # forget this tick's wake only now: wakes requested for `now`
            # while it ran were still deduplicated
            self._wakes.discard(now)
            if on_complete is not None:
                for done in finished:
                    follow = on_complete(by_rid[done.rid], done)
                    if follow is not None:
                        self._push(follow.arrival_ms, _EV_ARRIVAL, follow)
        return self.completions

    def _dispatch(self, now: float) -> List[Completion]:
        raise NotImplementedError

    # -- taking work off the queues ----------------------------------------

    def _ready_groups(self, now: float) -> List[GroupKey]:
        ready = []
        for key, q in self._queues.items():
            if not q:
                continue
            waited = now - q[0].arrival_ms
            # the 1e-9 slack absorbs float error in arrival + window - now,
            # so the wake scheduled at exactly arrival + window always
            # finds its group ready
            if waited >= self.batch_window_ms - 1e-9 or \
                    len(q) >= self.max_lanes:
                ready.append(key)
        return ready

    def _group_urgency(self, key: GroupKey) -> Tuple:
        q = self._queues[key]
        deadline = min(r.absolute_deadline_ms for r in q)
        priority = min(r.priority for r in q)
        return (deadline, priority, key)

    def _take(self, key: GroupKey, now: float,
              finished: List[Completion]) -> List[Request]:
        """Drain up to ``max_lanes`` requests from a queue, resolving
        expired deadlines and races with fresher cache entries."""
        sid = key[2]
        q = self._queues[key]
        taken: List[Request] = []
        while q and len(taken) < self.max_lanes:
            taken.append(q.popleft())
        self._queued[sid] -= len(taken)
        runnable: List[Request] = []
        for req in taken:
            if req.absolute_deadline_ms < now:
                finished.append(self._complete(Completion(
                    req.rid, req.primitive, req.arrival_ms, now,
                    "deadline_drop", deadline_met=False,
                    reason="deadline_passed"), sid))
            elif self.service.lookup(req, sid) is not None:
                # an earlier batch filled the cache while this waited
                finished.append(self._complete(Completion(
                    req.rid, req.primitive, req.arrival_ms, now,
                    "cache_hit"), sid))
            else:
                runnable.append(req)
        return runnable

    def _plan(self, primitive: str, runnable: List[Request]) -> List[Batch]:
        return plan_batches(primitive, [(r.rid, r.params) for r in runnable],
                            self.max_lanes)

    def _run_batch(self, holder, graph_name: str, batch: Batch,
                   run: Callable, **labels):
        """``run(graph_name, batch, machine)`` on a device or replica
        under a ``serve.batch`` span; returns its value and the simulated
        execution time."""
        before = holder.machine.elapsed_ms()
        with obs_span("serve.batch", CAT_SERVE, holder.machine,
                      primitive=batch.primitive, graph=graph_name,
                      lanes=batch.lanes, **labels):
            out = run(graph_name, batch, holder.machine)
        return out, holder.machine.elapsed_ms() - before

    # -- streaming updates -------------------------------------------------

    def _handle_update(self, name: str, update: GraphUpdate,
                       now: float) -> None:
        """Apply one graph update; on the incremental path the placement
        prices landing the delta (:meth:`_land_update`) and schedules a
        repair job (:meth:`_queue_repair`) for each warm repairable cache
        entry the version bump will orphan."""
        batch = update.batch
        self.graph_updates += 1
        kind = "edges" if batch is not None and batch.structural \
            else "weights"
        for m in self._registries:
            m.counter("repro_graph_updates_total", kind=kind).inc()
        if not (self.incremental and batch is not None):
            self.service.update_graph(update.csr, name)
            return
        self.incremental_updates += 1
        vg = self.service.graph_version(name)
        old_csr, old_version = vg.csr, vg.version
        # warm entries to repair, MRU first, capped per update
        targets: List[Tuple[Tuple, LaneResult]] = []
        keep = unaffected_primitives(batch)
        for qkey, cached in reversed(
                self.service.cache.entries_for(name, old_version)):
            prim = key_primitive(qkey)
            if prim in REPAIRABLE_PRIMITIVES and prim not in keep:
                targets.append((qkey, cached))
                if len(targets) >= self.max_repairs_per_update:
                    break
        vg, repair_at = self._land_update(name, batch, now)
        for qkey, cached in targets:
            sid, primitive, params = key_parts(qkey)
            self._queue_repair(RepairJob(
                name, vg.version, qkey, primitive, params,
                dict(cached.arrays), old_csr, batch, sid=sid), repair_at)

    def _land_update(self, name: str, batch: MutationBatch,
                     now: float) -> Tuple[VersionedGraph, float]:
        """Apply ``batch`` incrementally, charging what that costs; returns
        the new version and when its cache repairs may start."""
        raise NotImplementedError

    def _queue_repair(self, job: RepairJob, at: float) -> None:
        raise NotImplementedError

    def _superseded(self, job: RepairJob) -> bool:
        """True (and counted stale) when a later update outran ``job``."""
        vg = self.service.graphs.get(job.graph)
        if vg is None or vg.version != job.version:
            self.stale_repairs += 1
            return True
        return False

    def _run_repair(self, job: RepairJob, holder, now: float,
                    **labels) -> None:
        """Execute one cache repair on an idle device or replica and
        commit the repaired payload under the job's target version."""
        vg = self.service.graphs[job.graph]
        machine = holder.machine
        before_ms = machine.elapsed_ms()
        before_cy = machine.counters.cycles
        with obs_span("dynamic.repair", CAT_DYNAMIC, machine,
                      primitive=job.primitive, graph=job.graph,
                      **labels) as sp:
            arrays, incremental = repair_payload(
                job.primitive, job.params, job.old_arrays, job.old_csr,
                vg.csr, job.batch, machine=machine)
            sp.set(incremental=incremental)
        ms = machine.elapsed_ms() - before_ms
        payload = LaneResult(arrays)
        self.service.cache.put(job.graph, job.version, job.key, payload,
                               payload.nbytes)
        if incremental:
            self.repairs_incremental += 1
        else:
            self.repair_fallbacks += 1
        self.repair_ms += ms
        for m in self._registries:
            m.counter("repro_repair_cycles_total",
                      primitive=job.primitive).inc(
                float(machine.counters.cycles - before_cy))
        holder.busy_until_ms = max(holder.busy_until_ms, now) + ms
        self._wake(holder.busy_until_ms)

    def dynamic_summary(self) -> Dict[str, object]:
        """The ``dynamic`` section of :class:`ServeReport`."""
        if not self.graph_updates:
            return {}
        compactions = sum(
            vg.delta.compactions for vg in self.service.graphs.values()
            if vg.delta is not None)
        return {
            "updates": self.graph_updates,
            "updates_incremental": self.incremental_updates,
            "repairs_incremental": self.repairs_incremental,
            "repair_fallbacks": self.repair_fallbacks,
            "stale_repairs": self.stale_repairs,
            "pending_repairs": len(self._repair_jobs),
            "repair_ms": self.repair_ms,
            "compaction_ms": self.compaction_ms,
            "compactions": compactions,
            "cache_carried": self.service.cache.stats.carried,
        }


class DeadlineScheduler(SchedulerCore):
    """Bounded-queue, EDF-dispatch scheduler over one or more devices."""

    def __init__(self, service: GraphService, *, devices: int = 1,
                 max_queue: int = 64,
                 batch_window_ms: float = 2.0,
                 max_lanes: int = DEFAULT_MAX_LANES,
                 retry: Optional[RetryPolicy] = None,
                 fault_rate: float = 0.0, seed: int = 0,
                 incremental: bool = False,
                 max_repairs_per_update: int = 32):
        if devices < 1:
            raise ValueError("need at least one device")
        super().__init__(
            service, max_queue=max_queue, batch_window_ms=batch_window_ms,
            max_lanes=max_lanes, retry=retry, fault_rate=fault_rate,
            seed=seed, incremental=incremental,
            max_repairs_per_update=max_repairs_per_update)
        self.devices = [Device(i) for i in range(devices)]

    def replay(self, requests: List[Request],
               updates: Optional[List[Tuple[float, str, GraphUpdate]]] = None,
               on_complete: Optional[OnComplete] = None,
               ) -> List[Completion]:
        """Run the full event loop (see :meth:`SchedulerCore._run`)."""
        return self._run(requests, updates, on_complete)

    # -- streaming updates -------------------------------------------------

    def _land_update(self, name: str, batch: MutationBatch,
                     now: float) -> Tuple[VersionedGraph, float]:
        # the delta apply/compaction is priced work: charge it to the
        # least-loaded device and extend its busy horizon
        dev = min(self.devices, key=lambda d: (d.busy_until_ms, d.index))
        before = dev.machine.elapsed_ms()
        with obs_span("dynamic.compaction", CAT_DYNAMIC, dev.machine,
                      graph=name, mutations=batch.size,
                      device=dev.index):
            vg = self.service.update_graph(
                name=name, batch=batch, machine=dev.machine,
                incremental=True)
        ms = dev.machine.elapsed_ms() - before
        self.compaction_ms += ms
        dev.busy_until_ms = max(dev.busy_until_ms, now) + ms
        self._wake(dev.busy_until_ms)
        return vg, now

    def _queue_repair(self, job: RepairJob, at: float) -> None:
        # run by _dispatch on whatever devices foreground work leaves idle
        self._repair_jobs.append(job)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, now: float) -> List[Completion]:
        finished: List[Completion] = []
        while True:
            idle = [d for d in self.devices if d.idle(now)]
            if not idle:
                break
            ready = self._ready_groups(now)
            if not ready:
                break
            key = min(ready, key=self._group_urgency)
            runnable = self._take(key, now, finished)
            if runnable:
                finished.extend(self._execute(idle[0], key[0], key[1],
                                              runnable, now))
        # background repair: strictly after foreground work, on whatever
        # devices the EDF pass left idle this tick
        while self._repair_jobs:
            idle = [d for d in self.devices if d.idle(now)]
            if not idle:
                break
            job = self._repair_jobs.popleft()
            if not self._superseded(job):
                self._run_repair(job, idle[0], now, device=idle[0].index)
        return finished

    def _execute(self, device: Device, graph_name: str, primitive: str,
                 runnable: List[Request], now: float) -> List[Completion]:
        by_rid = {r.rid: r for r in runnable}
        out: List[Completion] = []
        start = now
        # solo primitives (wtf) yield one batch per unique query; they
        # serialize back-to-back on the chosen device
        for batch in self._plan(primitive, runnable):
            # results are committed (cache-visible) at dispatch
            _, exec_ms = self._run_batch(device, graph_name, batch,
                                         self.service.run_batch,
                                         device=device.index)
            service_ms = exec_ms
            if self.fault_rate and self.retry.max_retries > 0 and \
                    self._rng.random() < self.fault_rate:
                # transient fault mid-request: half the execution is
                # wasted, the retry policy's backoff is paid, then the
                # batch replays
                backoff = self.retry.backoff_ms(0)
                wasted = 0.5 * exec_ms
                device.machine.stall_ms("serve_fault_replay",
                                        wasted + backoff)
                service_ms += wasted + backoff
                self.recovered_faults += 1
                self.retry_backoff_ms += backoff
            finish = start + service_ms
            for q in batch.queries:
                for rid in q.request_ids:
                    req = by_rid[rid]
                    out.append(self._complete(Completion(
                        rid, req.primitive, req.arrival_ms, finish, "ok",
                        batch_lanes=batch.lanes, device=device.index,
                        deadline_met=finish <= req.absolute_deadline_ms)))
            start = finish
        device.busy_until_ms = start
        self._wake(start)
        return out
