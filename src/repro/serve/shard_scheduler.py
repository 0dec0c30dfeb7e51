"""Shard-aware dispatch: routing, failover, hedging, repair.

The sharded serving tier's placement on the shared event loop.  It runs
:class:`~repro.serve.scheduler.SchedulerCore` — bounded admission,
batching windows, the EDF take step, streaming-update repair selection,
deterministic replay — and adds the robustness machinery a replicated
tier needs:

* **Routing** — a single-source query goes to the shard group owning its
  source vertex (:meth:`ShardedGraphService.route`); whole-graph queries
  go to :data:`~repro.serve.shard.FANOUT`, one replica per live group.
* **Admission** — the queue bound is *per shard group* (one hot shard
  sheds without starving the others); the fan-out bucket is its own
  group.  Queue-full shedding is typed ``queue_full``; a query routed to
  a shard with no live replica is typed ``shard_down`` (parked instead
  when an in-flight repair will finish inside its deadline).
* **Failover** — a transient fault mid-execution (seeded Bernoulli per
  attempt, same model as the legacy scheduler) charges the faulted
  replica half the execution, feeds its circuit breaker, then re-dispatches
  to a sibling replica after :class:`~repro.resilience.recovery.
  RetryPolicy` backoff; a replica *killed* mid-flight hands its work to
  its hedge partner if one is running, else re-dispatches the same way.
* **Hedging** — once ≥ :data:`HEDGE_MIN_SAMPLES` durations are recorded for
  a primitive, an execution projected past the p95 duration launches a
  duplicate on a sibling replica at the p95 mark; first completion wins,
  the loser is cancelled and its spent time charged as
  ``hedge_waste_ms``.  Both legs run the same deterministic code on the
  same graph, so whichever leg wins the reply bytes are identical.
* **Repair** — when the last replica of a shard dies, the tier schedules
  a repair costing the interconnect transfer of the dead partition
  (:func:`~repro.serve.shard.repair_bytes`); on completion the ownership
  maps are rebuilt through :func:`~repro.multi.partition.redistribute`
  and parked queries re-admitted under their new owners.

Everything is a pure function of the event sequence and the seed: kills
come from an explicit schedule, faults from a seeded RNG, and every
tie-break is total, so same-seed replays are byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dynamic.delta import GraphUpdate, MutationBatch
from ..obs.spans import (CAT_DYNAMIC, CAT_SERVE, CAT_SHARD,
                         instant as obs_instant, span as obs_span)
from ..resilience.recovery import RetryPolicy
from .batcher import Batch, DEFAULT_MAX_LANES, LaneResult
from .scheduler import (_EV_CACHE_REPAIR, _EV_DONE, _EV_HEDGE, _EV_KILL,
                        _EV_REPAIR, OnComplete, RepairJob, SchedulerCore)
from .service import (Completion, Request, ShardedGraphService,
                      VersionedGraph)
from .shard import (FANOUT, KillEvent, Replica, fanout_pagerank,
                    repair_bytes)

#: minimum recorded durations before hedge delays are trusted
HEDGE_MIN_SAMPLES = 8


@dataclass
class _Inflight:
    """One execution attempt running on a replica (or replica set)."""

    eid: int
    sid: int                         # owning shard; FANOUT for whole-graph
    graph: str
    primitive: str
    requests: List[Request]
    replica: Optional[Replica]       # None for fan-outs
    fanout_replicas: Dict[int, Replica] = field(default_factory=dict)
    start: float = 0.0               # start of the final (running) leg
    finish: float = 0.0
    dispatched: float = 0.0          # when the group left the queue
    exec_ms: float = 0.0             # pure execution time (hedge sizing)
    #: per-batch (batch, results, graph version) committed at DONE
    payloads: List[Tuple[Batch, Dict[Tuple, LaneResult], int]] = \
        field(default_factory=list)
    partial: bool = False            # degraded fan-out (some shard down)
    attempt: int = 0                 # transient-fault attempts consumed
    partner: Optional["_Inflight"] = None   # hedge twin
    is_hedge: bool = False
    done: bool = False
    cancelled: bool = False

    @property
    def active(self) -> bool:
        return not (self.done or self.cancelled)


class ShardScheduler(SchedulerCore):
    """Replicated-shard EDF scheduler with failover, hedging and repair."""

    _HANDLERS = {_EV_KILL: "_handle_kill", _EV_REPAIR: "_handle_repair",
                 _EV_DONE: "_handle_done", _EV_HEDGE: "_handle_hedge",
                 _EV_CACHE_REPAIR: "_handle_cache_repair"}

    def __init__(self, service: ShardedGraphService, *,
                 max_queue: int = 64,
                 batch_window_ms: float = 2.0,
                 max_lanes: int = DEFAULT_MAX_LANES,
                 retry: Optional[RetryPolicy] = None,
                 fault_rate: float = 0.0, seed: int = 0,
                 hedging: bool = True,
                 incremental: bool = False,
                 max_repairs_per_update: int = 32):
        super().__init__(
            service, max_queue=max_queue, batch_window_ms=batch_window_ms,
            max_lanes=max_lanes, retry=retry, fault_rate=fault_rate,
            seed=seed, incremental=incremental,
            max_repairs_per_update=max_repairs_per_update)
        self.tier = service.tier
        self.hedging = hedging and self.tier.replicas_per_shard > 1
        self._parked: Dict[int, List[Request]] = {}
        self._inflight: Dict[int, _Inflight] = {}
        self._eid = 0
        self._durations: Dict[str, List[float]] = {}
        self.failovers = 0
        self.hedges_launched = 0
        self.hedges_won = 0
        self.hedge_waste_ms = 0.0
        self.repairs = 0            # shard-map repairs, not cache repairs
        self.killed_replicas = 0

    @property
    def shard_down_shed(self) -> int:
        return sum(1 for c in self.completions if c.reason == "shard_down")

    # -- admission ---------------------------------------------------------

    def _admit(self, request: Request, now: float,
               sid: int) -> Optional[Completion]:
        """Queue under the owning shard's bound — unless that shard is
        down: then park behind a repair that beats the deadline, else
        shed with the typed ``shard_down`` reason."""
        target = self._down_target(sid)
        if target is None:
            return super()._admit(request, now, sid)
        repaired = self.tier.repairing.get(target)
        parked = self._parked.setdefault(target, [])
        if repaired is not None and \
                request.absolute_deadline_ms >= repaired and \
                len(parked) < self.max_queue:
            parked.append(request)
            return None
        return self._shed(request, now, "shard_down", sid)

    def _admit_all(self, requests: List[Request], now: float,
                   sid: int) -> List[Completion]:
        """Park-or-shed work that was queued or in flight on a shard
        whose last replica died."""
        done = [self._admit(req, now, sid) for req in requests]
        return [d for d in done if d is not None]

    def _down_target(self, sid: int) -> Optional[int]:
        """The dead shard this request is blocked on, if any.

        A fan-out only blocks when *no* group is live (a down group just
        degrades it); in that all-dead case it parks behind the earliest
        pending repair.
        """
        if sid == FANOUT:
            if self.tier.live_sids():
                return None
            if self.tier.repairing:
                return min(self.tier.repairing,
                           key=lambda s: (self.tier.repairing[s], s))
            return FANOUT  # all dead, nothing repairing: typed shed
        return sid if self.tier.groups[sid].down else None

    # -- the replay loop ---------------------------------------------------

    def replay(self, requests: List[Request],
               updates: Optional[List[Tuple[float, str, GraphUpdate]]] = None,
               kills: Optional[List[KillEvent]] = None,
               on_complete: Optional[OnComplete] = None,
               ) -> List[Completion]:
        """Run the full event loop (see :meth:`SchedulerCore._run`) with
        ``kills`` as scheduled permanent replica losses."""
        for kill in kills or []:
            self._push(kill.at_ms, _EV_KILL, kill)
        return self._run(requests, updates, on_complete)

    # -- streaming updates -------------------------------------------------

    def _land_update(self, name: str, batch: MutationBatch,
                     now: float) -> Tuple[VersionedGraph, float]:
        """The mutation delta is broadcast to every live shard group over
        the interconnect (same pricing as a shard-map repair transfer);
        shard-local cache repairs start once the broadcast lands."""
        with obs_span("dynamic.compaction", CAT_DYNAMIC, graph=name,
                      mutations=batch.size):
            vg = self.service.update_graph(name=name, batch=batch,
                                           incremental=True)
        # one (u, v, w) record per mutation, fanned to every live group
        volume = max(1, batch.size) * 3 * 8
        msgs = max(1, len(self.tier.live_sids()))
        bcast_ms = self.tier.interconnect.transfer_ms(volume, msgs)
        self.compaction_ms += bcast_ms
        return vg, now + bcast_ms

    def _queue_repair(self, job: RepairJob, at: float) -> None:
        self._push(at, _EV_CACHE_REPAIR, job)

    def _handle_cache_repair(self, job: RepairJob, now: float) -> None:
        """Run one cache repair on a replica of the owning shard group
        (any live group for fan-out entries); a busy replica defers the
        job to its free time rather than preempting foreground work."""
        if self._superseded(job):
            return
        sid = job.sid
        if sid < 0:         # a fan-out entry: any live group can repair it
            sid = min(self.tier.live_sids(), default=None)
        got = None if sid is None else self.tier.groups[sid].pick(now)
        if got is None:     # no live replica left to repair on
            self.stale_repairs += 1
            return
        replica, at = got
        if at > now:
            self._push(at, _EV_CACHE_REPAIR, job)
            return
        replica.begin_dispatch(now)
        self._run_repair(job, replica, now, shard=job.sid,
                         replica=replica.name)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, now: float) -> List[Completion]:
        finished: List[Completion] = []
        while True:
            ready = self._ready_groups(now)
            dispatched = False
            for key in sorted(ready, key=self._group_urgency):
                if self._try_dispatch(key, now, finished):
                    dispatched = True
                    break  # queues changed; recompute readiness
            if not dispatched:
                return finished

    def _try_dispatch(self, key: Tuple[str, str, int], now: float,
                      finished: List[Completion]) -> bool:
        """Dispatch one group if a replica target is free exactly now;
        otherwise schedule a wake-up at the earliest possible start.
        Returns True when queue state changed (caller must recompute)."""
        graph_name, primitive, sid = key
        if sid == FANOUT:
            return self._try_dispatch_fanout(key, now, finished)
        group = self.tier.groups[sid]
        if group.down:
            # the kill handler drained this queue; any stragglers follow
            # the same park-or-shed path
            runnable = self._take(key, now, finished)
            finished.extend(self._admit_all(runnable, now, sid))
            return True
        got = group.pick(now)
        if got is None:  # pragma: no cover - down handled above
            return False
        replica, at = got
        if at > now:
            self._wake(at)
            return False
        runnable = self._take(key, now, finished)
        if not runnable:
            return True
        finished.extend(self._execute_single(
            sid, replica, graph_name, primitive, runnable, now))
        return True

    def _try_dispatch_fanout(self, key: Tuple[str, str, int], now: float,
                             finished: List[Completion]) -> bool:
        graph_name, primitive, _ = key
        live = self.tier.live_sids()
        if not live:
            runnable = self._take(key, now, finished)
            finished.extend(self._admit_all(runnable, now, FANOUT))
            return True
        chosen = self.tier.fanout_pick(now)
        if chosen is None:
            # every live group must be free at once; wake when the last
            # one could be
            horizon = now
            for s in live:
                got = self.tier.groups[s].pick(now)
                if got is not None:
                    horizon = max(horizon, got[1])
            if horizon > now:
                self._wake(horizon)
            return False
        runnable = self._take(key, now, finished)
        if not runnable:
            return True
        finished.extend(self._execute_fanout(
            chosen, graph_name, primitive, runnable, now))
        return True

    # -- execution ---------------------------------------------------------

    def _execute_single(self, sid: int, replica: Replica, graph_name: str,
                        primitive: str, runnable: List[Request],
                        now: float) -> List[Completion]:
        """Run one shard-local group on a replica, resolving the
        transient-fault/failover chain, then leave it in flight."""
        batches = self._plan(primitive, runnable)
        replica.begin_dispatch(now)
        payloads: List[Tuple[Batch, Dict, int]] = []
        exec_total = 0.0
        for batch in batches:
            # executed now, committed (cache-visible) only at _EV_DONE
            (results, version), exec_ms = self._run_batch(
                replica, graph_name, batch, self.service.execute,
                shard=sid, replica=replica.name)
            exec_total += exec_ms
            payloads.append((batch, results, version))

        cur, start, attempt = replica, now, 0
        while self.fault_rate and self._rng.random() < self.fault_rate:
            # fault halfway through: the faulted replica wasted half the
            # execution, its breaker hears about it, and the work moves
            # to a sibling after backoff
            t_fault = start + 0.5 * exec_total
            cur.on_failure(t_fault)
            cur.busy_until_ms = t_fault
            if attempt >= self.retry.max_retries:
                return self._fail_all(runnable, t_fault, sid)
            backoff = self.retry.backoff_ms(attempt)
            self.recovered_faults += 1
            self.retry_backoff_ms += backoff
            got = self.tier.groups[sid].pick(t_fault + backoff,
                                             prefer_not=cur)
            if got is None:  # pragma: no cover - kills arrive via events
                return [self._shed(req, t_fault, "shard_down", sid)
                        for req in runnable]
            nxt, at = got
            start = max(t_fault + backoff, at)
            nxt.begin_dispatch(start)
            # the sibling redoes the same work; charged as a stall so the
            # reply bytes come from the one deterministic execution above
            nxt.machine.stall_ms("shard_failover_replay", exec_total)
            self.failovers += 1
            obs_instant("shard.failover", CAT_SHARD, nxt.machine,
                        shard=sid, source=cur.name, target=nxt.name,
                        attempt=attempt)
            cur, attempt = nxt, attempt + 1

        finish = start + exec_total
        cur.busy_until_ms = finish
        self._maybe_schedule_hedge(self._launch(_Inflight(
            self._eid, sid, graph_name, primitive, list(runnable), cur,
            start=start, finish=finish, dispatched=now, exec_ms=exec_total,
            payloads=payloads, attempt=attempt)))
        return []

    def _fail_all(self, requests: List[Request], at: float,
                  sid: int) -> List[Completion]:
        return [self._complete(Completion(
            req.rid, req.primitive, req.arrival_ms, at, "failed",
            deadline_met=False, reason="retries_exhausted"), sid)
            for req in requests]

    def _launch(self, infl: _Inflight) -> _Inflight:
        """Register an execution as in flight until its ``_EV_DONE``."""
        self._inflight[infl.eid] = infl
        self._push(infl.finish, _EV_DONE, infl.eid)
        self._eid += 1
        return infl

    def _execute_fanout(self, chosen: Dict[int, Replica], graph_name: str,
                        primitive: str, runnable: List[Request],
                        now: float) -> List[Completion]:
        """Run a whole-graph group across one replica per live shard."""
        batches = self._plan(primitive, runnable)
        vg = self.service.graph_version(graph_name)
        sm = self.service.shard_map(graph_name)
        machines = {s: r.machine for s, r in chosen.items()}
        for rep in chosen.values():
            rep.begin_dispatch(now)
        payloads: List[Tuple[Batch, Dict, int]] = []
        exec_total = 0.0
        partial = False
        for batch in batches:
            results: Dict[Tuple, LaneResult] = {}
            for q in batch.queries:
                with obs_span("serve.fanout", CAT_SERVE,
                              primitive=primitive, graph=graph_name,
                              shards=len(chosen)):
                    fr = fanout_pagerank(
                        vg.csr, sm.pg, machines,
                        damping=q.params.get("damping", 0.85),
                        tolerance=q.params.get("tolerance"),
                        interconnect=self.tier.interconnect)
                exec_total += fr.elapsed_ms
                partial = partial or fr.partial
                results[q.key] = LaneResult({"rank": fr.rank.copy()})
            self.service.executed_batches.append(
                (batch.primitive, batch.lanes))
            payloads.append((batch, results, vg.version))

        start, attempt = now, 0
        while self.fault_rate and self._rng.random() < self.fault_rate:
            # a fault anywhere stalls the whole barrier; the fan-out
            # replays on the same replica set (it already spans every
            # live group — there is no sibling set to fail over to)
            t_fault = start + 0.5 * exec_total
            if attempt >= self.retry.max_retries:
                for rep in chosen.values():
                    rep.busy_until_ms = t_fault
                return self._fail_all(runnable, t_fault, FANOUT)
            backoff = self.retry.backoff_ms(attempt)
            self.recovered_faults += 1
            self.retry_backoff_ms += backoff
            start = t_fault + backoff
            attempt += 1

        finish = start + exec_total
        for rep in chosen.values():
            rep.busy_until_ms = finish
        self._launch(_Inflight(
            self._eid, FANOUT, graph_name, primitive, list(runnable), None,
            fanout_replicas=dict(chosen), start=start, finish=finish,
            dispatched=now, exec_ms=exec_total, payloads=payloads,
            partial=partial, attempt=attempt))
        return []

    # -- hedging -----------------------------------------------------------

    def _hedge_delay(self, primitive: str) -> Optional[float]:
        samples = self._durations.get(primitive)
        if not samples or len(samples) < HEDGE_MIN_SAMPLES:
            return None
        return float(np.percentile(np.asarray(samples), 95))

    def _maybe_schedule_hedge(self, infl: _Inflight) -> None:
        """Arm a duplicate dispatch at the p95 mark *from dispatch time*
        — so an execution running long because its fault chain paid
        backoffs is exactly the one a hedge can beat."""
        if not self.hedging or infl.sid == FANOUT:
            return
        delay = self._hedge_delay(infl.primitive)
        if delay is None or infl.finish - infl.dispatched <= delay:
            return
        self._push(infl.dispatched + delay, _EV_HEDGE, infl.eid)

    def _handle_hedge(self, eid: int, now: float) -> None:
        infl = self._inflight.get(eid)
        if infl is None or not infl.active or infl.partner is not None:
            return
        got = self.tier.groups[infl.sid].pick(now, prefer_not=infl.replica)
        if got is None:
            return
        rep, at = got
        if at > now or rep is infl.replica:
            return  # no sibling free right now: hedging never queues
        rep.begin_dispatch(now)
        # the duplicate redoes the primary's work on its own clock; the
        # reply bytes are the primary's deterministic results either way
        rep.machine.stall_ms("shard_hedge", infl.exec_ms)
        hedge = self._launch(_Inflight(
            self._eid, infl.sid, infl.graph, infl.primitive, infl.requests,
            rep, start=now, finish=now + infl.exec_ms, dispatched=now,
            exec_ms=infl.exec_ms, payloads=infl.payloads,
            attempt=infl.attempt, partner=infl, is_hedge=True))
        infl.partner = hedge
        rep.busy_until_ms = hedge.finish
        self.hedges_launched += 1
        obs_instant("shard.hedge", CAT_SHARD, rep.machine, shard=infl.sid,
                    primitive=infl.primitive, source=infl.replica.name,
                    target=rep.name, delay_ms=round(now - infl.start, 6))

    # -- completion --------------------------------------------------------

    def _handle_done(self, eid: int, now: float) -> List[Completion]:
        infl = self._inflight.get(eid)
        if infl is None or not infl.active:
            return []
        infl.done = True
        if infl.partner is not None and infl.partner.active:
            # first completion wins; the slower twin is cancelled and its
            # time-so-far accounted as hedge waste
            loser = infl.partner
            loser.cancelled = True
            if loser.replica is not None:
                loser.replica.busy_until_ms = now
            # a loser whose final leg had not yet started (still in
            # failover backoff) wasted nothing beyond already-charged legs
            self.hedge_waste_ms += max(0.0, now - loser.start)
        if infl.is_hedge:
            self.hedges_won += 1
        replicas = list(infl.fanout_replicas.values()) \
            if infl.sid == FANOUT else [infl.replica]
        for rep in replicas:
            if rep.alive:
                rep.on_success(now)
        # results reach the cache only here — a cancelled or hedge-losing
        # execution never populates it; partial (degraded) fan-out ranks
        # are never cached at all, so a post-repair ask recomputes fully
        if not infl.partial:
            for _batch, results, version in infl.payloads:
                self.service.commit(infl.graph, version, results, infl.sid)
        outcome = "partial" if infl.partial else "ok"
        reason = "degraded" if infl.partial else ""
        device = infl.replica.device_id if infl.replica is not None else -1
        by_rid = {r.rid: r for r in infl.requests}
        out: List[Completion] = []
        for batch, _results, _version in infl.payloads:
            for q in batch.queries:
                for rid in q.request_ids:
                    req = by_rid[rid]
                    out.append(self._complete(Completion(
                        rid, req.primitive, req.arrival_ms, now, outcome,
                        batch_lanes=batch.lanes, device=device,
                        deadline_met=now <= req.absolute_deadline_ms,
                        reason=reason), infl.sid))
        # record the end-to-end service duration (queue exit → finish):
        # p95 over these is the hedge trigger, so fault-chain delays count
        self._durations.setdefault(infl.primitive, []).append(
            now - infl.dispatched)
        return out

    # -- kills and repair --------------------------------------------------

    def _handle_kill(self, kill: KillEvent, now: float) -> List[Completion]:
        finished: List[Completion] = []
        group = self.tier.groups[kill.shard]
        targets = group.replicas if kill.replica is None \
            else [group.replicas[kill.replica]]
        killed: List[Replica] = []
        for rep in targets:
            if not rep.alive:
                continue
            rep.kill()
            self.killed_replicas += 1
            obs_instant("shard.kill", CAT_SHARD, rep.machine,
                        shard=kill.shard, replica=rep.name)
            killed.append(rep)
        # price the repair before evicting in-flight work, so work that
        # just lost its last replica can park behind the repair rather
        # than shed against a repair that "doesn't exist yet"
        if group.down and kill.shard not in self.tier.repairing:
            finished.extend(self._begin_repair(kill.shard, now))
        for rep in killed:
            finished.extend(self._evict_inflight(rep, now))
        return finished

    def _evict_inflight(self, rep: Replica, now: float) -> List[Completion]:
        """Cancel work running on a killed replica; hand it to a hedge
        partner when one is live, else fail over to a sibling."""
        finished: List[Completion] = []
        for eid in sorted(self._inflight):
            infl = self._inflight[eid]
            if not infl.active:
                continue
            if infl.sid == FANOUT:
                if rep in infl.fanout_replicas.values():
                    infl.cancelled = True
                    for other in infl.fanout_replicas.values():
                        if other.alive:
                            other.busy_until_ms = now
                    # back to the queue: the next dispatch picks a fresh
                    # replica set (degrading if this group just died)
                    key = (infl.graph, infl.primitive, FANOUT)
                    q = self._queues.setdefault(key, deque())
                    for req in reversed(infl.requests):
                        q.appendleft(req)
                    self._queued[FANOUT] = self._queued.get(FANOUT, 0) \
                        + len(infl.requests)
                    self._wake(now)
                continue
            if infl.replica is not rep:
                continue
            infl.cancelled = True
            if infl.partner is not None and infl.partner.active:
                continue  # the hedge twin carries the request home
            finished.extend(self._failover_after_kill(infl, now))
        return finished

    def _failover_after_kill(self, infl: _Inflight,
                             now: float) -> List[Completion]:
        backoff = self.retry.backoff_ms(infl.attempt)
        got = self.tier.groups[infl.sid].pick(now + backoff)
        if got is None:
            # last replica died with this in flight: park behind the
            # repair (scheduled by the caller) or shed typed shard_down
            return self._admit_all(infl.requests, now, infl.sid)
        rep, at = got
        start = max(now + backoff, at)
        rep.begin_dispatch(start)
        rep.machine.stall_ms("shard_failover_replay", infl.exec_ms)
        self.failovers += 1
        obs_instant("shard.failover", CAT_SHARD, rep.machine,
                    shard=infl.sid, source=infl.replica.name,
                    target=rep.name, cause="replica_killed")
        redo = self._launch(_Inflight(
            self._eid, infl.sid, infl.graph, infl.primitive, infl.requests,
            rep, start=start, finish=start + infl.exec_ms,
            dispatched=infl.dispatched, exec_ms=infl.exec_ms,
            payloads=infl.payloads, attempt=infl.attempt))
        rep.busy_until_ms = redo.finish
        self._maybe_schedule_hedge(redo)
        return []

    def _begin_repair(self, sid: int, now: float) -> List[Completion]:
        """All R replicas of ``sid`` are dead: price the redistribute of
        its partition over the survivors, schedule completion, and drain
        the dead shard's queues into park-or-shed."""
        finished: List[Completion] = []
        # repair moves every loaded graph's dead partition
        volume = sum(repair_bytes(self.service.shard_map(name).pg, sid)
                     for name in sorted(self.service.maps))
        msgs = max(1, len(self.tier.live_sids()))
        done_at = now + self.tier.interconnect.transfer_ms(volume, msgs)
        self.tier.repairing[sid] = done_at
        self.repairs += 1
        obs_instant("shard.repair", CAT_SHARD, shard=sid,
                    bytes=volume, done_ms=round(done_at, 6))
        self._push(done_at, _EV_REPAIR, sid)
        for key in sorted(self._queues):
            if key[2] != sid:
                continue
            q = self._queues[key]
            drained = list(q)
            q.clear()
            self._queued[sid] = self._queued.get(sid, 0) - len(drained)
            finished.extend(self._admit_all(drained, now, sid))
        return finished

    def _handle_repair(self, sid: int, now: float) -> List[Completion]:
        """Repair finished: the dead shard's vertices belong to the
        survivors now.  Rebuild every graph's ownership map (replaying
        the full redistribute cascade) and re-admit parked queries under
        their new owners."""
        self.tier.dead_order.append(sid)
        self.tier.repairing.pop(sid, None)
        self.service.rebuild_maps()
        obs_instant("shard.repair_done", CAT_SHARD, shard=sid,
                    cascade=len(self.tier.dead_order))
        done = [self._enqueue_or_shed(req, now)
                for req in self._parked.pop(sid, [])]
        return [d for d in done if d is not None]

    # -- reporting ---------------------------------------------------------

    def shard_summary(self) -> Dict[str, object]:
        """The report's ``shard`` section (ints and rounded floats only,
        so serialization is byte-deterministic)."""
        return {
            "shards": self.tier.shards,
            "replicas": self.tier.replicas_per_shard,
            "failovers": self.failovers,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedge_waste_ms": round(self.hedge_waste_ms, 6),
            "repairs": self.repairs,
            "killed_replicas": self.killed_replicas,
            "breaker_opens": sum(r.breaker_opens
                                 for r in self.tier.all_replicas()),
            "shard_down_shed": self.shard_down_shed,
            "live_replicas": sum(1 for r in self.tier.all_replicas()
                                 if r.alive),
        }
