"""Graph-query serving layer: batching, caching, deadline scheduling.

The paper's flagship application — Twitter's who-to-follow (Section 5.5)
— is an *online serving* workload, and the Gunrock follow-up (TOPC 2017)
names batched multi-query execution as the direction that takes a GPU
graph library from one-shot analytics to a service.  This package is that
layer for the reproduction:

* :mod:`repro.serve.service` — versioned graphs, requests, completions,
  and the one query path both tiers use: ``lookup(request, sid=None)``,
  ``execute(...) -> (results, version)``, ``commit(..., sid=None)``
  (:class:`~repro.serve.service.ShardedGraphService` adds vertex→shard
  ownership maps and ``route``);
* :mod:`repro.serve.batcher` — request coalescing, headlined by true
  batched multi-source BFS/SSSP/PPR (one merged lane-major frontier
  through the existing advance/filter operators, bitwise-equal to
  per-source runs);
* :mod:`repro.serve.cache` — byte-budgeted LRU result cache keyed on
  graph version (stale results are unreachable by construction);
* :mod:`repro.serve.scheduler` — the one serving event loop
  (:class:`~repro.serve.scheduler.SchedulerCore`: bounded-queue admission
  with typed :class:`~repro.serve.scheduler.Overloaded` shedding,
  batching windows, the EDF take step, streaming-update cache repair,
  deterministic replay) and its single-pool placement
  :class:`~repro.serve.scheduler.DeadlineScheduler` (idle-device
  dispatch, commit at dispatch, transient-fault retry via
  :class:`~repro.resilience.recovery.RetryPolicy`);
* :mod:`repro.serve.shard` — the N×R replica tier: shard groups, circuit
  breakers, ownership maps, fan-out PageRank, kill schedules;
* :mod:`repro.serve.shard_scheduler` — the routed, replicated placement
  :class:`~repro.serve.shard_scheduler.ShardScheduler` on the same loop:
  failover, hedging, kills and shard-map repair, commit at completion;
* :mod:`repro.serve.workload` — seed-deterministic open/closed-loop
  traffic with Zipfian source popularity.

``python -m repro serve`` replays a workload and prints the service
report; with a fixed seed the report is byte-identical across runs.
"""

from __future__ import annotations

from typing import Optional

from ..graph.csr import Csr
from ..resilience.recovery import RetryPolicy
from .batcher import (Batch, BatchedQuery, DEFAULT_MAX_LANES, LaneResult,
                      SERVED_PRIMITIVES, batched_bfs, batched_ppr,
                      batched_sssp, execute_batch, plan_batches, query_key)
from .cache import CacheStats, ResultCache
from .scheduler import DeadlineScheduler, Device, Overloaded
from .service import (Completion, GraphService, Request, ServeReport,
                      ShardedGraphService, VersionedGraph)
from .shard import (BreakerPolicy, FANOUT, KillEvent, Replica, ShardGroup,
                    ShardMap, ShardTier, build_shard_map, fanout_pagerank,
                    parse_kill_schedule)
from .shard_scheduler import ShardScheduler
from .workload import (ClosedLoopDriver, Workload, WorkloadSpec,
                       build_workload, shard_hotspot_popularity,
                       zipf_popularity)

__all__ = [
    "Batch", "BatchedQuery", "DEFAULT_MAX_LANES", "LaneResult",
    "SERVED_PRIMITIVES", "batched_bfs", "batched_ppr", "batched_sssp",
    "execute_batch", "plan_batches", "query_key",
    "CacheStats", "ResultCache",
    "DeadlineScheduler", "Device", "Overloaded",
    "Completion", "GraphService", "Request", "ServeReport",
    "ShardedGraphService", "VersionedGraph",
    "BreakerPolicy", "FANOUT", "KillEvent", "Replica", "ShardGroup",
    "ShardMap", "ShardTier", "ShardScheduler", "build_shard_map",
    "fanout_pagerank", "parse_kill_schedule",
    "ClosedLoopDriver", "Workload", "WorkloadSpec", "build_workload",
    "shard_hotspot_popularity", "zipf_popularity",
    "run_serving", "run_sharded_serving",
]


def run_serving(graph: Csr, spec: WorkloadSpec, *, devices: int = 1,
                max_queue: int = 64, batch_window_ms: float = 2.0,
                max_lanes: int = DEFAULT_MAX_LANES,
                cache_bytes: int = 64 << 20,
                retry: Optional[RetryPolicy] = None,
                fault_rate: float = 0.0,
                incremental: bool = False,
                engine: Optional[str] = None) -> ServeReport:
    """Build a service, replay ``spec``'s workload on ``graph``, report.

    One call = one deterministic serving experiment: the report is a
    pure function of the graph and the spec (plus these knobs).
    ``incremental`` turns graph updates into delta applications with
    background repair of warm cache entries instead of
    invalidate-everything version bumps.  ``engine`` selects the
    execution engine for cacheable (coalesced) batches — ``"fused"``
    dispatches their compiled plans, which are cached per graph so the
    tier pays specialization once per loaded version.
    """
    service = GraphService(cache_bytes=cache_bytes, engine=engine)
    service.load_graph(graph)
    scheduler = DeadlineScheduler(
        service, devices=devices, max_queue=max_queue,
        batch_window_ms=batch_window_ms, max_lanes=max_lanes,
        retry=retry, fault_rate=fault_rate, seed=spec.seed,
        incremental=incremental)
    workload = build_workload(graph, spec)
    completions = scheduler.replay(workload.initial_requests,
                                   updates=workload.updates,
                                   on_complete=workload.driver)
    return ServeReport.from_replay(completions, service,
                                   recovered_faults=scheduler.recovered_faults,
                                   retry_backoff_ms=scheduler.retry_backoff_ms,
                                   metrics=scheduler.metrics,
                                   dynamic=scheduler.dynamic_summary())


def run_sharded_serving(graph: Csr, spec: WorkloadSpec, *,
                        shards: int = 4, replicas: int = 2,
                        max_queue: int = 64, batch_window_ms: float = 2.0,
                        max_lanes: int = DEFAULT_MAX_LANES,
                        cache_bytes: int = 64 << 20,
                        retry: Optional[RetryPolicy] = None,
                        fault_rate: float = 0.0,
                        shard_method: str = "contiguous",
                        hedging: bool = True,
                        kill_schedule: str = "",
                        breaker: Optional[BreakerPolicy] = None,
                        popularity=None,
                        incremental: bool = False) -> ServeReport:
    """Replay ``spec``'s workload on a sharded, replicated serving tier.

    ``shards`` × ``replicas`` simulated devices serve the partitioned
    graph; ``kill_schedule`` (``at_ms:shard:replica`` with ``*`` for a
    whole group, comma-separated) injects permanent device losses;
    ``max_queue`` bounds admission *per shard group*.  The report is a
    pure function of the graph, the spec, and these knobs.
    """
    tier = ShardTier(shards, replicas,
                     breaker=breaker if breaker is not None
                     else BreakerPolicy())
    service = ShardedGraphService(tier, shard_method=shard_method,
                                  cache_bytes=cache_bytes)
    service.load_graph(graph)
    scheduler = ShardScheduler(
        service, max_queue=max_queue, batch_window_ms=batch_window_ms,
        max_lanes=max_lanes, retry=retry, fault_rate=fault_rate,
        seed=spec.seed, hedging=hedging, incremental=incremental)
    kills = parse_kill_schedule(kill_schedule, shards, replicas)
    workload = build_workload(graph, spec, popularity=popularity)
    completions = scheduler.replay(workload.initial_requests,
                                   updates=workload.updates,
                                   kills=kills,
                                   on_complete=workload.driver)
    return ServeReport.from_replay(completions, service,
                                   recovered_faults=scheduler.recovered_faults,
                                   retry_backoff_ms=scheduler.retry_backoff_ms,
                                   metrics=scheduler.metrics,
                                   shard=scheduler.shard_summary(),
                                   dynamic=scheduler.dynamic_summary())
