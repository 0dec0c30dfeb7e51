"""The graph-query service: versioned graphs + query admission + results.

:class:`GraphService` is the serving layer's front door.  It owns one or
more *versioned* loaded graphs (an online service re-ingests its graph —
Twitter's follow graph changes constantly), a byte-budgeted result cache
(:mod:`repro.serve.cache`), and a deadline-aware scheduler
(:mod:`repro.serve.scheduler`).  Queries arrive as :class:`Request`
objects carrying a deadline and a priority; the batcher
(:mod:`repro.serve.batcher`) coalesces compatible queued queries into one
operator-level execution.

Everything runs in *simulated* time: request service cost is the
simulated-GPU makespan of the batched execution on the dispatch device,
so throughput/latency numbers are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dynamic.delta import DeltaCsr, MutationBatch, unaffected_primitives
from ..graph.csr import Csr
from .batcher import (Batch, COALESCED_PRIMITIVES, LaneResult,
                      SERVED_PRIMITIVES, SOLO_PRIMITIVES, execute_batch,
                      query_key)
from .cache import ResultCache
from .shard import FANOUT, ShardMap, ShardTier, build_shard_map, route_vertex

DEFAULT_GRAPH = "default"


@dataclass
class Request:
    """One query: a primitive, its parameters, and serving metadata.

    ``deadline_ms`` is the latency budget relative to ``arrival_ms``;
    ``priority`` breaks deadline ties (lower is more urgent).
    """

    rid: int
    primitive: str
    params: Dict
    arrival_ms: float = 0.0
    deadline_ms: float = float("inf")
    priority: int = 0
    graph: str = DEFAULT_GRAPH
    client: int = 0

    @property
    def absolute_deadline_ms(self) -> float:
        return self.arrival_ms + self.deadline_ms

    @property
    def key(self) -> Tuple:
        return query_key(self.primitive, self.params)


@dataclass
class Completion:
    """Terminal record of one request's journey through the service."""

    rid: int
    primitive: str
    arrival_ms: float
    finish_ms: float
    outcome: str          # "ok" | "cache_hit" | "partial" | "shed"
    #                     # | "deadline_drop" | "failed"
    batch_lanes: int = 0  # lanes of the executing batch (0 = not executed)
    device: int = -1
    deadline_met: bool = True
    #: typed cause for non-ok outcomes — "queue_full", "deadline_passed",
    #: "shard_down", "retries_exhausted", "degraded" — so a report can
    #: separate overload shedding from shard-loss shedding; every
    #: non-served completion carries one (``SchedulerCore._complete``)
    reason: str = ""

    @property
    def latency_ms(self) -> float:
        return self.finish_ms - self.arrival_ms

    @property
    def served(self) -> bool:
        """A reply reached the client ("partial" replies are degraded
        fan-outs: live shards' bytes, typed-missing NaN for the rest)."""
        return self.outcome in ("ok", "cache_hit", "partial")


@dataclass
class VersionedGraph:
    """A loaded graph plus its monotonically increasing version.

    Under incremental updates the service additionally keeps the
    :class:`~repro.dynamic.delta.DeltaCsr` version chain mutation
    batches are applied to; ``csr`` is its snapshot, and both queries
    and cache repairs read ``csr``.
    """

    name: str
    csr: Csr
    version: int = 0
    delta: Optional[DeltaCsr] = None


def key_primitive(query_key: Tuple) -> str:
    """The primitive name inside a cache query key, shard-prefixed or not
    (shard keys are ``(("shard", sid), primitive, *params)``)."""
    return query_key[1] if isinstance(query_key[0], tuple) else query_key[0]


def key_parts(query_key: Tuple) -> Tuple[int, str, Dict]:
    """``(shard, primitive, params)`` of a cache query key; the shard is
    -1 for an unprefixed (single-pool) key."""
    if isinstance(query_key[0], tuple):
        return query_key[0][1], query_key[1], dict(query_key[2:])
    return -1, query_key[0], dict(query_key[1:])


def _cache_key(key: Tuple, sid: Optional[int]) -> Tuple:
    """``key`` as stored: bare in a single pool, shard-prefixed otherwise."""
    return key if sid is None else (("shard", sid),) + key


class GraphService:
    """Versioned graph store + cache + batched execution backend."""

    def __init__(self, *, cache_bytes: int = 64 << 20,
                 engine: Optional[str] = None):
        self.graphs: Dict[str, VersionedGraph] = {}
        self.cache = ResultCache(cache_bytes)
        self.executed_batches: List[Tuple[str, int]] = []  # (primitive, lanes)
        #: execution engine for cacheable whole-graph batches (coalesced
        #: and solo); None honors the process default.  Lane-batched
        #: queries always run pooled: their block-diagonal composite
        #: topology is a per-batch throwaway, so fused plan compilation
        #: would churn with no reuse.
        self.engine = engine
        #: (primitive, reason) pairs recorded when an engine-dispatched
        #: batch fell back to pooled (e.g. ``la`` on a primitive without
        #: a lowering) — the serve tier's view of the fallback contract
        self.engine_fallbacks: List[Tuple[str, str]] = []

    # -- graph lifecycle ---------------------------------------------------

    def load_graph(self, csr: Csr, name: str = DEFAULT_GRAPH) -> VersionedGraph:
        """Install a graph at version 0 (or replace, bumping the version)."""
        existing = self.graphs.get(name)
        if existing is None:
            vg = self.graphs[name] = VersionedGraph(name, csr)
            return vg
        return self.update_graph(csr, name)

    def update_graph(self, csr: Optional[Csr] = None,
                     name: str = DEFAULT_GRAPH, *,
                     batch: Optional[MutationBatch] = None,
                     machine=None, incremental: bool = False
                     ) -> VersionedGraph:
        """Swap in a new graph version; bumps the version and sweeps the
        dead version's cache entries (old results become unreachable).

        The classic path takes a full replacement ``csr``.  With
        ``incremental=True`` and a :class:`MutationBatch`, the update is
        instead applied through the graph's :class:`DeltaCsr` chain: the
        chain builds the next version in one pass and its snapshot read
        is charged to ``machine``, compaction runs on the chain's own
        policy, and cache entries whose results provably cannot change
        (the cache-retention rule of :func:`unaffected_primitives`) are
        carried across the version bump instead of swept.
        """
        vg = self.graphs[name]
        old_version = vg.version
        if incremental and batch is not None:
            if vg.delta is None or vg.delta.snapshot() is not vg.csr:
                vg.delta = DeltaCsr(vg.csr)
            vg.delta.apply(batch, machine=machine)
            vg.csr = vg.delta.snapshot(machine=machine)
            vg.delta.maybe_compact(machine=machine)
        else:
            if csr is None:
                raise ValueError("update_graph needs a csr or an "
                                 "incremental mutation batch")
            vg.csr = csr
            vg.delta = None
        vg.version += 1
        if batch is not None:
            keep = unaffected_primitives(batch)
            if keep:
                self.cache.carry_version(
                    name, old_version, vg.version,
                    lambda k: key_primitive(k) in keep)
        self.cache.invalidate_graph(name, keep_version=vg.version)
        return vg

    def graph_version(self, name: str = DEFAULT_GRAPH) -> VersionedGraph:
        vg = self.graphs.get(name)
        if vg is None:
            raise KeyError(f"no graph loaded under {name!r}")
        return vg

    # -- query path --------------------------------------------------------

    def validate(self, request: Request) -> None:
        if request.primitive not in SERVED_PRIMITIVES:
            raise ValueError(
                f"unknown primitive {request.primitive!r}; served "
                "primitives: " + ", ".join(SERVED_PRIMITIVES))
        self.graph_version(request.graph)

    def route(self, request: Request) -> Optional[int]:
        """Owning shard of the request; None — a single pool has no shards."""
        return None

    def lookup(self, request: Request,
               sid: Optional[int] = None) -> Optional[LaneResult]:
        """Cache probe against the request's graph at its *current*
        version (under shard ``sid``'s key prefix, when given)."""
        vg = self.graph_version(request.graph)
        return self.cache.get(vg.name, vg.version,
                              _cache_key(request.key, sid))

    def execute(self, graph_name: str, batch: Batch, machine
                ) -> Tuple[Dict[Tuple, LaneResult], int]:
        """Execute one batch on a device machine; returns the results
        plus the graph version they were computed against.  Nothing is
        cached here — see :meth:`commit`."""
        from ..core.engine import (engine as engine_ctx, fallback_count,
                                   fallback_log)

        vg = self.graph_version(graph_name)
        if self.engine and batch.primitive in (COALESCED_PRIMITIVES
                                              + SOLO_PRIMITIVES):
            before = fallback_count()
            with engine_ctx(self.engine):
                results = execute_batch(vg.csr, batch, machine=machine)
            # by count, not by list length: the log trims its oldest half
            recorded = fallback_count() - before
            if recorded:
                self.engine_fallbacks.extend(fallback_log()[-recorded:])
        else:
            results = execute_batch(vg.csr, batch, machine=machine)
        self.executed_batches.append((batch.primitive, batch.lanes))
        return results, vg.version

    def commit(self, graph_name: str, version: int,
               results: Dict[Tuple, LaneResult],
               sid: Optional[int] = None) -> None:
        """Cache an execution's lanes (keyed by owning shard ``sid``, when
        given) — skipped entirely when the graph has moved past
        ``version``."""
        vg = self.graph_version(graph_name)
        if vg.version != version:
            return
        for key, payload in results.items():
            self.cache.put(vg.name, vg.version, _cache_key(key, sid),
                           payload, payload.nbytes)

    def run_batch(self, graph_name: str, batch: Batch,
                  machine) -> Dict[Tuple, LaneResult]:
        """Execute one batch on a device machine and cache every lane."""
        results, version = self.execute(graph_name, batch, machine)
        self.commit(graph_name, version, results)
        return results

    # -- reporting ---------------------------------------------------------

    def batch_histogram(self) -> Dict[str, Dict[int, int]]:
        """Per-primitive histogram of executed batch lane counts."""
        out: Dict[str, Dict[int, int]] = {}
        for prim, lanes in self.executed_batches:
            out.setdefault(prim, {})
            out[prim][lanes] = out[prim].get(lanes, 0) + 1
        return {p: dict(sorted(h.items())) for p, h in sorted(out.items())}


def _same_topology(a: Csr, b: Csr) -> bool:
    """True when two CSRs share structure (weights may differ).

    ``with_edge_values`` and the reweight-only snapshot path share the
    actual index arrays, so the identity fast path covers every
    weight-only update without an O(m) compare.
    """
    if a.indptr is b.indptr and a.indices is b.indices:
        return True
    return (a.n == b.n and a.m == b.m
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))


class ShardedGraphService(GraphService):
    """A :class:`GraphService` whose graphs are partitioned over a
    :class:`~repro.serve.shard.ShardTier`.

    Each loaded graph carries a :class:`~repro.serve.shard.ShardMap`
    (vertex→shard ownership).  Routing sends a single-source query to
    the shard owning its source vertex and whole-graph queries to
    :data:`~repro.serve.shard.FANOUT`.  Cache keys are prefixed with the
    *owning shard at insert time*, so after a repair re-homes vertices
    the old shard's entries simply become unreachable misses — the
    stale-unreachable-by-construction contract extends to repairs.

    Execution results are **not** cached at dispatch time: the sharded
    scheduler calls :meth:`~GraphService.commit` only when the execution
    actually completes (a hedged loser or a killed replica's in-flight
    work must never populate the cache).
    """

    def __init__(self, tier: ShardTier, *, shard_method: str = "contiguous",
                 cache_bytes: int = 64 << 20):
        super().__init__(cache_bytes=cache_bytes)
        self.tier = tier
        self.shard_method = shard_method
        self.maps: Dict[str, ShardMap] = {}

    # -- graph lifecycle ---------------------------------------------------

    def load_graph(self, csr: Csr, name: str = DEFAULT_GRAPH) -> VersionedGraph:
        vg = super().load_graph(csr, name)
        self.maps[name] = build_shard_map(
            csr, self.tier.shards, self.shard_method, self.tier.dead_order,
            epoch=len(self.tier.dead_order))
        return vg

    def update_graph(self, csr: Optional[Csr] = None,
                     name: str = DEFAULT_GRAPH, *,
                     batch: Optional[MutationBatch] = None,
                     machine=None, incremental: bool = False
                     ) -> VersionedGraph:
        """Update + shard-map maintenance.  A weight-only update leaves
        vertex ownership untouched, so the existing map is kept instead
        of replaying the ``build_shard_map`` partition cascade — the map
        depends only on topology (degrees) and the dead order."""
        prev = self.graphs[name].csr
        vg = super().update_graph(csr, name, batch=batch, machine=machine,
                                  incremental=incremental)
        if not _same_topology(prev, vg.csr):
            self.maps[name] = build_shard_map(
                vg.csr, self.tier.shards, self.shard_method,
                self.tier.dead_order, epoch=len(self.tier.dead_order))
        return vg

    def rebuild_maps(self) -> None:
        """Re-derive every graph's ownership map after a repair extended
        ``tier.dead_order`` (the redistribute cascade is replayed from
        scratch, so maps are identical however many repairs batch up)."""
        for name, vg in self.graphs.items():
            self.maps[name] = build_shard_map(
                vg.csr, self.tier.shards, self.shard_method,
                self.tier.dead_order, epoch=len(self.tier.dead_order))

    def shard_map(self, name: str = DEFAULT_GRAPH) -> ShardMap:
        sm = self.maps.get(name)
        if sm is None:
            raise KeyError(f"no graph loaded under {name!r}")
        return sm

    # -- routing -----------------------------------------------------------

    def route(self, request: Request) -> int:
        """Owning shard of the request (:data:`FANOUT` = whole-graph)."""
        vertex = route_vertex(request.primitive, request.params)
        if vertex is None:
            return FANOUT
        sm = self.shard_map(request.graph)
        if not 0 <= vertex < len(sm.owner):
            raise ValueError(f"request {request.rid}: vertex {vertex} out "
                             f"of range for graph {request.graph!r}")
        return sm.shard_of(vertex)


@dataclass
class ServeReport:
    """Aggregate replay metrics — the ``repro serve`` output."""

    requests: int
    served: int
    cache_hits: int
    shed: int
    deadline_drops: int
    deadline_misses: int     # served, but after the deadline
    throughput_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    hit_rate: float
    stale_hits: int
    batch_histogram: Dict[str, Dict[int, int]]
    makespan_ms: float
    executed_batches: int
    recovered_faults: int = 0
    retry_backoff_ms: float = 0.0
    cache: Dict[str, float] = field(default_factory=dict)
    #: per-primitive histogram-estimated quantiles from the scheduler's
    #: ``repro_serve_latency_ms`` metric (DESIGN §11) — bucket
    #: interpolation, so values are deterministic but approximate,
    #: unlike the exact sample percentiles above
    latency_histogram: Dict[str, Dict[str, float]] = field(
        default_factory=dict)
    #: requests whose execution exhausted its failover budget
    failed: int = 0
    #: degraded fan-out replies (some shard group down; NaN for its vertices)
    partials: int = 0
    #: per-primitive outcome counts, e.g. {"bfs": {"ok": 40, "shed": 2}}
    by_primitive: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: per-primitive typed causes of every non-served completion, e.g.
    #: {"bfs": {"queue_full": 2, "shard_down": 1}}
    shed_reasons: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: sharded-tier section (empty for single-node serving)
    shard: Dict[str, object] = field(default_factory=dict)
    #: streaming-update section: updates applied, incremental repairs
    #: vs fallbacks, carried cache entries, compaction counts/cost
    dynamic: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_replay(cls, completions: List[Completion], service: GraphService,
                    recovered_faults: int = 0,
                    retry_backoff_ms: float = 0.0,
                    metrics=None, shard: Optional[Dict] = None,
                    dynamic: Optional[Dict] = None
                    ) -> "ServeReport":
        served = [c for c in completions if c.served]
        latencies = np.array([c.latency_ms for c in served], dtype=np.float64)
        if len(served):
            start = min(c.arrival_ms for c in completions)
            end = max(c.finish_ms for c in served)
            makespan = max(end - start, 1e-9)
            throughput = len(served) / (makespan * 1e-3)
            p50 = float(np.percentile(latencies, 50))
            p95 = float(np.percentile(latencies, 95))
            p99 = float(np.percentile(latencies, 99))
        else:
            makespan = 0.0
            throughput = p50 = p95 = p99 = 0.0
        latency_histogram: Dict[str, Dict[str, float]] = {}
        if metrics is not None:
            for lk, hist in metrics.samples("repro_serve_latency_ms"):
                primitive = dict(lk).get("primitive", "")
                latency_histogram[primitive] = hist.percentiles()
        by_primitive: Dict[str, Dict[str, int]] = {}
        shed_reasons: Dict[str, Dict[str, int]] = {}
        for c in completions:
            bp = by_primitive.setdefault(c.primitive, {})
            bp[c.outcome] = bp.get(c.outcome, 0) + 1
            if not c.served:
                sr = shed_reasons.setdefault(c.primitive, {})
                sr[c.reason] = sr.get(c.reason, 0) + 1
        stats = service.cache.stats
        return cls(
            requests=len(completions),
            served=len(served),
            cache_hits=sum(1 for c in completions if c.outcome == "cache_hit"),
            shed=sum(1 for c in completions if c.outcome == "shed"),
            deadline_drops=sum(1 for c in completions
                               if c.outcome == "deadline_drop"),
            deadline_misses=sum(1 for c in served if not c.deadline_met),
            throughput_rps=throughput,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            hit_rate=stats.hit_rate(),
            stale_hits=stats.stale_rejections,
            batch_histogram=service.batch_histogram(),
            makespan_ms=makespan,
            executed_batches=len(service.executed_batches),
            recovered_faults=recovered_faults,
            retry_backoff_ms=retry_backoff_ms,
            cache=stats.as_dict(),
            latency_histogram=latency_histogram,
            failed=sum(1 for c in completions if c.outcome == "failed"),
            partials=sum(1 for c in completions if c.outcome == "partial"),
            by_primitive={p: dict(sorted(h.items()))
                          for p, h in sorted(by_primitive.items())},
            shed_reasons={p: dict(sorted(h.items()))
                          for p, h in sorted(shed_reasons.items())},
            shard=dict(shard) if shard else {},
            dynamic=dict(dynamic) if dynamic else {},
        )

    def as_dict(self) -> Dict:
        return {
            "requests": self.requests,
            "served": self.served,
            "cache_hits": self.cache_hits,
            "shed": self.shed,
            "deadline_drops": self.deadline_drops,
            "deadline_misses": self.deadline_misses,
            "throughput_rps": round(self.throughput_rps, 6),
            "p50_ms": round(self.p50_ms, 6),
            "p95_ms": round(self.p95_ms, 6),
            "p99_ms": round(self.p99_ms, 6),
            "hit_rate": round(self.hit_rate, 6),
            "stale_hits": self.stale_hits,
            "batch_histogram": {p: {str(k): v for k, v in h.items()}
                                for p, h in self.batch_histogram.items()},
            "makespan_ms": round(self.makespan_ms, 6),
            "executed_batches": self.executed_batches,
            "recovered_faults": self.recovered_faults,
            "retry_backoff_ms": round(self.retry_backoff_ms, 6),
            "cache": {k: (round(v, 6) if isinstance(v, float) else v)
                      for k, v in self.cache.items()},
            "latency_histogram": {
                p: {q: round(v, 6) for q, v in sorted(qs.items())}
                for p, qs in sorted(self.latency_histogram.items())},
            "failed": self.failed,
            "partials": self.partials,
            "by_primitive": {p: dict(sorted(h.items()))
                             for p, h in sorted(self.by_primitive.items())},
            "shed_reasons": {p: dict(sorted(h.items()))
                             for p, h in sorted(self.shed_reasons.items())},
            "shard": {k: (round(v, 6) if isinstance(v, float) else v)
                      for k, v in sorted(self.shard.items())},
            "dynamic": {k: (round(v, 6) if isinstance(v, float) else v)
                        for k, v in sorted(self.dynamic.items())},
        }

    def format(self) -> str:
        lines = [
            f"{'requests':<22}{self.requests}",
            f"{'served':<22}{self.served} "
            f"({self.cache_hits} cache hits)",
            f"{'shed (overload)':<22}{self.shed}",
            f"{'deadline drops':<22}{self.deadline_drops}",
            f"{'deadline misses':<22}{self.deadline_misses}",
            f"{'throughput':<22}{self.throughput_rps:.1f} req/s (simulated)",
            f"{'latency p50':<22}{self.p50_ms:.3f} ms",
            f"{'latency p95':<22}{self.p95_ms:.3f} ms",
            f"{'latency p99':<22}{self.p99_ms:.3f} ms",
            f"{'cache hit rate':<22}{self.hit_rate:.1%}",
            f"{'stale hits':<22}{self.stale_hits}",
            f"{'executed batches':<22}{self.executed_batches}",
        ]
        if self.failed:
            lines.append(f"{'failed':<22}{self.failed}")
        if self.partials:
            lines.append(f"{'partial replies':<22}{self.partials}")
        if self.recovered_faults:
            lines.append(f"{'recovered faults':<22}{self.recovered_faults} "
                         f"(backoff {self.retry_backoff_ms:.1f} ms)")
        if self.shed_reasons:
            lines.append("shed/drop/fail reasons per primitive:")
            for prim, reasons in sorted(self.shed_reasons.items()):
                spread = "  ".join(f"{r}x{c}"
                                   for r, c in sorted(reasons.items()))
                lines.append(f"  {prim:<10}{spread}")
        if self.shard:
            lines.append("shard tier:")
            for k, v in sorted(self.shard.items()):
                val = f"{v:.3f}" if isinstance(v, float) else v
                lines.append(f"  {k:<20}{val}")
        if self.dynamic:
            lines.append("streaming updates:")
            for k, v in sorted(self.dynamic.items()):
                val = f"{v:.3f}" if isinstance(v, float) else v
                lines.append(f"  {k:<20}{val}")
        lines.append("batch sizes per primitive:")
        for prim, hist in self.batch_histogram.items():
            spread = "  ".join(f"{lanes}x{count}"
                               for lanes, count in hist.items())
            lines.append(f"  {prim:<10}{spread}")
        if self.latency_histogram:
            lines.append("latency histograms (bucket-estimated, ms):")
            for prim, qs in sorted(self.latency_histogram.items()):
                trio = "  ".join(f"{q}={qs[q]:.3f}"
                                 for q in ("p50", "p95", "p99") if q in qs)
                lines.append(f"  {prim:<10}{trio}")
        return "\n".join(lines)
