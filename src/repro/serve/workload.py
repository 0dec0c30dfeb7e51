"""Seed-deterministic serving workloads with Zipfian source popularity.

A serving benchmark is only as honest as its traffic.  This module
generates request streams whose *sources follow a Zipf law over
popularity rank* (rank = out-degree order, the "celebrity accounts" of a
follow graph), which is what makes the result cache's hit rate a
meaningful number: a uniform source distribution would never re-ask a
question, a point mass would always hit.

Two arrival disciplines:

* **open loop** — Poisson arrivals at a fixed rate; latency under
  overload grows without back-pressure (the honest tail-latency regime).
* **closed loop** — a fixed population of clients, each issuing its next
  request a fixed think time after its previous one completes.

Optionally the workload interleaves *graph updates*: every
``update_interval_ms`` the graph mutates and the service's graph version
bumps — the "freshness over reuse" tension an online graph service lives
with.  ``update_kind`` picks the mutation: ``"weights"`` re-randomizes
every edge weight (the legacy PR 5 semantics), ``"edges"`` applies a
seed-deterministic structural delta (``delta_frac`` of the edges deleted
and as many inserted) built through the same
:class:`~repro.dynamic.delta.DeltaCsr` version chain the serving tier
keeps, so each update carries both the post-mutation CSR *and* the
:class:`~repro.dynamic.delta.MutationBatch` that produced it.

Everything derives from ``seed``; two generations with the same spec are
identical, which is what pins the CI determinism check.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..dynamic.delta import (DeltaCsr, GraphUpdate, MutationBatch,
                             random_mutation_batch)
from ..graph.build import with_random_weights
from ..graph.csr import Csr
from .batcher import SERVED_PRIMITIVES
from .service import Request

#: default traffic mix (weights, normalized at build time)
DEFAULT_MIX: Dict[str, float] = {
    "bfs": 0.30, "sssp": 0.25, "ppr": 0.20, "wtf": 0.15, "pagerank": 0.10,
}

#: per-primitive latency budgets in simulated ms (relative deadlines),
#: calibrated to the ~0.1-0.7 ms single-query makespans of a kron:10
#: graph on the default simulated device
DEFAULT_DEADLINES_MS: Dict[str, float] = {
    "bfs": 5.0, "sssp": 10.0, "ppr": 15.0, "wtf": 15.0, "pagerank": 50.0,
}

#: per-primitive priorities (lower = more urgent; user-facing queries
#: outrank analytics)
DEFAULT_PRIORITIES: Dict[str, int] = {
    "wtf": 0, "ppr": 0, "bfs": 1, "sssp": 1, "pagerank": 2,
}


@dataclass
class WorkloadSpec:
    """Everything that determines a workload, hashable into a seed."""

    requests: int = 200
    seed: int = 7
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    mode: str = "open"               # "open" | "closed"
    arrival_rate_rps: float = 2000.0  # open loop
    clients: int = 8                  # closed loop
    think_ms: float = 0.5             # closed loop
    zipf_s: float = 1.1
    wtf_k: int = 10
    deadlines_ms: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DEADLINES_MS))
    deadline_scale: float = 1.0
    updates: int = 0
    update_interval_ms: float = 50.0
    update_kind: str = "weights"     # "weights" | "edges"
    delta_frac: float = 0.005        # edge fraction per structural delta

    def __post_init__(self) -> None:
        if self.update_kind not in ("weights", "edges"):
            raise ValueError("update_kind must be 'weights' or 'edges'")
        if not 0.0 < self.delta_frac <= 1.0:
            raise ValueError("delta_frac must be in (0, 1]")
        if self.requests < 1:
            raise ValueError("workload needs at least one request")
        if self.mode not in ("open", "closed"):
            raise ValueError("mode must be 'open' or 'closed'")
        unknown = set(self.mix) - set(SERVED_PRIMITIVES)
        if unknown:
            raise ValueError(f"mix names unknown primitives: {sorted(unknown)}")
        if not any(w > 0 for w in self.mix.values()):
            raise ValueError("mix must have positive total weight")


def zipf_popularity(graph: Csr, s: float) -> np.ndarray:
    """Probability per vertex: Zipf over out-degree rank (hubs are hot)."""
    order = np.argsort(-graph.out_degrees, kind="stable")
    ranks = np.empty(graph.n, dtype=np.int64)
    ranks[order] = np.arange(graph.n)
    p = (ranks + 1.0) ** (-s)
    return p / p.sum()


def shard_hotspot_popularity(graph: Csr, owner: np.ndarray, sid: int,
                             boost: float, s: float = 1.1) -> np.ndarray:
    """Zipf popularity with one shard's vertices ``boost``× hotter.

    The sharded tier's skew stressor: with ``owner`` from a
    :class:`~repro.serve.shard.ShardMap` this concentrates traffic on
    shard ``sid`` so its per-shard queue bound (not the whole tier)
    absorbs the hotspot.
    """
    if boost <= 0:
        raise ValueError("boost must be positive")
    p = zipf_popularity(graph, s)
    scale = np.where(np.asarray(owner) == sid, boost, 1.0)
    p = p * scale
    return p / p.sum()


@dataclass
class Workload:
    """A fully materialized workload, ready for the scheduler to replay."""

    spec: WorkloadSpec
    requests: List[Request]
    updates: List[Tuple[float, str, GraphUpdate]]
    #: closed-loop continuation (None in open-loop mode): maps a finished
    #: request to its client's next one
    driver: Optional["ClosedLoopDriver"] = None

    @property
    def initial_requests(self) -> List[Request]:
        if self.driver is None:
            return self.requests
        return self.driver.initial()


class ClosedLoopDriver:
    """Fixed client population: next request = completion + think time."""

    def __init__(self, streams: Dict[int, Deque[Request]], think_ms: float):
        self._streams = streams
        self.think_ms = think_ms

    def initial(self) -> List[Request]:
        out = []
        for client in sorted(self._streams):
            q = self._streams[client]
            if q:
                out.append(q.popleft())
        return out

    def __call__(self, request: Request, completion) -> Optional[Request]:
        q = self._streams.get(request.client)
        if not q:
            return None
        nxt = q.popleft()
        nxt.arrival_ms = completion.finish_ms + self.think_ms
        return nxt


def _draw_params(primitive: str, vertex: int, spec: WorkloadSpec) -> Dict:
    if primitive in ("bfs", "sssp"):
        return {"src": vertex}
    if primitive == "ppr":
        return {"seeds": (vertex,)}
    if primitive == "wtf":
        return {"user": vertex, "k": spec.wtf_k}
    return {}  # pagerank: whole-graph query, no parameters


def build_workload(graph: Csr, spec: WorkloadSpec,
                   graph_name: str = "default",
                   popularity: Optional[np.ndarray] = None) -> Workload:
    """Materialize a request stream (and update schedule) for ``graph``.

    ``popularity`` overrides the default Zipf-over-degree-rank source
    distribution (must sum to 1 over the graph's vertices) — e.g. a
    :func:`shard_hotspot_popularity` skew.
    """
    rng = np.random.default_rng(spec.seed)
    prims = sorted(p for p, w in spec.mix.items() if w > 0)
    weights = np.array([spec.mix[p] for p in prims], dtype=np.float64)
    weights /= weights.sum()
    if popularity is None:
        popularity = zipf_popularity(graph, spec.zipf_s)
    elif len(popularity) != graph.n:
        raise ValueError("popularity override must cover every vertex")

    chosen = rng.choice(len(prims), size=spec.requests, p=weights)
    vertices = rng.choice(graph.n, size=spec.requests, p=popularity)
    requests: List[Request] = []
    for i in range(spec.requests):
        prim = prims[int(chosen[i])]
        deadline = spec.deadlines_ms.get(
            prim, DEFAULT_DEADLINES_MS[prim]) * spec.deadline_scale
        requests.append(Request(
            rid=i, primitive=prim,
            params=_draw_params(prim, int(vertices[i]), spec),
            deadline_ms=deadline,
            priority=DEFAULT_PRIORITIES[prim],
            graph=graph_name))

    driver: Optional[ClosedLoopDriver] = None
    if spec.mode == "open":
        gaps = rng.exponential(1000.0 / spec.arrival_rate_rps,
                               size=spec.requests)
        arrivals = np.cumsum(gaps)
        for req, at in zip(requests, arrivals):
            req.arrival_ms = float(at)
    else:
        streams: Dict[int, Deque[Request]] = {
            c: deque() for c in range(spec.clients)}
        for i, req in enumerate(requests):
            req.client = i % spec.clients
            streams[req.client].append(req)
        # stagger the first wave so clients do not arrive in lockstep
        for c in range(spec.clients):
            if streams[c]:
                streams[c][0].arrival_ms = 0.01 * c
        driver = ClosedLoopDriver(streams, spec.think_ms)

    updates: List[Tuple[float, str, GraphUpdate]] = []
    if spec.update_kind == "weights":
        for i in range(spec.updates):
            at_ms = (i + 1) * spec.update_interval_ms
            fresh = with_random_weights(graph,
                                        seed=spec.seed + 7919 * (i + 1))
            batch = MutationBatch(all_weights=np.asarray(
                fresh.edge_values, dtype=np.float64))
            updates.append((at_ms, graph_name, GraphUpdate(fresh, batch)))
    elif spec.updates:
        # structural deltas, built through the same version chain the
        # service keeps, so each update ships the post-mutation CSR and
        # the batch that produced it
        chain = DeltaCsr(graph)
        for i in range(spec.updates):
            at_ms = (i + 1) * spec.update_interval_ms
            batch = random_mutation_batch(
                chain.snapshot(), spec.seed + 7919 * (i + 1),
                frac=spec.delta_frac)
            chain.apply(batch)
            updates.append((at_ms, graph_name,
                            GraphUpdate(chain.snapshot(), batch)))
            chain.maybe_compact()

    return Workload(spec, requests, updates, driver)
