"""Multi-GPU PageRank over a 1D partition (Section 7 future work).

Residual-push PageRank where each device scatters along its owned rows
of the shared CSR; contributions to remote vertices accumulate in
per-device send buffers and are exchanged once per super-step (the
classic "boundary accumulation" pattern).  Results match the single-GPU
primitive.  :func:`partitioned_pagerank` is the one body: the multi-GPU
driver runs it on fresh devices, the serving tier's fan-out
(:func:`repro.serve.shard.fanout_pagerank`) on one replica per shard
group.  The loop, and device-loss recovery, are
:func:`repro.multi.superstep.run_partitioned`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.csr import Csr, row_lanes
from ..resilience.recovery import RetryPolicy
from ..simt import calib
from ..simt.primitives import unique_by_sort
from .machine import MultiMachine
from .partition import PartitionedGraph
from .superstep import run_partitioned, setup

_BYTES_PER_CONTRIB = 16.0  # vertex id + float value


def push_step(graph: Csr, pg: PartitionedGraph, mm: MultiMachine, active,
              residual: np.ndarray, degrees: np.ndarray, damping: float,
              iteration: int, kernel: str) -> np.ndarray:
    """One partitioned residual-push iteration; returns the residual every
    vertex received and writes nothing global.

    Devices scatter ``active[d]`` (owned global ids; kernel names carry
    the ``kernel`` prefix), contributions reduce in global-edge order —
    the float sums are identical for every partitioning, shard count and
    replica choice — then one exchange and a commit launch per live,
    non-empty device.
    """
    residual_next = np.zeros(graph.n)
    remote_contribs = 0
    # per-device (global edge id, destination, contribution) triples
    pending = []
    with mm.step():
        for d, f in enumerate(active):
            if len(f) == 0:
                continue
            degs = graph.degrees_of(f)
            total = int(degs.sum())
            dev = mm.devices[d]
            dev.launch(kernel + "scatter",
                       body_cycles=total * calib.C_EDGE / dev.spec.num_sm
                       + total * calib.C_ATOMIC_THROUGHPUT,
                       items=total, iteration=iteration)
            dev.counters.record_edges(total)
            if total == 0:
                continue
            _, eids = row_lanes(graph.indptr, f, degs, total)
            dsts = graph.indices[eids]
            seg = np.repeat(np.arange(len(f)), degs)
            contrib = damping * residual[f][seg] / degrees[f][seg]
            pending.append((eids, dsts, contrib))
            # contributions to each remote vertex are combined on-device
            # before shipping (boundary aggregation), so the wire volume
            # is one entry per distinct remote destination
            remote = dsts[pg.owner[dsts] != d]
            remote_contribs += len(unique_by_sort(remote))
    if pending:
        eids = np.concatenate([p[0] for p in pending])
        dsts = np.concatenate([p[1] for p in pending])
        contrib = np.concatenate([p[2] for p in pending])
        order = np.argsort(eids, kind="stable")
        np.add.at(residual_next, dsts[order], contrib[order])

    mm.exchange(remote_contribs * _BYTES_PER_CONTRIB)

    with mm.step():
        for d, part in enumerate(pg.parts):
            if mm.is_alive(d) and part.n_local:
                mm.devices[d].map_kernel(kernel + "commit", part.n_local,
                                         calib.C_VERTEX, iteration=iteration)
    return residual_next


@dataclass
class MultiPagerankResult:
    rank: np.ndarray
    iterations: int
    elapsed_ms: float
    compute_ms: float
    comm_ms: float
    #: recovery statistics when the run executed with fault injection
    recovery: Optional[dict] = None


def partitioned_pagerank(graph: Csr, pg: PartitionedGraph, mm: MultiMachine,
                         kernel: str, *, damping: float = 0.85,
                         tolerance: Optional[float] = None,
                         max_iterations: int = 1000) -> MultiPagerankResult:
    """Residual-push PageRank over ``pg`` on ``mm``'s live devices.

    A device that is already failed owns vertices that neither scatter
    nor commit: their ranks stay at the base value.
    """
    n = max(1, graph.n)
    tol = (0.01 / n) if tolerance is None else tolerance
    base = (1.0 - damping) / n
    rank = np.full(graph.n, base)
    residual = np.full(graph.n, base)
    degrees = np.maximum(graph.out_degrees, 1).astype(np.float64)

    def owned(pg, d):
        part = pg.parts[d]
        return part.vertices if mm.is_alive(d) else part.vertices[:0]

    def step(pg, active, iteration):
        return push_step(graph, pg, mm, active, residual, degrees, damping,
                         iteration, kernel)

    def commit(pg, residual_next, iteration):
        active = []
        for d in range(pg.k):
            verts = owned(pg, d)
            res = residual_next[verts]
            rank[verts] += res
            residual[verts] = res
            active.append(verts[res > tol])
        return active

    live = [owned(pg, d) for d in range(pg.k)]
    active = [verts[residual[verts] > tol] for verts in live]
    iterations = run_partitioned(mm, pg, active, step, commit,
                                 max_iterations)
    return MultiPagerankResult(rank=rank, iterations=iterations,
                               elapsed_ms=mm.elapsed_ms(),
                               compute_ms=mm.compute_ms(), comm_ms=mm.comm_ms,
                               recovery=mm.recovery_summary())


def multi_gpu_pagerank(graph: Csr, k: int = 2, *, damping: float = 0.85,
                       tolerance: Optional[float] = None,
                       method: str = "contiguous",
                       machine: Optional[MultiMachine] = None,
                       max_iterations: int = 1000,
                       faults=None,
                       retry: Optional[RetryPolicy] = None
                       ) -> MultiPagerankResult:
    """Residual-push PageRank across ``k`` simulated devices.

    ``faults`` / ``retry`` enable fault-tolerant execution
    (:mod:`repro.resilience`); ranks are identical to the fault-free run.
    """
    pg, mm = setup(graph, k, method, machine, faults, retry)
    return partitioned_pagerank(graph, pg, mm, "mgpu_pr_", damping=damping,
                                tolerance=tolerance,
                                max_iterations=max_iterations)
