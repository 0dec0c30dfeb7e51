"""Multi-GPU PageRank over a 1D partition (Section 7 future work).

Residual-push PageRank where each device scatters along its owned rows;
contributions to remote vertices accumulate in per-device send buffers
and are exchanged once per super-step (the classic "boundary
accumulation" pattern).  Results match the single-GPU primitive.

Fault tolerance mirrors :mod:`repro.multi.bfs`: each iteration scatters
into a scratch ``residual_next`` buffer and only commits into the global
``rank`` / ``residual`` arrays after every kernel launch of the
iteration has completed.  A ``device-loss`` fault therefore aborts to an
unmutated iteration; recovery redistributes the dead partition over the
survivors, re-buckets the active set, charges the re-shard traffic, and
replays the iteration on ``k-1`` devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.csr import Csr, row_lanes
from ..resilience.faults import DeviceLost
from ..resilience.recovery import RetryPolicy
from ..simt import calib
from ..simt.primitives import unique_by_sort
from .bfs import _recover_device_loss
from .machine import MultiMachine
from .partition import PartitionedGraph, partition_1d

_BYTES_PER_CONTRIB = 16.0  # vertex id + float value


def push_step(graph: Csr, pg: PartitionedGraph, mm: MultiMachine, active,
              local_pos: np.ndarray, residual: np.ndarray,
              degrees: np.ndarray, damping: float, iteration: int,
              kernel: str) -> np.ndarray:
    """One partitioned residual-push iteration; returns the residual every
    vertex received and writes nothing global, so a ``DeviceLost`` raised
    from a launch leaves the caller's iteration unmutated.

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
    mm.begin_step()
    for d, part in enumerate(pg.parts):
        f = active[d]
        if len(f) == 0:
            continue
        rows = local_pos[f]
        degs = part.indptr[rows + 1] - part.indptr[rows]
        total = int(degs.sum())
        dev = mm.devices[d]
        dev.launch(kernel + "scatter",
                   body_cycles=total * calib.C_EDGE / dev.spec.num_sm
                   + total * calib.C_ATOMIC_THROUGHPUT,
                   items=total, iteration=iteration)
        dev.counters.record_edges(total)
        if total == 0:
            continue
        _, eids = row_lanes(part.indptr, rows, degs, total)
        dsts = part.indices[eids]
        _, geids = row_lanes(graph.indptr, f, degs, total)
        seg = np.repeat(np.arange(len(f)), degs)
        contrib = damping * residual[f][seg] / degrees[f][seg]
        pending.append((geids, dsts, contrib))
        # contributions to each remote vertex are combined on-device
        # before shipping (boundary aggregation), so the wire volume
        # is one entry per distinct remote destination
        remote = dsts[pg.owner[dsts] != d]
        remote_contribs += len(unique_by_sort(remote))
    mm.end_step()
    if pending:
        geids = np.concatenate([p[0] for p in pending])
        dsts = np.concatenate([p[1] for p in pending])
        contrib = np.concatenate([p[2] for p in pending])
        order = np.argsort(geids, kind="stable")
        np.add.at(residual_next, dsts[order], contrib[order])

    mm.exchange(remote_contribs * _BYTES_PER_CONTRIB)

    mm.begin_step()
    for d, part in enumerate(pg.parts):
        if mm.is_alive(d) and part.n_local:
            mm.devices[d].map_kernel(kernel + "commit", part.n_local,
                                     calib.C_VERTEX, iteration=iteration)
    mm.end_step()
    return residual_next


def commit_step(pg: PartitionedGraph, mm: MultiMachine, rank: np.ndarray,
                residual: np.ndarray, residual_next: np.ndarray,
                tol: float) -> list:
    """Fold what :func:`push_step` returned into ``rank`` / ``residual``
    on every live device's vertices; returns the next active sets."""
    active = []
    for d, part in enumerate(pg.parts):
        verts = part.vertices if mm.is_alive(d) else part.vertices[:0]
        res = residual_next[verts]
        rank[verts] += res
        residual[verts] = res
        active.append(verts[res > tol])
    return active


@dataclass
class MultiPagerankResult:
    rank: np.ndarray
    iterations: int
    elapsed_ms: float
    compute_ms: float
    comm_ms: float
    #: recovery statistics when the run executed with fault injection
    recovery: Optional[dict] = None


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
    n = max(1, graph.n)
    tol = (0.01 / n) if tolerance is None else tolerance
    pg: PartitionedGraph = partition_1d(graph, k, method=method)
    mm = machine if machine is not None else MultiMachine(k=k)
    if mm.k != k:
        raise ValueError("machine.k must match k")
    if faults is not None or retry is not None:
        mm.attach(faults, retry)

    base = (1.0 - damping) / n
    rank = np.full(graph.n, base)
    residual = np.full(graph.n, base)
    degrees = np.maximum(graph.out_degrees, 1).astype(np.float64)

    local_pos = pg.local_positions()

    active = [part.vertices[residual[part.vertices] > tol]
              for part in pg.parts]
    iterations = 0
    while any(len(a) for a in active) and iterations < max_iterations:
        iterations += 1
        try:
            residual_next = push_step(graph, pg, mm, active, local_pos,
                                      residual, degrees, damping,
                                      iterations, "mgpu_pr_")
        except DeviceLost as fault:
            in_flight = np.concatenate(active) if k > 1 else active[0]
            pg, local_pos, active = _recover_device_loss(
                mm, pg, fault, in_flight)
            iterations -= 1
            continue
        active = commit_step(pg, mm, rank, residual, residual_next, tol)

    return MultiPagerankResult(rank=rank, iterations=iterations,
                               elapsed_ms=mm.elapsed_ms(),
                               compute_ms=mm.compute_ms(), comm_ms=mm.comm_ms,
                               recovery=mm.recovery_summary())
