"""Multi-GPU BFS over a 1D partition (Section 7 future work, in the style
of Merrill et al.'s multi-GPU BFS, which the paper cites as the state of
the art for primitive-specific scaling).

Per super-step, each device expands the slice of the frontier it owns
on the shared CSR (its own Gunrock-style expansion, costed on its own
simulated device), and ships each discovery to its owner through the
interconnect; owners deduplicate, and the commit labels.  Results are
bit-identical to single-GPU BFS.  The loop, and device-loss recovery,
are :func:`repro.multi.superstep.run_partitioned`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.loadbalance import LoadBalancer, default_load_balancer
from ..graph.csr import Csr, row_lanes
from ..resilience.recovery import RetryPolicy
from ..simt import calib
from ..simt.primitives import unique_by_sort
from .machine import MultiMachine
from .superstep import run_partitioned, setup

#: bytes shipped per remote frontier vertex (id + depth)
_BYTES_PER_VERTEX = 12.0


@dataclass
class MultiBfsResult:
    labels: np.ndarray
    iterations: int
    elapsed_ms: float
    compute_ms: float
    comm_ms: float
    remote_fraction: float
    #: recovery statistics when the run executed with fault injection
    recovery: Optional[dict] = None


def multi_gpu_bfs(graph: Csr, src: int, k: int = 2, *,
                  method: str = "contiguous",
                  machine: Optional[MultiMachine] = None,
                  lb: Optional[LoadBalancer] = None,
                  faults=None,
                  retry: Optional[RetryPolicy] = None) -> MultiBfsResult:
    """Run BFS across ``k`` simulated devices; labels match 1-GPU BFS.

    ``faults`` / ``retry`` enable fault-tolerant execution
    (:mod:`repro.resilience`): device losses degrade onto the surviving
    devices, exchange timeouts retry with backoff, stragglers only cost
    time — final labels are identical to the fault-free run.
    """
    if not 0 <= src < graph.n:
        raise ValueError("source out of range")
    pg, mm = setup(graph, k, method, machine, faults, retry)
    lb = lb if lb is not None else default_load_balancer()
    labels = np.full(graph.n, -1, dtype=np.int64)
    labels[src] = 0
    # per-device frontier of *owned* global vertex ids
    frontiers = [np.zeros(0, dtype=np.int64) for _ in range(k)]
    frontiers[pg.owner[src]] = np.array([src], dtype=np.int64)

    def step(pg, frontiers, depth):
        outgoing = [[np.zeros(0, dtype=np.int64) for _ in range(k)]
                    for _ in range(k)]
        with mm.step():
            for d, f in enumerate(frontiers):
                if len(f) == 0:
                    continue
                degs = graph.degrees_of(f)
                total = int(degs.sum())
                dev = mm.devices[d]
                est = lb.estimate(degs, dev.spec,
                                  calib.C_EDGE + calib.C_FUNCTOR_PER_ELEM,
                                  calib.C_VERTEX)
                dev.launch(f"mgpu_advance[{lb.name}]", est.cta_costs,
                           body_cycles=est.setup_cycles, items=total,
                           iteration=depth)
                dev.counters.record_edges(total)
                if total == 0:
                    continue
                _, eids = row_lanes(graph.indptr, f, degs, total)
                dsts = graph.indices[eids]
                fresh = dsts[labels[dsts] < 0]
                if len(fresh) == 0:
                    continue
                owners = pg.owner[fresh]
                for target in range(k):
                    outgoing[d][target] = unique_by_sort(
                        fresh[owners == target])

        # exchange remotely-discovered vertices
        remote_bytes = sum(len(outgoing[d][t]) * _BYTES_PER_VERTEX
                           for d in range(k) for t in range(k) if d != t)
        mm.exchange(remote_bytes)

        # owners dedupe (a filter-shaped step on each device)
        incomings = []
        with mm.step():
            for target in range(k):
                incoming = unique_by_sort(np.concatenate(
                    [outgoing[d][target] for d in range(k)]))
                incoming = incoming[labels[incoming] < 0]
                if mm.is_alive(target):
                    mm.devices[target].map_kernel(
                        "mgpu_filter", len(incoming),
                        calib.C_COMPACT_PER_ELEM, iteration=depth)
                incomings.append(incoming)
        return incomings

    def commit(pg, incomings, depth):
        for incoming in incomings:
            labels[incoming] = depth
        return incomings

    depth = run_partitioned(mm, pg, frontiers, step, commit)
    return MultiBfsResult(labels=labels, iterations=depth,
                          elapsed_ms=mm.elapsed_ms(),
                          compute_ms=mm.compute_ms(), comm_ms=mm.comm_ms,
                          remote_fraction=pg.remote_edge_fraction(),
                          recovery=mm.recovery_summary())
