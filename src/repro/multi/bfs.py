"""Multi-GPU BFS over a 1D partition (Section 7 future work, in the style
of Merrill et al.'s multi-GPU BFS, which the paper cites as the state of
the art for primitive-specific scaling).

Per super-step, each device advances the slice of the frontier it owns
(its own Gunrock-style expansion, costed on its own simulated device),
labels locally-owned discoveries, and ships remotely-owned discoveries to
their owners through the interconnect; owners deduplicate and label at
the start of the next step.  Results are bit-identical to single-GPU BFS.

Fault tolerance: each BSP depth mutates global state (``labels``) only
*after* every kernel launch of the depth has completed, so a
``device-loss`` fault — which raises out of a per-device launch — always
leaves the global arrays exactly as they were when the depth began.
Recovery is graceful degradation: abort the half-step, redistribute the
dead device's partition round-robin over the survivors
(:func:`repro.multi.partition.redistribute`), re-bucket the in-flight
frontier by the new ownership, charge the re-shard traffic, and replay
the depth on ``k-1`` devices.  ``exchange-timeout`` faults are retried
with exponential backoff inside :meth:`MultiMachine.exchange`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.loadbalance import LoadBalancer, default_load_balancer
from ..graph.csr import Csr, row_lanes
from ..resilience.faults import DeviceLost, FaultKind
from ..resilience.recovery import RetryPolicy
from ..simt import calib
from ..simt.primitives import unique_by_sort
from .machine import MultiMachine
from .partition import (PartitionedGraph, partition_1d, redistribute,
                        repair_bytes)

#: bytes shipped per remote frontier vertex (id + depth)
_BYTES_PER_VERTEX = 12.0


def _recover_device_loss(mm: MultiMachine, pg: PartitionedGraph,
                         fault: DeviceLost,
                         frontier_items: np.ndarray) -> tuple:
    """Shared graceful-degradation path for the multi-GPU drivers.

    Fails the device, redistributes its partition, charges the re-shard
    traffic, and returns ``(pg, local_pos, per_device_frontiers)`` with
    the in-flight frontier re-bucketed by the new ownership.
    """
    mm.abort_step()
    dead = fault.device
    mm.fail_device(dead)
    survivors = mm.alive_devices()
    if not survivors:
        raise fault  # the last device died: nothing to degrade onto
    mm.reshard(repair_bytes(pg, dead))
    pg = redistribute(pg, dead, survivors)
    local_pos = pg.local_positions()
    frontiers = [frontier_items[pg.owner[frontier_items] == d]
                 for d in range(pg.k)]
    st = mm.recovery
    st.record_fault(FaultKind.DEVICE_LOSS.value)
    st.faults_recovered += 1
    st.rollbacks += 1
    st.replayed_supersteps += 1
    return pg, local_pos, frontiers


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
    pg: PartitionedGraph = partition_1d(graph, k, method=method)
    mm = machine if machine is not None else MultiMachine(k=k)
    if mm.k != k:
        raise ValueError("machine.k must match k")
    if faults is not None or retry is not None:
        mm.attach(faults, retry)
    lb = lb if lb is not None else default_load_balancer()
    remote_fraction = pg.remote_edge_fraction()

    labels = np.full(graph.n, -1, dtype=np.int64)
    labels[src] = 0
    # per-device frontier of *owned* global vertex ids
    frontiers = [np.zeros(0, dtype=np.int64) for _ in range(k)]
    frontiers[pg.owner[src]] = np.array([src], dtype=np.int64)

    local_pos = pg.local_positions()

    depth = 0
    while any(len(f) for f in frontiers):
        depth += 1
        try:
            mm.begin_step()
            outgoing = [[np.zeros(0, dtype=np.int64) for _ in range(k)]
                        for _ in range(k)]
            for d, part in enumerate(pg.parts):
                f = frontiers[d]
                if len(f) == 0:
                    continue
                rows = local_pos[f]
                degs = part.indptr[rows + 1] - part.indptr[rows]
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
                _, eids = row_lanes(part.indptr, rows, degs, total)
                dsts = part.indices[eids]
                fresh = dsts[labels[dsts] < 0]
                if len(fresh) == 0:
                    continue
                owners = pg.owner[fresh]
                for target in range(k):
                    mine = unique_by_sort(fresh[owners == target])
                    outgoing[d][target] = mine
            mm.end_step()

            # exchange remotely-discovered vertices
            remote_bytes = sum(len(outgoing[d][t]) * _BYTES_PER_VERTEX
                               for d in range(k) for t in range(k) if d != t)
            mm.exchange(remote_bytes)

            # owners dedupe + label (a filter-shaped step on each device);
            # all kernel launches happen before any label is written, so a
            # device loss here still aborts to an unmutated depth
            mm.begin_step()
            incomings = []
            for target in range(k):
                incoming = np.concatenate([outgoing[d][target]
                                           for d in range(k)]) \
                    if k > 1 else outgoing[0][target]
                incoming = unique_by_sort(incoming)
                incoming = incoming[labels[incoming] < 0]
                if mm.is_alive(target):
                    mm.devices[target].map_kernel(
                        "mgpu_filter", len(incoming),
                        calib.C_COMPACT_PER_ELEM, iteration=depth)
                incomings.append(incoming)
            mm.end_step()
        except DeviceLost as fault:
            in_flight = np.concatenate(frontiers) if k > 1 else frontiers[0]
            pg, local_pos, frontiers = _recover_device_loss(
                mm, pg, fault, in_flight)
            depth -= 1
            continue
        for target in range(k):
            labels[incomings[target]] = depth
        frontiers = incomings

    return MultiBfsResult(labels=labels, iterations=depth,
                          elapsed_ms=mm.elapsed_ms(),
                          compute_ms=mm.compute_ms(), comm_ms=mm.comm_ms,
                          remote_fraction=remote_fraction,
                          recovery=mm.recovery_summary())
