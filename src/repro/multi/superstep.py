"""The one partitioned BSP loop: every multi-device primitive is a
``step`` and a ``commit`` under :func:`run_partitioned`.

``step(pg, active, iteration)`` gets one frontier of owned global ids
per device, charges its kernels inside ``with mm.step():`` scopes, runs
its exchanges, and returns a result without writing any global array.
``commit(pg, result, iteration)`` writes that result and returns the
next frontiers.  Because every launch happens before any write, a
``device-loss`` fault, which raises out of a launch, always leaves the
iteration exactly as it began.  Recovery is graceful degradation, done
here and nowhere else: fail the device, charge the re-shard traffic,
redistribute its partition round-robin over the survivors, re-bucket the
in-flight frontier by the new ownership, and replay the iteration.
``exchange-timeout`` faults retry inside :meth:`MultiMachine.exchange`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..graph.csr import Csr
from ..resilience.faults import DeviceLost, FaultKind
from ..resilience.recovery import RetryPolicy
from .machine import MultiMachine
from .partition import (PartitionedGraph, partition_1d, redistribute,
                        repair_bytes)

Frontiers = List[np.ndarray]


def setup(graph: Csr, k: int, method: str, machine: Optional[MultiMachine],
          faults, retry: Optional[RetryPolicy]
          ) -> Tuple[PartitionedGraph, MultiMachine]:
    """Partition ``graph`` over ``k`` devices and ready the machine: a
    fresh one unless given, with ``faults`` / ``retry`` attached."""
    pg = partition_1d(graph, k, method=method)
    mm = machine if machine is not None else MultiMachine(k=k)
    if mm.k != k:
        raise ValueError("machine.k must match k")
    if faults is not None or retry is not None:
        mm.attach(faults, retry)
    return pg, mm


def run_partitioned(mm: MultiMachine, pg: PartitionedGraph, active: Frontiers,
                    step: Callable, commit: Callable[..., Frontiers],
                    max_iterations: Optional[int] = None) -> int:
    """Run super-steps until every frontier is empty or
    ``max_iterations`` have committed; returns that 1-based count."""
    iteration = 0
    while any(len(a) for a in active) and (max_iterations is None
                                           or iteration < max_iterations):
        iteration += 1
        try:
            result = step(pg, active, iteration)
        except DeviceLost as fault:
            pg, active = _degrade(mm, pg, fault, np.concatenate(active))
            iteration -= 1
            continue
        active = commit(pg, result, iteration)
    return iteration


def _degrade(mm: MultiMachine, pg: PartitionedGraph, fault: DeviceLost,
             in_flight: np.ndarray) -> Tuple[PartitionedGraph, Frontiers]:
    """Move the lost device's partition and frontier onto the survivors;
    the last device's loss re-raises (nothing to degrade onto)."""
    dead = mm.slot_of(fault.device)
    mm.fail_device(dead)
    survivors = mm.alive_devices()
    if not survivors:
        raise fault
    mm.reshard(repair_bytes(pg, dead))
    pg = redistribute(pg, dead, survivors)
    st = mm.recovery
    st.record_fault(FaultKind.DEVICE_LOSS.value)
    st.faults_recovered += 1
    st.rollbacks += 1
    st.replayed_supersteps += 1
    return pg, [in_flight[pg.owner[in_flight] == d] for d in range(pg.k)]
