"""k-core decomposition by parallel peeling.

Core numbers via iterated filtering: repeatedly strip vertices whose
remaining degree is below k — a pure filter loop over the vertex
frontier, the same "iterative convergent process" shape as the paper's
primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.csr import Csr, row_lanes
from ..simt.machine import Machine
from ..simt import calib
from .result import PrimitiveResult


@dataclass
class KCoreResult(PrimitiveResult):
    @property
    def core_numbers(self) -> np.ndarray:
        return self.arrays["core_numbers"]

    @property
    def max_core(self) -> int:
        return int(self.core_numbers.max()) if len(self.core_numbers) else 0

    def core_members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.core_numbers >= k)


def kcore(graph: Csr, *, machine: Optional[Machine] = None) -> KCoreResult:
    """Compute every vertex's core number (undirected input expected)."""
    n = graph.n
    deg = graph.out_degrees.astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    iterations = 0
    k = 0
    remaining = n
    while remaining > 0:
        k += 1
        # peel everything below k until stable
        while True:
            iterations += 1
            peel = np.flatnonzero(alive & (deg < k))
            if machine is not None:
                machine.map_kernel("kcore_filter", remaining,
                                   calib.C_VERTEX, iteration=iterations)
            if len(peel) == 0:
                break
            core[peel] = k - 1
            alive[peel] = False
            remaining -= len(peel)
            # decrement surviving neighbors' degrees
            degs_p = graph.degrees_of(peel)
            total = int(degs_p.sum())
            if total:
                _, eids = row_lanes(graph.indptr, peel, degs_p, total)
                nbrs = graph.indices[eids]
                live = alive[nbrs]
                np.subtract.at(deg, nbrs[live], 1)
                if machine is not None:
                    machine.map_kernel("kcore_decrement", total,
                                       calib.C_EDGE, iteration=iterations)
                    machine.counters.record_edges(total)
    result = KCoreResult(arrays={"core_numbers": core}, iterations=iterations)
    if machine is not None:
        result.elapsed_ms = machine.elapsed_ms()
        result.machine = machine
    return result
