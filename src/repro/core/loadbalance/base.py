"""Load-balance strategy interface (Section 4.4).

Advance generates an irregular workload: each frontier vertex owns a
neighbor list of arbitrary length.  A :class:`LoadBalancer` decides how
that work maps onto CTAs and returns the per-CTA cycle-cost vector the
machine's makespan model consumes.  The *semantics* of advance are
identical under every strategy (the expansion arrays are computed once,
vectorized); only cost and counters differ — exactly the paper's framing,
where load balancing is "hidden from the programmer".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ...simt.machine import GPUSpec


@dataclass
class WorkEstimate:
    """What a strategy hands the machine for one advance launch."""

    #: per-CTA cycle costs (makespan input)
    cta_costs: np.ndarray
    #: additional flat cycles (setup scans, sorted searches) — charged once
    setup_cycles: float = 0.0


class LoadBalancer(ABC):
    """Maps a frontier's neighbor-list size vector onto CTA costs."""

    #: short name used in kernel records and benchmark tables
    name: str = "base"

    @abstractmethod
    def estimate(self, degrees: np.ndarray, spec: GPUSpec,
                 per_edge_cycles: float, per_vertex_cycles: float) -> WorkEstimate:
        """Compute the cost of advancing a frontier whose i-th vertex has
        ``degrees[i]`` neighbors."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: reusable padding scratch per tile width (strategies consume the tiled
#: view inside ``estimate`` before the next call can overwrite it)
_pad_scratch: Dict[int, np.ndarray] = {}


def pad_reshape(degrees: np.ndarray, tile: int) -> np.ndarray:
    """Pad a degree vector with zeros to a multiple of ``tile`` and reshape
    to ``(n_tiles, tile)`` — the vectorized form of 'assign a subset of the
    frontier to a block'.

    The padded buffer is reused across calls (zeroing only the pad
    tail); the returned view is valid until the next ``pad_reshape`` with
    the same tile width.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = len(degrees)
    if n == 0:
        return np.zeros((0, tile), dtype=np.int64)
    n_tiles = -(-n // tile)
    size = n_tiles * tile
    buf = _pad_scratch.get(tile)
    if buf is None or len(buf) < size:
        cap = max(size, 2 * len(buf) if buf is not None else size)
        buf = np.empty(cap, dtype=np.int64)
        _pad_scratch[tile] = buf
    padded = buf[:size]
    padded[:n] = degrees
    padded[n:] = 0
    return padded.reshape(n_tiles, tile)
