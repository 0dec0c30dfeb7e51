"""The frontier: Gunrock's central data structure.

"Unlike previous GPU graph programming models ... Gunrock's key
abstraction is the frontier, a subset of the edges or vertices within the
graph that is currently of interest.  All Gunrock operations are
bulk-synchronous and manipulate this frontier." (Section 1)

A :class:`Frontier` is a compact id queue of either vertices or edges,
with an optional dense bitmap companion (used by pull-based traversal and
by the idempotence heuristics).  Conversions between the two layouts are
explicit and, when a machine is attached, costed.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from ..graph.csr import iota
from ..simt import calib
from ..simt.machine import Machine
from ..simt.primitives import unique_by_sort


class FrontierKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"


_NO_ITEMS = np.zeros(0, dtype=np.int64)
_NO_ITEMS.setflags(write=False)


class Frontier:
    """A compact queue of vertex or edge ids (int64, deduplication not
    implied — advance may emit duplicates under idempotent operation)."""

    __slots__ = ("kind", "items")

    def __init__(self, items: np.ndarray, kind: FrontierKind | str = FrontierKind.VERTEX):
        self.kind = kind if type(kind) is FrontierKind else FrontierKind(kind)
        # operators hand over owned 1-D contiguous int64 queues, which
        # ascontiguousarray would return unchanged: skip the call for them
        if not (type(items) is np.ndarray and items.dtype == np.int64
                and items.ndim == 1 and items.flags.c_contiguous):
            items = np.ascontiguousarray(items, dtype=np.int64)
            if items.ndim != 1:
                raise ValueError("frontier items must be a 1-D id array")
        self.items = items

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_vertex(cls, v: int) -> "Frontier":
        """Single-source vertex frontier (the BFS/SSSP/BC starting point)."""
        return cls(np.array([v], dtype=np.int64), FrontierKind.VERTEX)

    @classmethod
    def from_vertices(cls, vertices) -> "Frontier":
        """Vertex frontier from an id sequence (multi-source traversal —
        one lane-offset source per batched request)."""
        return cls(np.asarray(vertices, dtype=np.int64), FrontierKind.VERTEX)

    @classmethod
    def all_vertices(cls, n: int) -> "Frontier":
        """Every vertex (PageRank's initial frontier): a read-only view
        of the process-wide :func:`~repro.graph.csr.iota` ramp."""
        return cls(iota(n), FrontierKind.VERTEX)

    @classmethod
    def all_edges(cls, m: int) -> "Frontier":
        """Every edge (connected components' initial frontier), also
        an :func:`~repro.graph.csr.iota` view."""
        return cls(iota(m), FrontierKind.EDGE)

    @classmethod
    def empty(cls, kind: FrontierKind | str = FrontierKind.VERTEX) -> "Frontier":
        return cls(_NO_ITEMS, kind)

    @classmethod
    def from_bitmap(cls, bitmap: np.ndarray,
                    kind: FrontierKind | str = FrontierKind.VERTEX,
                    machine: Optional[Machine] = None) -> "Frontier":
        """Compact a dense boolean map into an id queue (costed scan)."""
        items = np.flatnonzero(bitmap).astype(np.int64)
        if machine is not None:
            machine.map_kernel("bitmap_to_queue", len(bitmap),
                               calib.C_COMPACT_PER_ELEM)
        return cls(items, kind)

    # -- core protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.items)

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def is_empty(self) -> bool:
        return len(self.items) == 0

    def __repr__(self) -> str:
        return f"Frontier({self.kind.value}, size={len(self.items)})"

    # -- layout conversions ----------------------------------------------------

    def to_bitmap(self, size: int,
                  machine: Optional[Machine] = None) -> np.ndarray:
        """Scatter the queue into a new zeroed boolean map of the given
        size.

        This is the conversion Gunrock performs internally before a
        pull-based advance (Section 4.1.1).  Ids outside ``[0, size)``
        raise ``ValueError`` (a negative id would otherwise wrap to the
        end of the map).
        """
        items = self.items
        if len(items) and (items.min() < 0 or items.max() >= size):
            raise ValueError("frontier id exceeds bitmap size")
        bitmap = np.zeros(size, dtype=bool)
        bitmap[items] = True
        if machine is not None:
            machine.map_kernel("queue_to_bitmap", len(self.items), 1.0)
        return bitmap

    def deduplicated(self, machine: Optional[Machine] = None) -> "Frontier":
        """Exact (sort-based) duplicate removal — the expensive path that
        the idempotence heuristics exist to avoid."""
        return Frontier(unique_by_sort(self.items, machine), self.kind)

    def copy(self) -> "Frontier":
        return Frontier(self.items.copy(), self.kind)
