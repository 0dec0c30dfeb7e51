"""Graph partitioning for multi-GPU execution (Section 7, "Scalability").

"for greater impact, a future Gunrock must scale ... to multiple GPUs on
a single node" — the standard substrate is a 1D partition: each GPU owns
a contiguous (or hashed) vertex range and expands its vertices' rows of
the one shared CSR; edges whose destination lives elsewhere are *remote*
and their traversal requires an exchange.  A partition is ownership only.
The partitioner reports exactly the quantities the cost model needs:
per-device vertex/edge counts and the remote-edge fraction (the
communication volume driver).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..graph.csr import Csr

#: re-shard bytes per vertex of a lost partition: ids + labels + frontier
#: membership state that the new owners must take over
RESHARD_BYTES_PER_VERTEX = 24.0
#: re-shard bytes per owned edge (the CSR column indices of owned rows)
RESHARD_BYTES_PER_EDGE = 8.0


@dataclass(frozen=True)
class Partition:
    """The vertices one device owns."""

    device: int
    #: global ids of owned vertices (sorted)
    vertices: np.ndarray
    #: out-edges of the owned vertices
    m_local: int

    @property
    def n_local(self) -> int:
        return len(self.vertices)


@dataclass
class PartitionedGraph:
    """A 1D partition of a graph over ``k`` devices."""

    graph: Csr
    parts: List[Partition]
    #: owner device of every global vertex id
    owner: np.ndarray

    @property
    def k(self) -> int:
        return len(self.parts)

    def remote_edge_fraction(self) -> float:
        """Fraction of edges whose endpoint pair spans devices."""
        if self.graph.m == 0:
            return 0.0
        src_owner = self.owner[self.graph.edge_sources]
        dst_owner = self.owner[self.graph.indices]
        return float((src_owner != dst_owner).mean())

    def edge_balance(self) -> float:
        """max/mean of per-device edge counts (1.0 = perfect)."""
        counts = np.array([p.m_local for p in self.parts], dtype=np.float64)
        if counts.mean() == 0:
            return 1.0
        return float(counts.max() / counts.mean())


def repair_bytes(pg: PartitionedGraph, sid: int) -> float:
    """Interconnect volume to re-ship partition ``sid`` to new owners —
    what a multi-GPU device loss and a shard-group repair both charge."""
    part = pg.parts[sid]
    return (part.n_local * RESHARD_BYTES_PER_VERTEX
            + part.m_local * RESHARD_BYTES_PER_EDGE)


def partition_1d(graph: Csr, k: int, method: str = "contiguous") -> PartitionedGraph:
    """Split vertices over ``k`` devices.

    ``contiguous`` assigns equal-size id ranges (good locality on
    id-clustered graphs like road networks); ``hash`` scatters ids
    round-robin (better edge balance on skewed graphs, more remote
    edges) — the same trade the multi-GPU BFS literature discusses.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.n
    if method == "contiguous":
        bounds = np.linspace(0, n, k + 1).astype(np.int64)
        owner = np.zeros(n, dtype=np.int64)
        for d in range(k):
            owner[bounds[d]:bounds[d + 1]] = d
    elif method == "hash":
        owner = (np.arange(n, dtype=np.int64) % k)
    else:
        raise ValueError(f"unknown partition method {method!r}")
    return PartitionedGraph(graph, _build_parts(graph, owner, k), owner)


def _build_parts(graph: Csr, owner: np.ndarray, k: int) -> List[Partition]:
    """Each device's owned vertices and edge count from an ownership
    vector."""
    parts = []
    for d in range(k):
        verts = np.flatnonzero(owner == d).astype(np.int64)
        parts.append(Partition(d, verts,
                               int(graph.degrees_of(verts).sum())))
    return parts


def redistribute(pg: PartitionedGraph, dead: int,
                 survivors: List[int]) -> PartitionedGraph:
    """Reassign a dead device's vertices round-robin over the survivors.

    Graceful-degradation recovery for ``device-loss`` faults: the
    returned partitioning keeps ``k`` slots (the dead device's partition
    is empty) so device indices stay stable, while every vertex the dead
    device owned gets a new live owner.  Round-robin keeps the added
    load spread evenly regardless of how id-clustered the dead range
    was.  The caller charges the re-shard traffic via
    :meth:`repro.multi.machine.MultiMachine.reshard`.
    """
    if not survivors:
        raise ValueError("cannot redistribute with no surviving devices")
    if dead in survivors:
        raise ValueError(f"device {dead} cannot survive its own loss")
    owner = pg.owner.copy()
    orphans = pg.parts[dead].vertices
    owner[orphans] = np.asarray(survivors, dtype=np.int64)[
        np.arange(len(orphans)) % len(survivors)]
    return PartitionedGraph(pg.graph, _build_parts(pg.graph, owner, pg.k),
                            owner)
