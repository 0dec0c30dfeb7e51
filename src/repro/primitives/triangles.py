"""Triangle counting via neighbor-list intersection.

Gunrock's later releases ship a segmented-intersection operator for
exactly this; we express it with the same machinery: an advance over the
degree-ordered DAG's edges, each edge intersecting its endpoints' sorted
forward-neighbor lists (merge-path intersection, charged per comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.coo import Coo
from ..graph.csr import Csr, row_lanes
from ..simt.machine import Machine
from ..simt import calib
from .result import PrimitiveResult


def _forward_dag(graph: Csr) -> Csr:
    """Orient each undirected edge from lower to higher (degree, id) rank
    — the standard preprocessing that makes every triangle counted once
    and caps forward degrees at O(sqrt(m))."""
    src = graph.edge_sources.astype(np.int64)
    dst = graph.indices.astype(np.int64)
    deg = graph.out_degrees
    rank = np.argsort(np.argsort(deg * np.int64(graph.n + 1)
                                 + np.arange(graph.n), kind="stable"))
    keep = rank[src] < rank[dst]
    return Coo(src[keep], dst[keep], graph.n).to_csr()


@dataclass
class TriangleResult(PrimitiveResult):
    @property
    def total(self) -> int:
        return int(self.arrays["total"])

    @property
    def per_vertex(self) -> np.ndarray:
        return self.arrays["per_vertex"]


def triangle_count(graph: Csr, *, machine: Optional[Machine] = None
                   ) -> TriangleResult:
    """Count triangles of an undirected graph (stored with both edge
    directions).  Returns the global count and a per-vertex incidence
    count (each triangle credits all three corners).

    Under ``--engine la`` the count lowers to a masked SpGEMM
    (:mod:`repro.la.spgemm`); without scipy that path records a
    fallback and the intersection engine below runs instead."""
    from ..core.engine import engine_mode
    if engine_mode() == "la":
        from ..la.spgemm import try_triangles_la
        la_result = try_triangles_la(graph, machine=machine)
        if la_result is not None:
            return la_result
    dag = _forward_dag(graph)
    per_vertex = np.zeros(graph.n, dtype=np.int64)
    total = 0
    comparisons = 0

    src = dag.edge_sources.astype(np.int64)
    dst = dag.indices.astype(np.int64)
    # adjacency membership via a (row, col) hash set built once
    key = src * np.int64(graph.n) + dst
    key_sorted = np.sort(key)

    # for each DAG edge (u, v): count w in fwd(u) with (v, w) in DAG —
    # vectorized as membership queries of (v, w) pairs
    degs = dag.degrees_of(src)
    total_pairs = int(degs.sum())
    if total_pairs:
        w = dag.indices[row_lanes(dag.indptr, src, degs, total_pairs)[1]]
        v = np.repeat(dst, degs)
        u = np.repeat(src, degs)
        probe = v * np.int64(graph.n) + w
        pos = np.searchsorted(key_sorted, probe)
        pos = np.minimum(pos, len(key_sorted) - 1)
        hit = key_sorted[pos] == probe
        comparisons = total_pairs
        total = int(hit.sum())
        np.add.at(per_vertex, u[hit], 1)
        np.add.at(per_vertex, v[hit], 1)
        np.add.at(per_vertex, w[hit], 1)

    result = TriangleResult(arrays={"total": total, "per_vertex": per_vertex})
    if machine is not None:
        machine.map_kernel("dag_build", graph.m, 2.0)
        machine.launch("intersect",
                       body_cycles=comparisons
                       * (calib.C_EDGE + calib.C_SORTED_SEARCH) / 4.0,
                       items=comparisons)
        machine.counters.record_edges(comparisons)
        result.elapsed_ms = machine.elapsed_ms()
        result.machine = machine
    return result
