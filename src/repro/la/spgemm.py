"""Masked SpGEMM triangle counting — the first LA-native workload.

The GraphBLAS formulation (Azad et al., GraphBLAST): with ``A`` the
boolean adjacency matrix of the simple undirected graph and ``L`` its
strict lower triangle, the masked product ``C = (L @ L) .* L`` holds,
per stored edge, the number of triangles it closes; ``sum(C)`` is the
triangle total.  Per-vertex incidence comes from the symmetric form:
``((A @ A) .* A).sum(axis=1) / 2`` counts, for each vertex, the wedges
through it that close.

The operator engine (:mod:`repro.primitives.triangles`) intersects
forward-neighbor lists over a degree-ranked DAG; on simple undirected
inputs (deduplicated, self-loop-free, both directions stored) the two
agree exactly, which is what the differential tests pin.  Inputs are
binarized and symmetrized here, so parallel edges and self-loops are
ignored — the operator path counts parallel-edge combinations, so
multigraph inputs are outside the parity contract.

Requires scipy; without it the dispatcher records a fallback and the
operator path runs instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs.spans import CAT_LA, span as obs_span
from ..simt import calib

try:
    import scipy.sparse as _sp
except ImportError:                      # pragma: no cover - env-dependent
    _sp = None


def _bool_adjacency(graph):
    """Symmetrized, deduplicated, self-loop-free boolean adjacency."""
    src = graph.edge_sources.astype(np.int64)
    dst = graph.indices.astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    n = graph.n
    a = _sp.coo_matrix(
        (np.ones(2 * len(src), dtype=np.int64),
         (np.concatenate([src, dst]), np.concatenate([dst, src]))),
        shape=(n, n)).tocsr()
    a.data[:] = 1
    return a


def try_triangles_la(graph, *, machine=None):
    """The LA lowering of :func:`triangle_count`, or None to fall back.

    Returns a :class:`TriangleResult` shaped exactly like the operator
    path's (``arrays={"total", "per_vertex"}``); None means "run the
    operator engine" with the reason on the fallback log.
    """
    from ..core.engine import count_dispatch
    from ..primitives.triangles import TriangleResult

    if _sp is None:
        count_dispatch("la", "triangles",
                       "scipy unavailable: the masked SpGEMM lowering "
                       "needs scipy.sparse")
        return None
    count_dispatch("la", "triangles")
    sp = obs_span("la:triangles", CAT_LA, machine,
                  primitive="triangles", semiring="plus_times")
    with sp:
        a = _bool_adjacency(graph)
        lower = _sp.tril(a, k=-1, format="csr")
        closed = (lower @ lower).multiply(lower)
        total = int(closed.sum())
        wedges = (a @ a).multiply(a)
        per_vertex = np.asarray(
            wedges.sum(axis=1), dtype=np.int64).ravel() // 2
        work = int(closed.nnz + wedges.nnz)
        sp.set(triangles=total)
    result = TriangleResult(
        arrays={"total": total, "per_vertex": per_vertex})
    if machine is not None:
        machine.map_kernel("la_binarize", graph.m,
                           calib.C_COMPACT_PER_ELEM)
        machine.map_kernel("la_spgemm[plus_times]", work, calib.C_EDGE)
        machine.counters.record_edges(work)
        result.elapsed_ms = machine.elapsed_ms()
        result.machine = machine
    return result
