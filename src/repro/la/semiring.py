"""Semirings and masked sparse matrix-vector products (DESIGN §16).

The GraphBLAS view of a frontier operation: the graph is a sparse
boolean (or weighted) matrix ``A``, the frontier is a vector ``x``, and
one advance step is ``y = xᵀ ⊗.⊕ A`` under a primitive-specific
semiring — min-plus for SSSP relaxation, boolean or-and for BFS
reachability, plus-times for PageRank/PPR mass propagation, min-select
for connected-components label diffusion.  A *mask* restricts which
output slots may receive values; BFS's visited set enters as a
structural complement mask (``mask_complement=True``).

Two product shapes, matching Gunrock's push/pull duality:

* :func:`spmspv` — sparse input vector, push along out-edges of the
  vector's support (``advance`` over a sparse frontier).
* :func:`spmv` — dense input vector, pull along in-edges (CSC) of the
  masked output rows (``advance_pull`` over a dense frontier).

Both return deterministic results: output ids ascending, reductions
independent of how the lanes were grouped.  No product sorts lanes it
does not have to (DESIGN §16 "Kernels"): a whole-matrix product reads
the CSC's cached row segments, a sparse one scatters into lent dense
accumulators, and only few lanes on a huge graph are sorted.  The
plus-times monoid accumulates in *lane order* (``np.bincount``) in every
regime — ``np.add.reduceat`` sums pairwise, which is not bitwise-
identical to the operator engines' segmented-sum lowering; min/or
monoids are exact in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..graph.csr import row_lanes
from ..obs.spans import CAT_LA, annotate, current_observer
from ..simt.primitives import first_of_run, unique_by_sort

INT64_MAX = np.iinfo(np.int64).max

_EMPTY_IDS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class Semiring:
    """An (⊕, ⊗) pair over a value domain.

    ``add`` is the reduction monoid (a numpy ufunc), ``identity`` its
    unit, and ``mul`` combines a lane's vector value with its edge value
    (``None`` edge values mean the structural matrix: every stored edge
    is an implicit ⊗-unit).
    """

    name: str
    add: np.ufunc
    identity: object
    dtype: object
    mul: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]


def _plus(x: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
    return x if w is None else x + w


def _times(x: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
    return x if w is None else x * w


def _and(x: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
    return x if w is None else np.logical_and(x, w != 0)


def _select_first(x: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
    return x


#: SSSP relaxation: candidate distance = dist[u] + w(u, v), keep the min.
MIN_PLUS = Semiring("min_plus", np.minimum, np.inf, np.float64, _plus)
#: BFS reachability: reached = OR over frontier in-neighbors.
BOOL_OR_AND = Semiring("bool_or_and", np.logical_or, False, np.bool_, _and)
#: PageRank/PPR mass propagation: residual inflow = Σ contributions.
PLUS_TIMES = Semiring("plus_times", np.add, 0.0, np.float64, _times)
#: CC label diffusion: take the smallest neighbor component id.
MIN_SELECT = Semiring("min_select", np.minimum, INT64_MAX, np.int64,
                      _select_first)

SEMIRINGS = {s.name: s for s in (MIN_PLUS, BOOL_OR_AND, PLUS_TIMES,
                                 MIN_SELECT)}


#: The scatter reduction ends in an O(n) compaction scan of the touched
#: bitmap, so a product with few lanes on a huge graph keeps the sort
#: path: scatter runs while ``n <= _SCATTER_VERTICES_PER_LANE * lanes``.
#: Measured with lent accumulators (min-plus + witness, random
#: destinations): scatter wins up to n/lanes ~ 170 at n = 90 000 and
#: ~ 120-460 at n = 10**6; almost-sorted lanes (road grids) sort cheaply,
#: and there the two are within 25 % of each other from n/lanes ~ 20 up.
_SCATTER_VERTICES_PER_LANE = 128


class Scratch:
    """Dense accumulators a runner lends its products for one run.

    Each buffer is allocated filled on first use and held for the run.
    Between products it holds its fill value in every slot: the product
    resets exactly the slots it wrote, so only the first product of a
    run pays an ``np.full(n, ...)``.  A product called without a
    ``Scratch`` makes a throwaway one.  ``lanes`` reports the edge lanes
    the last product expanded — what the runners charge the cost model.
    """

    __slots__ = ("_held", "lanes")

    def __init__(self):
        self._held = {}
        self.lanes = 0

    def dense(self, role: str, n: int, dtype, fill) -> np.ndarray:
        buf = self._held.get(role)
        if buf is None:
            buf = np.full(n, fill, dtype=dtype)
            self._held[role] = buf
        return buf


def _note(shape: str, semiring: Semiring, reduce: str) -> None:
    """Count the reduction regime a product took (observer installed)."""
    ob = current_observer()
    if ob is not None:
        ob.metrics.counter("repro_la_products_total", shape=shape,
                           semiring=semiring.name, reduce=reduce).inc()
        annotate(CAT_LA, reduce=reduce)


def _expand(graph, x_ids: np.ndarray):
    """Edge lanes of the rows in ``x_ids``: (eids, dst, degs, ne)."""
    degs = graph.degrees_of(x_ids)
    ne = int(degs.sum())
    _, eids = row_lanes(graph.indptr, x_ids, degs, ne)
    return eids, graph.indices[eids], degs, ne


def _empty(semiring: Semiring, witness: bool):
    vals = np.zeros(0, dtype=semiring.dtype)
    if witness:
        return _EMPTY_IDS, vals, _EMPTY_IDS
    return _EMPTY_IDS, vals


def spmspv(graph, x_ids, x_vals, semiring: Semiring, *,
           edge_values: Optional[np.ndarray] = None,
           mask: Optional[np.ndarray] = None,
           mask_complement: bool = False,
           witness: bool = False,
           scratch: Optional[Scratch] = None) -> Tuple[np.ndarray, ...]:
    """Masked sparse-vector × sparse-matrix product (push).

    ``x_ids`` (ascending vertex ids) and ``x_vals`` form the sparse
    input vector; the product pushes each value along the out-edges of
    its vertex and ⊕-reduces per destination.  ``mask`` is a dense
    boolean vertex array selecting admissible destinations
    (``mask_complement=True`` selects where the mask is False — the
    structural-complement form used for visited sets).  ``scratch`` is
    lent by the backend's runners; it never changes the result.

    Returns ``(ids, vals)`` with ids strictly ascending — or, with
    ``witness=True``, ``(ids, vals, wit)`` where ``wit[i]`` is the
    smallest source id among lanes achieving ``vals[i]`` (the
    deterministic parent/predecessor witness).

    The per-destination reduction takes one of three regimes, chosen
    from the support, ``n`` and the lane count alone (DESIGN §16):
    ``segments`` (whole-matrix product read off the CSC), ``scatter``
    (dense accumulator + touched bitmap) or ``sort`` (few lanes, huge
    ``n``).
    """
    plus = semiring.add is np.add
    if witness and plus:
        raise ValueError("witness is not defined for plus-times")
    n = graph.n
    x_vals = np.asarray(x_vals, dtype=semiring.dtype)
    if scratch is None:
        scratch = Scratch()
    iota = graph.artifacts.iota_n
    if (mask is None and not witness and edge_values is None and not plus
            and (x_ids is iota or (len(x_ids) == n
                                   and np.array_equal(x_ids, iota)))):
        # y = xᵀA over every row: the CSC *is* the lanes grouped by
        # destination, and its segment starts are cached per graph
        csc = graph.csc
        ids, starts = csc.artifacts.segments
        scratch.lanes = csc.m
        _note("spmspv", semiring, "segments")
        return ids, semiring.add.reduceat(x_vals[csc.indices], starts)
    x_ids = np.asarray(x_ids, dtype=np.int64)
    eids, dst, degs, ne = _expand(graph, x_ids)
    scratch.lanes = ne
    if ne == 0:
        return _empty(semiring, witness)
    ev = None if edge_values is None else np.asarray(edge_values)[eids]
    vals = semiring.mul(np.repeat(x_vals, degs), ev)
    src = np.repeat(x_ids, degs) if witness else None
    if mask is not None:
        keep = ~mask[dst] if mask_complement else mask[dst]
        dst, vals = dst[keep], vals[keep]
        if len(dst) == 0:
            return _empty(semiring, witness)
        if witness:
            src = src[keep]
    scatter = n <= _SCATTER_VERTICES_PER_LANE * len(dst)
    _note("spmspv", semiring, "scatter" if scatter else "sort")
    if scatter:
        hit = scratch.dense("hit", n, np.bool_, False)
        hit[dst] = True
        ids = np.flatnonzero(hit)
        hit[ids] = False
    elif plus:
        ids = unique_by_sort(dst)
    else:
        return _reduce_sorted(dst, vals, src, semiring)
    if plus:
        # lane-order accumulation: bitwise-identical to the operator
        # engines' segmented sums (reduceat would sum pairwise); ids are
        # the destinations touched, not the non-zero sums
        dense = np.bincount(dst, weights=vals, minlength=n)
        return ids, dense[ids].astype(semiring.dtype, copy=False)
    acc = scratch.dense(semiring.name, n, semiring.dtype, semiring.identity)
    if semiring.add is np.logical_or:
        acc[dst[vals]] = True
    else:
        semiring.add.at(acc, dst, vals)
    out = acc[ids]
    if witness:
        # smallest achieving source per destination: lanes of an
        # ascending support are in ascending source order, so the first
        # achieving lane wins — one reversed scatter (last write sticks)
        achieved = vals == acc[dst]
        d, s = dst[achieved], src[achieved]
        wbuf = scratch.dense("wit", n, np.int64, INT64_MAX)
        if (x_ids[1:] >= x_ids[:-1]).all():
            wbuf[d[::-1]] = s[::-1]
        else:
            np.minimum.at(wbuf, d, s)
        wit = wbuf[ids]
        wbuf[ids] = INT64_MAX
    acc[ids] = semiring.identity
    return (ids, out, wit) if witness else (ids, out)


def _reduce_sorted(dst, vals, src, semiring: Semiring):
    """The few-lanes regime of an order-insensitive monoid: stable sort
    by destination + ``reduceat`` (``src`` is None without a witness)."""
    order = np.argsort(dst, kind="stable")
    sd, sv = dst[order], vals[order]
    starts = np.flatnonzero(first_of_run(sd))
    ids = sd[starts]
    out = semiring.add.reduceat(sv, starts)
    if src is None:
        return ids, out
    counts = np.diff(np.append(starts, len(sd)))
    achieved = sv == np.repeat(out, counts)
    wit = np.minimum.reduceat(
        np.where(achieved, src[order], INT64_MAX), starts)
    return ids, out, wit


def spmv(graph, x: np.ndarray, semiring: Semiring, *,
         mask: Optional[np.ndarray] = None,
         mask_complement: bool = False,
         witness: bool = False):
    """Masked dense-vector product over the structural matrix (pull).

    For each output row ``v`` admitted by the mask, gathers ``x`` over
    ``v``'s in-neighbors (the frozen CSC artifact) and ⊕-reduces; rows
    outside the mask — and rows with no in-edges — hold the ⊕-identity.
    Only the structural (unit-valued) matrix is supported: every pull
    lowering in this backend folds per-edge values into ``x`` first.

    Returns the dense result ``y`` — or, with ``witness=True``,
    ``(y, wit)`` where ``wit[v]`` is the smallest in-neighbor achieving
    ``y[v]`` (``-1`` for identity rows).
    """
    csc = graph.csc
    n = graph.n
    y = np.full(n, semiring.identity, dtype=semiring.dtype)
    wit = np.full(n, -1, dtype=np.int64) if witness else None
    if mask is None:
        # every row: the CSC arrays are the lanes, its cached segments
        # the reduction structure
        ids, starts = csc.artifacts.segments
        srcs = csc.indices
        degs = csc.out_degrees[ids] if witness else None
    else:
        rows = np.flatnonzero(~mask if mask_complement else mask)
        _, srcs, degs, _ = _expand(csc, rows)
        live = degs > 0
        ids, degs = rows[live], degs[live]
        # lanes are grouped by ascending row, so the segment starts are
        # the exclusive prefix sum of the degrees just gathered
        starts = np.cumsum(degs) - degs
    if len(ids) == 0:
        return (y, wit) if witness else y
    _note("spmv", semiring, "segments")
    lane_vals = np.asarray(x, dtype=semiring.dtype)[srcs]
    y[ids] = semiring.add.reduceat(lane_vals, starts)
    if not witness:
        return y
    achieved = lane_vals == np.repeat(y[ids], degs)
    wit[ids] = np.minimum.reduceat(
        np.where(achieved, srcs, INT64_MAX), starts)
    return y, wit
