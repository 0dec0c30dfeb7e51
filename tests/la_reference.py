"""Sort-based reference semiring products: the oracle for ``repro.la``.

These are the ``spmspv`` / ``spmv`` bodies ``repro/la/semiring.py`` shipped
before its reductions went sort-free: expand every lane, stable-``argsort``
by destination, ``np.unique`` for the segment starts, ``ufunc.reduceat``.
They are slow and obviously right, and ``tests/test_la_backend.py`` holds
the production kernels to them bitwise — ids, values, witnesses and dtypes.

:func:`jacobi_cc_reference` is the ``cc`` runner ``repro/la/backend.py``
shipped before hook and shortcut: a symmetric Jacobi min-propagation, one
round per hop of diameter.  It takes a runner's ``(enactor, frontier)``,
so a test puts it in ``RUNNERS["cc"]`` and runs ``cc`` under ``la``.
"""

import numpy as np

from repro.core.frontier import Frontier, FrontierKind
from repro.core.superstep import EMPTY, run_supersteps
from repro.graph.csr import iota
from repro.la.backend import _charge_commit, _charge_product
from repro.la.semiring import MIN_SELECT, spmspv

INT64_MAX = np.iinfo(np.int64).max
_EMPTY_IDS = np.zeros(0, dtype=np.int64)


def _expand(graph, x_ids):
    degs = graph.degrees_of(x_ids)
    ne = int(degs.sum())
    if ne == 0:
        return _EMPTY_IDS, _EMPTY_IDS, _EMPTY_IDS, degs, 0
    offsets = np.concatenate(([0], np.cumsum(degs)))[:-1]
    starts = graph.indptr[x_ids].astype(np.int64)
    eids = np.repeat(starts - offsets, degs) + np.arange(ne, dtype=np.int64)
    dst = graph.indices[eids].astype(np.int64)
    src = np.repeat(x_ids, degs)
    return eids, dst, src, degs, ne


def _empty(semiring, witness):
    vals = np.zeros(0, dtype=semiring.dtype)
    if witness:
        return _EMPTY_IDS, vals, _EMPTY_IDS
    return _EMPTY_IDS, vals


def spmspv_reference(graph, x_ids, x_vals, semiring, *, edge_values=None,
                     mask=None, mask_complement=False, witness=False):
    x_ids = np.asarray(x_ids, dtype=np.int64)
    eids, dst, src, degs, ne = _expand(graph, x_ids)
    if ne == 0:
        return _empty(semiring, witness)
    xl = np.repeat(np.asarray(x_vals, dtype=semiring.dtype), degs)
    ev = None if edge_values is None else np.asarray(edge_values)[eids]
    vals = semiring.mul(xl, ev)
    if mask is not None:
        keep = ~mask[dst] if mask_complement else mask[dst]
        dst, src, vals = dst[keep], src[keep], vals[keep]
        if len(dst) == 0:
            return _empty(semiring, witness)
    if semiring.add is np.add:
        ids = np.unique(dst)
        dense = np.bincount(dst, weights=vals, minlength=graph.n)
        return ids, dense[ids].astype(semiring.dtype)
    order = np.argsort(dst, kind="stable")
    sd, sv, ss = dst[order], vals[order], src[order]
    ids, starts = np.unique(sd, return_index=True)
    out = semiring.add.reduceat(sv, starts)
    if not witness:
        return ids, out
    counts = np.diff(np.append(starts, len(sd)))
    achieved = sv == np.repeat(out, counts)
    wit = np.minimum.reduceat(np.where(achieved, ss, INT64_MAX), starts)
    return ids, out, wit


def spmv_reference(graph, x, semiring, *, mask=None, mask_complement=False,
                   witness=False):
    csc = graph.csc
    n = graph.n
    y = np.full(n, semiring.identity, dtype=semiring.dtype)
    if mask is None:
        rows = np.arange(n, dtype=np.int64)
    else:
        rows = np.flatnonzero(~mask if mask_complement else mask)
    wit = np.full(n, -1, dtype=np.int64) if witness else None
    if len(rows) == 0:
        return (y, wit) if witness else y
    degs = csc.degrees_of(rows)
    ne = int(degs.sum())
    if ne == 0:
        return (y, wit) if witness else y
    offsets = np.concatenate(([0], np.cumsum(degs)))[:-1]
    starts = csc.indptr[rows].astype(np.int64)
    eids = np.repeat(starts - offsets, degs) + np.arange(ne, dtype=np.int64)
    srcs = csc.indices[eids].astype(np.int64)
    rowlanes = np.repeat(rows, degs)
    lane_vals = np.asarray(x, dtype=semiring.dtype)[srcs]
    ids, seg_starts = np.unique(rowlanes, return_index=True)
    y[ids] = semiring.add.reduceat(lane_vals, seg_starts)
    if not witness:
        return y
    counts = np.diff(np.append(seg_starts, ne))
    achieved = lane_vals == np.repeat(y[ids], counts)
    wit[ids] = np.minimum.reduceat(
        np.where(achieved, srcs, INT64_MAX), seg_starts)
    return y, wit


def jacobi_cc_reference(en, frontier):
    P = en.problem
    g = P.graph
    machine = P.machine
    cid = P.component_ids
    all_ids = iota(g.n)
    rev = g.csc

    def step(ids, it):
        # symmetric Jacobi sweep: min over out- and in-neighbors
        ids_out, min_out = spmspv(g, ids, cid, MIN_SELECT)
        ids_in, min_in = spmspv(rev, ids, cid, MIN_SELECT)
        new = cid.copy()
        new[ids_out] = np.minimum(new[ids_out], min_out)
        new[ids_in] = np.minimum(new[ids_in], min_in)
        changed = int(np.count_nonzero(new != cid))
        np.copyto(cid, new)
        _charge_product(machine, "la_spmspv[min_select]", 2 * g.m, it)
        _charge_commit(machine, g.n, changed, it)
        return ids if changed else EMPTY

    # every round sweeps the whole matrix until one changes nothing
    run_supersteps(en, all_ids if g.m else EMPTY, step)
    return Frontier(EMPTY, FrontierKind.EDGE)
