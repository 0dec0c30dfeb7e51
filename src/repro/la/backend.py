"""The linear-algebra executor backend: primitives as masked SpMV/SpMSpV.

``try_la`` is the engine hook :meth:`EnactorBase._try_backend` calls
when ``--engine la`` is selected.  Each supported primitive has a
runner, exactly like :mod:`repro.core.fused`, that executes the whole
primitive as a loop of semiring products over the frozen CSR/CSC
artifacts; configurations whose schedule the LA lowering cannot
reproduce have a precheck that returns the fallback reason (they take
the pooled library loop, the reason recorded on the engine fallback
log).

Equivalence contract (DESIGN §16) against the operator engines:

* **bfs** — ``labels`` bitwise (per-level discovered sets are
  schedule-independent); ``preds`` valid shortest-path parents (the LA
  witness is the minimum-id frontier parent, a relaxed array).
* **sssp** — ``labels`` bitwise (min-plus fixpoint over non-negative
  weights is schedule-independent; IEEE addition is monotone);
  ``preds`` satisfy ``labels[pred[v]] + w == labels[v]`` exactly.
* **cc** — ``component_ids`` bitwise (both engines converge to the
  component-minimum vertex id).  The runner is hook and shortcut: a
  min-select product over each edge direction, a hook of every parent
  to its child's neighbourhood minimum, then pointer jumping to stars,
  so it takes O(log n) rounds rather than one per hop of diameter.
* **pagerank / ppr** — ``rank`` within documented tolerance (the LA
  loop replays the pooled residual schedule, so in practice the arrays
  match bitwise; the contract only promises ``allclose``).

Direction optimization falls out as the sparse/dense crossover: the
BFS runner feeds the existing :class:`DirectionOptimizer` signals and
lowers push steps to SpMSpV, pull steps to masked SpMV; PageRank/PPR
switch to :func:`repro.graph.csr.transpose_product` once the frontier's
edge volume reaches ``n`` and the product accepts the frontier.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..core import atomics
from ..core.engine import Backend, dispatch
from ..core.frontier import Frontier, FrontierKind
from ..core.superstep import (EMPTY, bfs_direction, frontier_degrees,
                              rank_commit, rank_contribution, run_supersteps)
from ..graph.csr import iota, transpose_product
from ..obs.spans import CAT_LA
from ..simt import calib
from .semiring import (BOOL_OR_AND, MIN_PLUS, MIN_SELECT, PLUS_TIMES,
                       Scratch, Semiring, spmspv, spmv)

#: primitive -> the semiring its lowering reduces over (DESIGN §16 table)
SEMIRING_OF: Dict[str, Semiring] = {
    "bfs": BOOL_OR_AND,
    "sssp": MIN_PLUS,
    "pagerank": PLUS_TIMES,
    "ppr": PLUS_TIMES,
    "cc": MIN_SELECT,
    "triangles": PLUS_TIMES,
}


def _charge_product(machine, kernel: str, ne: int, it: int) -> None:
    """One semiring product: edge-proportional work, comparable (not
    signature-identical) to the operator engines' advance charging."""
    if machine is None:
        return
    machine.map_kernel(kernel, ne, calib.C_EDGE, iteration=it)
    machine.counters.record_edges(ne)


def _charge_commit(machine, n_items: int, frontier_out: int,
                   it: int) -> None:
    """Masked assignment + next-frontier compaction."""
    if machine is None:
        return
    machine.map_kernel("la_mask_commit", n_items,
                       calib.C_COMPACT_PER_ELEM, iteration=it)
    machine.counters.record_frontier(frontier_out)


# --------------------------------------------------------------------- BFS

def _run_bfs(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    labels = P.labels
    preds = P.preds if P.record_preds else None
    in_frontier = np.zeros(g.n, dtype=bool)
    scratch = Scratch()

    def step(f, it):
        mode, _, _ = bfs_direction(en.direction, P, f)
        visited = labels >= 0
        if mode == "push":
            out = spmspv(g, f, np.ones(len(f), dtype=bool), BOOL_OR_AND,
                         mask=visited, mask_complement=True,
                         witness=preds is not None, scratch=scratch)
            ids = out[0]
            wit = out[2] if preds is not None else None
            _charge_product(machine, "la_spmspv[bool_or_and]",
                            scratch.lanes, it)
        else:
            rows = np.flatnonzero(~visited)
            ne = int(g.csc.degrees_of(rows).sum())
            in_frontier[f] = True
            y = spmv(g, in_frontier, BOOL_OR_AND, mask=visited,
                     mask_complement=True, witness=preds is not None)
            if preds is not None:
                y, wit_dense = y
            in_frontier[f] = False
            ids = np.flatnonzero(y)
            wit = wit_dense[ids] if preds is not None else None
            _charge_product(machine, "la_spmv[bool_or_and]", ne, it)
        labels[ids] = it + 1
        if preds is not None and len(ids):
            preds[ids] = wit
        _charge_commit(machine, len(ids), len(ids), it)
        return ids

    return Frontier(run_supersteps(en, frontier.items, step))


# -------------------------------------------------------------------- SSSP

def _precheck_sssp(en) -> Optional[str]:
    if en.max_iterations is not None:
        return ("iteration-capped sssp is schedule-dependent; the "
                "synchronous min-plus relaxation only matches at the "
                "fixpoint")
    return None


def _run_sssp(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    labels = P.labels
    preds = P.preds
    weights = P.weights
    scratch = Scratch()

    def step(f, it):
        ids, vals, wit = spmspv(g, f, labels[f], MIN_PLUS,
                                edge_values=weights, witness=True,
                                scratch=scratch)
        _charge_product(machine, "la_spmspv[min_plus]", scratch.lanes, it)
        if len(ids):
            improved = vals < labels[ids]
            ids, vals, wit = ids[improved], vals[improved], wit[improved]
            labels[ids] = vals
            preds[ids] = wit
        _charge_commit(machine, len(ids), len(ids), it)
        return ids

    return Frontier(run_supersteps(en, frontier.items, step))


# ---------------------------------------------------------------------- CC

def _precheck_cc(en) -> Optional[str]:
    if en.alternate:
        return ("alternating hook schedule has no semiring lowering; "
                "min-propagation commits to one reduction")
    if en.max_iterations is not None:
        return ("iteration-capped cc is schedule-dependent; hook and "
                "shortcut only matches at the fixpoint")
    return None


def _run_cc(en, frontier: Frontier) -> Frontier:
    """Hook and shortcut (GraphBLAST's CC shape): each round takes the
    neighbourhood minimum over both edge directions, hooks every
    vertex's parent to it, then pointer-jumps to stars.  ``cid[v] <= v``
    holds throughout, so the jumping terminates, and at the fixpoint
    every label is its component's minimum id."""
    P = en.problem
    g = P.graph
    machine = P.machine
    cid = P.component_ids
    all_ids = iota(g.n)
    rev = g.csc

    def step(ids, it):
        ids_out, min_out = spmspv(g, ids, cid, MIN_SELECT)
        ids_in, min_in = spmspv(rev, ids, cid, MIN_SELECT)
        mn = cid.copy()
        mn[ids_out] = np.minimum(mn[ids_out], min_out)
        mn[ids_in] = np.minimum(mn[ids_in], min_in)
        changed = int(np.count_nonzero(mn != cid))
        _charge_product(machine, "la_spmspv[min_select]", 2 * g.m, it)
        if not changed:
            _charge_commit(machine, g.n, 0, it)
            return EMPTY
        # hook: each vertex's parent (a root: cid is a star forest) takes
        # the vertex's neighbourhood minimum
        parents = cid.copy()
        np.minimum.at(cid, parents, mn)
        np.minimum(cid, mn, out=cid)
        if machine is not None:
            atomics.price(machine, "atomic_min", atomics.cell_stats(parents))
        _charge_commit(machine, g.n, changed, it)
        # shortcut: jump to stars, one gather pass per launch
        while True:
            if machine is not None:
                machine.map_kernel("la_shortcut", g.n, calib.C_VERTEX,
                                   iteration=it)
            grand = cid[cid]
            if np.array_equal(grand, cid):
                return ids
            cid[:] = grand

    # a round that changes nothing ends the run
    run_supersteps(en, all_ids if g.m else EMPTY, step)
    return Frontier(EMPTY, FrontierKind.EDGE)


# -------------------------------------------------------- PageRank and PPR

def _run_pagerank(en, frontier: Frontier) -> Frontier:
    """Shared PageRank/PPR loop: same residual schedule as the operator
    engines, lowered to plus-times SpMSpV (sparse frontier) or the
    shared 0/1 transpose product (dense frontier it accepts)."""
    P = en.problem
    g = P.graph
    machine = P.machine
    n = g.n
    scratch = Scratch()

    def step(f, it):
        contrib, full = rank_contribution(P, f)
        ne = g.m if full else frontier_degrees(g, f)[1]
        res = np.zeros(n)
        if ne >= n and transpose_product(g, res, f, contrib):
            # dense regime: pull the whole residual vector through the
            # transpose (stored-order accumulation == lane order)
            kernel = "la_spmv[plus_times]"
        else:
            if ne:
                ids, vals = spmspv(g, iota(n) if full else f,
                                   contrib, PLUS_TIMES, scratch=scratch)
                res[ids] = vals
            kernel = "la_spmspv[plus_times]"
        _charge_product(machine, kernel, ne, it)
        f, nk = rank_commit(P, res)
        _charge_commit(machine, n, nk, it)
        return f

    return Frontier(run_supersteps(en, frontier.items, step))


# ------------------------------------------------------------- dispatcher

#: primitive name -> runner
RUNNERS: Dict[str, Callable] = {
    "bfs": _run_bfs,
    "sssp": _run_sssp,
    "pagerank": _run_pagerank,
    "ppr": _run_pagerank,
    "cc": _run_cc,
}

#: configurations whose schedule the semiring lowering cannot reproduce
PRECHECKS: Dict[str, Callable] = {"sssp": _precheck_sssp, "cc": _precheck_cc}


def _prepare(enactor, name: str):
    precheck = PRECHECKS.get(name)
    return (precheck(enactor) if precheck is not None else None,
            {"semiring": SEMIRING_OF[name].name})


LA = Backend(name="la", runners=RUNNERS, span_category=CAT_LA,
             prepare=_prepare,
             no_runner="no linear-algebra lowering for primitive '{name}'")


def try_la(enactor, frontier: Frontier) -> Optional[Frontier]:
    """Run ``enactor``'s loop through the linear-algebra backend, or None
    to take the library path (:func:`repro.core.engine.dispatch` records
    why)."""
    return dispatch(LA, enactor, frontier)
