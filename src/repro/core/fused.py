"""Fused super-step runners: specialized single-pass primitive loops.

The fused engine (DESIGN §15) executes a primitive's *entire* verified
operator DAG as one specialized loop per super-step: advance's expansion,
the functor's cond+apply, and filter's culls/compaction run as a single
vectorized pass with no intermediate :class:`Frontier` materialization
between operators.  Each runner is lowered by hand; the plan
:mod:`repro.analysis.plan` compiles per ``(primitive, graph)`` only says
whether the primitive may run here (``fusable`` / ``blocked``), names its
stages for the engine span, and carries the two per-graph thresholds the
runners branch on (``RegimeTable``).

The contract, pinned by ``tests/test_fused.py`` and the three-path
oracle: for every fusable primitive the fused runner is **bitwise
identical** to the pooled library path — output arrays, kernel-counter
signatures (name/cycles/items/iteration of every simulated launch), and
total cycles.  That holds because every lowering below is an exact
algebraic substitution, not an approximation:

* ``atomic_add`` into a zeroed accumulator ``==`` ``np.bincount`` (and
  ``==`` :func:`repro.graph.csr.transpose_product`, which the library
  advance takes too, on the inputs it accepts): float addition starting
  from +0.0 associates identically when the partial sums are built in
  the same lane order.
* ``atomic_min``/``atomic_max`` fold over *winner lanes only* — losing
  lanes can never be the per-cell extremum, so ``minimum.at`` over the
  improving subset yields the same cells.
* a constant value per cell (BFS/BC depth stores) turns the atomic into
  a plain scatter.
* CC's first hook runs on the identity labelling, so its ``atomic_min``
  over every edge leaves each vertex at the smallest of itself and its
  neighbours: a ``minimum.reduceat`` over the CSR's and the CSC's row
  segments.  ``min`` reduces exactly in any order, so the rows need not
  be sorted.
* filter's warp/bitmask/history culls are the library's own
  (``IdempotenceHeuristics.cull`` on the enactor's heuristics object), so
  the frontier *content and order* — which feed last-write-wins
  predecessor choices — match lane for lane.

When a :class:`~repro.simt.machine.Machine` is attached, the runners
invoke the same charge helpers at the same points as the library
operators, so the simulated kernel stream is identical by construction;
with ``machine=None`` (wall-clock mode) all charging short-circuits and
only the lean array code runs.  The part of a step that stands for a
library operator runs inside a :class:`~repro.core.superstep.Stage`, so
a fused run leaves the library loop's ``enactor_stats.trace`` and its
operator spans too: fused is the default engine, and a default run
must stay as observable as the library loop.

BC's dependency pass runs after ``enact`` returns, so no dispatch
reaches it.  The fused forward instead keeps, for every level it
expands, the lanes it admitted into the next level — exactly the lanes
the backward functor admits, in the same order — and
:func:`run_bc_backward` replays them deepest level first without
re-expanding a frontier.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..graph.csr import (iota, is_iota, row_lanes, transpose_cell_stats,
                         transpose_product)
from ..obs.spans import CAT_FUSED
from ..simt.primitives import (charge_compact, first_occurrence,
                               unique_by_sort)
from . import atomics
from .engine import Backend, dispatch
from .frontier import Frontier, FrontierKind
from .operators.advance import advance as _op_advance
from .superstep import (EMPTY, Stage, bfs_direction, charge_push,
                        frontier_degrees, rank_commit, rank_contribution,
                        run_supersteps)


# ------------------------------------------------------------ shared kernels

def _charge_filter(machine, iteration, n_in, n_out, *, heuristics=False,
                   atomic: Optional[Tuple[str, np.ndarray]] = None):
    """Replicate ``filter_frontier``'s kernel-counter signature."""
    if machine is None:
        return
    with machine.fused("filter", iteration):
        if n_in:
            if heuristics:
                machine.map_kernel("filter_heuristics", n_in, 3.0)
            if atomic is not None:
                atomics._charge(machine, atomic[0], atomic[1])
            charge_compact(machine, n_in)
    machine.counters.record_frontier(n_out)
    machine.counters.record_vertices(n_in)


# ------------------------------------------------------------------- BFS

def _precheck_bfs(en) -> Optional[str]:
    if not getattr(en, "idempotent", True):
        return "non-idempotent BFS: the CAS-claim path is not specialized"
    return None


def _run_bfs(en, frontier: Frontier) -> Frontier:
    from ..primitives.bfs import _IdempotentBfsFunctor

    P = en.problem
    g = P.graph
    machine = P.machine
    lb = en.lb
    coarse = en._fused_plan.regimes.coarse_edges
    indptr, indices = g.indptr, g.indices
    labels, preds = P.labels, (P.preds if P.record_preds else None)
    heur = en.heuristics

    def step(f, it):
        depth = it + 1
        mode, degs, ne = bfs_direction(en.direction, P, f)
        if mode == "push":
            with Stage(en, "advance", it, f) as st:
                if degs is None:
                    degs, ne = frontier_degrees(g, f)
                charge_push(P, lb, degs, ne, it)
                if ne == 0:
                    out_items = EMPTY
                else:
                    excl, eids = row_lanes(indptr, f, degs, ne)
                    dsts = indices[eids]
                    keep = labels[dsts] < 0
                    if keep.all():
                        kd = dsts
                        ks = f.repeat(degs) if preds is not None else None
                    elif ne < coarse:
                        kd = dsts[keep]
                        ks = f.repeat(degs)[keep] if preds is not None \
                            else None
                    else:
                        kidx = keep.nonzero()[0]
                        kd = dsts[kidx]
                        if preds is not None:
                            # map kept lanes to their frontier segment
                            # instead of materializing the dense per-lane
                            # source array
                            seg = excl.searchsorted(kidx, side="right")
                            ks = f[seg - 1]
                    labels[kd] = depth
                    if preds is not None:
                        preds[kd] = ks
                    out_items = kd
                if machine is not None:
                    machine.counters.record_frontier(len(out_items))
                st.done(out_items)
        else:
            # pull steps run the library operator whole: it already is a
            # single fused pass and charges its own kernels and span
            out_items = _op_advance(P, Frontier(f), _IdempotentBfsFunctor(depth),
                                    mode="pull", lb=lb, iteration=it).items
            en._trace("advance_pull", f, out_items)
        k = len(out_items)
        with Stage(en, "filter", it, out_items) as st:
            if k:
                out_items = out_items[heur.cull(out_items, g.n)]
            _charge_filter(machine, it, k, len(out_items), heuristics=True)
            st.done(out_items)
        return out_items

    return Frontier(run_supersteps(en, frontier.items, step))


# ------------------------------------------------------------------- SSSP

def _run_sssp(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    lb = en.lb
    indptr, indices = g.indptr, g.indices
    labels, preds, weights = P.labels, P.preds, P.weights
    pile = en.pile

    def step(f, it):
        with Stage(en, "advance", it, f) as st:
            degs, ne = frontier_degrees(g, f)
            wd = EMPTY
            if ne == 0:
                charge_push(P, lb, degs, 0, it)
            else:
                excl, eids = row_lanes(indptr, f, degs, ne)
                dsts = indices[eids]
                new_label = labels[f].repeat(degs)
                np.add(new_label, weights[eids], out=new_label)
                charge_push(P, lb, degs, ne, it, ("atomic_min", dsts))
                won = new_label < labels[dsts]
                widx = won.nonzero()[0]
                if len(widx):
                    wd = dsts[widx]
                    nw = new_label[widx]
                    # losing lanes can never be the per-cell minimum:
                    # folding the atomic over winner lanes only is exact
                    np.minimum.at(labels, wd, nw)
                    ach = nw == labels[wd]
                    aidx = widx[ach]
                    if len(aidx):
                        w = aidx[first_occurrence(dsts[aidx])]
                        seg = excl.searchsorted(w, side="right")
                        preds[dsts[w]] = f[seg - 1]
            if machine is not None:
                machine.counters.record_frontier(len(wd))
            st.done(wd)
        # the library loop's exact-dedup filter runs every step, empty or
        # not — the "unique" kernel record must exist either way
        out = unique_by_sort(wd, machine)
        en._trace("filter", wd, out)
        if pile is None:
            return out
        pile.push(Frontier(out), it)
        near = pile.pop_near(it).items
        en._trace("priority_queue", out, near)
        return near

    return Frontier(run_supersteps(en, frontier.items, step))


# ------------------------------------------------------- PageRank and PPR

def _run_pagerank(en, frontier: Frontier) -> Frontier:
    """Shared PageRank/PPR loop (the two differ only in the problem's
    initial residual and frontier)."""
    P = en.problem
    g = P.graph
    machine = P.machine
    lb = en.lb
    spmv_min_edges = en._fused_plan.regimes.spmv_min_edges
    n = g.n
    indices = g.indices

    def step(f, it):
        with Stage(en, "advance", it, f) as st:
            contrib, full = rank_contribution(P, f)
            if full:
                degs, ne = g.artifacts.out_degrees, g.m
            else:
                degs, ne = frontier_degrees(g, f)
            res = np.zeros(n)
            summed = ne >= spmv_min_edges and \
                transpose_product(g, res, f, contrib)
            # the destination lanes feed the bincount, and price the
            # atomic when there are any; a product step prices it from
            # its per-cell lane counts instead and never builds them
            lanes = EMPTY
            if ne and not summed:
                lanes = indices if full else \
                    indices[row_lanes(g.indptr, f, degs, ne)[1]]
            cells = transpose_cell_stats(g, f, ne) \
                if summed and machine is not None else lanes
            charge_push(P, lb, degs, ne, it, ("atomic_add", cells))
            if machine is not None:
                machine.counters.record_frontier(0)
            if ne and not summed:
                vals = contrib[g.edge_sources] if full else \
                    contrib.repeat(degs)
                res = np.bincount(lanes, weights=vals, minlength=n)
            st.done(EMPTY)
        with Stage(en, "filter", it, iota(n)) as st:
            f, nk = rank_commit(P, res)
            _charge_filter(machine, it, n, nk)
            st.done(f)
        return f

    return Frontier(run_supersteps(en, frontier.items, step))


# --------------------------------------------------------------------- CC

def _precheck_cc(en) -> Optional[str]:
    if getattr(en, "alternate", False):
        return "alternating hook schedule: odd/even functor flip not specialized"
    return None


def _first_hook(g, cid: np.ndarray) -> None:
    """Round 0's hook in closed form.  ``cid`` is still the identity, so
    every edge hooks its larger endpoint under its smaller one, and each
    vertex lands on the smallest of itself and its neighbours over both
    edge directions: GraphBLAST's min-select product, reduced over the
    cached row segments of the CSR and the CSC.  ``min`` is exact in any
    order, so rows need not be sorted; where :attr:`transpose_ones`
    proves every CSC row ascending, each in-row minimum is its first
    entry."""
    csc = g.csc
    for h, ascending in ((g, False),
                         (csc, g.artifacts.transpose_ones is not None)):
        rows, starts = h.artifacts.segments
        if len(rows):
            lo = h.indices[starts] if ascending \
                else np.minimum.reduceat(h.indices, starts)
            cid[rows] = np.minimum(cid[rows], lo)


def _run_cc(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    cid = P.component_ids
    edge_sources, indices = g.edge_sources, g.indices
    n, m = g.n, g.m

    def hook(f, it):
        # cond (endpoints in different components) + atomic_min; returns
        # the survivors and the atomic's cells (None: no lane)
        full = is_iota(f, m)
        if it == 0 and full:
            # the identity labelling: only self-loops fail the cond
            keep = edge_sources != indices
            surv = f if keep.all() else keep.nonzero()[0]
            _first_hook(g, cid)
            if machine is None or not len(surv):
                return surv, None
            return surv, np.maximum(edge_sources, indices)[surv]
        cs = cid[edge_sources] if full else cid[edge_sources[f]]
        cd = cid[indices] if full else cid[indices[f]]
        mask = cs != cd
        if mask.all():
            surv = f
        else:
            # one index list compacts the survivors and both endpoints
            keep = mask.nonzero()[0]
            surv = keep if full else f[keep]
            cs, cd = cs[keep], cd[keep]
        if not len(surv):
            return surv, None
        hi = np.maximum(cs, cd)
        np.minimum.at(cid, hi, np.minimum(cs, cd))
        return surv, hi

    def step(f, it):
        with Stage(en, "filter(hook)", it, f) as st:
            surv, hi = hook(f, it)
            _charge_filter(machine, it, len(f), len(surv),
                           atomic=None if hi is None else ("atomic_min", hi))
            st.done(surv)
        # pointer jumping to a fixpoint (integer ops: trivially exact)
        vf = iota(n)
        while len(vf):
            with Stage(en, "filter(jump)", it, vf) as st:
                if 2 * len(vf) > n:
                    # most vertices still climb: one pass over the whole
                    # array, with no index gather or scatter.  The others
                    # point at a root, and a root never moves while
                    # jumping, so they stay put and stay out
                    grand = cid[cid]
                    nvf = (grand != cid).nonzero()[0]
                    cid[:] = grand
                else:
                    parent = cid[vf]
                    grand = cid[parent]
                    cid[vf] = grand
                    nvf = vf[grand != parent]
                _charge_filter(machine, it, len(vf), len(nvf))
                st.done(nvf)
            vf = nvf
        return surv

    return Frontier(run_supersteps(en, frontier.items, step),
                    FrontierKind.EDGE)


# --------------------------------------------------------------------- BC

def _run_bc(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    lb = en.lb
    indptr, indices = g.indptr, g.indices
    labels, sigma = P.labels, P.sigma
    n = g.n
    lanes = en.level_lanes = []

    def step(f, it):
        depth = it + 1
        with Stage(en, "advance", it, f) as st:
            degs, ne = frontier_degrees(g, f)
            out = ks = EMPTY
            if ne == 0:
                charge_push(P, lb, degs, 0, it)
            else:
                _, eids = row_lanes(indptr, f, degs, ne)
                dsts = indices[eids]
                keep = labels[dsts] < 0
                ks = f.repeat(degs)
                if keep.all():
                    kd = dsts
                else:
                    kd = dsts[keep]
                    ks = ks[keep]
                kvals = sigma[ks]
                if machine is not None:
                    # both atomics land on the same lanes: price them once
                    cells = atomics.cell_stats(kd)
                    charge_push(P, lb, degs, ne, it,
                                ("atomic_add", cells), ("atomic_max", cells))
                if len(kd):
                    if len(kd) < n // 8:
                        np.add.at(sigma, kd, kvals)
                    else:
                        # sigma cells at this depth start at +0.0, so the
                        # bincount partial sums associate identically
                        np.add(sigma, np.bincount(kd, weights=kvals,
                                                  minlength=n), out=sigma)
                    # every admitted cell holds -1: the constant-depth
                    # atomic_max is a plain scatter
                    labels[kd] = depth
                out = kd
            if machine is not None:
                machine.counters.record_frontier(len(out))
            st.done(out)
        if it:
            # the edges from this level into the next: exactly the lanes
            # the backward functor admits, in the same order
            lanes.append((ks, out, degs, ne))
        out = unique_by_sort(out, machine)
        # the library loop traces its dedup as a filter that keeps all
        en._trace("filter", out, out)
        if len(out):
            en.level_frontiers.append(Frontier(out))
        return out

    return Frontier(run_supersteps(en, frontier.items, step))


def run_bc_backward(en) -> None:
    """BC's dependency pass, replaying the lanes :func:`_run_bc` kept.

    The library backward re-expands every level frontier (deepest
    first) and admits the lanes with ``labels[dst] == labels[src] + 1``:
    the same lanes, in the same frontier x CSR order, the forward kept
    when it discovered level d+1 from level d.  So each level is one
    vectorized step over its recorded lanes, with the library advance's
    charges and trace.  A level ``max_iterations`` left unexpanded has
    no record; the library admits no lane there (no vertex is deeper),
    and its expansion is charged alone.
    """
    P = en.problem
    g = P.graph
    machine = P.machine
    lb = en.lb
    sigma, delta = P.sigma, P.delta
    n = g.n
    lanes = en.level_lanes
    for d in reversed(range(len(en.level_frontiers))):
        f = en.level_frontiers[d].items
        it = en.iteration
        with Stage(en, "advance", it, f) as st:
            if d < len(lanes):
                ks, kd, degs, ne = lanes[d]
            else:
                degs, ne = frontier_degrees(g, f)
                ks = EMPTY
            charge_push(P, lb, degs, ne, it, ("atomic_add", ks))
            if machine is not None:
                machine.counters.record_frontier(0)
            if len(ks):
                contrib = sigma[ks] / sigma[kd] * (1.0 + delta[kd])
                if len(ks) < n // 8:
                    np.add.at(delta, ks, contrib)
                else:
                    # delta cells of this level start at +0.0 (the
                    # forward's argument for sigma)
                    np.add(delta, np.bincount(ks, weights=contrib,
                                              minlength=n), out=delta)
            st.done(EMPTY)
        en.iteration += 1
    en.level_lanes = None


# ------------------------------------------------------------- dispatcher

#: primitive name -> runner
RUNNERS: Dict[str, Callable] = {
    "bfs": _run_bfs,
    "sssp": _run_sssp,
    "pagerank": _run_pagerank,
    "ppr": _run_pagerank,
    "cc": _run_cc,
    "bc": _run_bc,
}

#: configurations of a fusable primitive whose schedule has no runner
PRECHECKS: Dict[str, Callable] = {"bfs": _precheck_bfs, "cc": _precheck_cc}


def _prepare(enactor, name: str):
    """Compile (or fetch) the plan; refuse what it or the primitive's
    precheck blocks, else attach it for the runner."""
    from ..analysis.plan import plan_for
    plan = plan_for(name, enactor.problem.graph)
    if not plan.fusable:
        return "; ".join(plan.blocked), {}
    precheck = PRECHECKS.get(name)
    reason = precheck(enactor) if precheck is not None else None
    if reason is None:
        enactor._fused_plan = plan
    return reason, dict(fused_ops=",".join(plan.stages),
                        stage_count=len(plan.stages))


FUSED = Backend(name="fused", runners=RUNNERS, span_category=CAT_FUSED,
                prepare=_prepare,
                no_runner="no fused runner for primitive '{name}'")


def try_fused(enactor, frontier: Frontier) -> Optional[Frontier]:
    """Run ``enactor``'s loop through its fused plan, or None to take the
    library path (:func:`repro.core.engine.dispatch` records why)."""
    return dispatch(FUSED, enactor, frontier)
