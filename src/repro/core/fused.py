"""Fused super-step runners: specialized single-pass primitive loops.

The fused engine (DESIGN §15) executes a primitive's *entire* verified
operator DAG as one specialized loop per super-step: advance's expansion,
the functor's cond+apply, and filter's culls/compaction run as a single
vectorized pass with no intermediate :class:`Frontier` materialization
between operators.  The specialization is compiled per ``(primitive,
graph)`` by :mod:`repro.analysis.plan`; this module holds the runner the
plan's stages are interpreted by.

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
* filter's warp/bitmask/history culls are the library's own
  (``IdempotenceHeuristics.cull`` on the enactor's heuristics object), so
  the frontier *content and order* — which feed last-write-wins
  predecessor choices — match lane for lane.

When a :class:`~repro.simt.machine.Machine` is attached, the runners
invoke the same charge helpers at the same points as the library
operators, so the simulated kernel stream is identical by construction;
with ``machine=None`` (wall-clock mode) all charging short-circuits and
only the lean array code runs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..graph.csr import row_lanes, transpose_product
from ..obs.spans import CAT_FUSED
from ..simt import calib
from ..simt.primitives import first_occurrence, unique_by_sort
from . import atomics
from .engine import Backend, dispatch
from .frontier import Frontier, FrontierKind
from .operators.advance import advance as _op_advance
from .superstep import (EMPTY, bfs_direction, charge_push, frontier_degrees,
                        rank_commit, rank_contribution, run_supersteps)


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
            machine.counters.compact_elements += n_in
            machine.map_kernel("compact", n_in, calib.C_COMPACT_PER_ELEM)
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
    ws = P.workspace
    lb = en.lb
    coarse = en._fused_plan.regimes.coarse_edges
    indptr, indices = g.indptr, g.indices
    labels, preds = P.labels, (P.preds if P.record_preds else None)
    heur = en.heuristics

    def step(f, it):
        depth = it + 1
        mode, degs, ne = bfs_direction(en.direction, P, f)
        if mode == "push":
            if degs is None:
                degs, ne = frontier_degrees(g, f)
            charge_push(P, lb, degs, ne, it)
            if ne == 0:
                out_items = EMPTY
            else:
                excl, eids = row_lanes(indptr, f, degs, ne, ws)
                dsts = indices[eids]
                keep = labels[dsts] < 0
                if keep.all():
                    kd = dsts
                    ks = f.repeat(degs) if preds is not None else None
                elif ne < coarse:
                    kd = dsts[keep]
                    ks = f.repeat(degs)[keep] if preds is not None else None
                else:
                    kidx = keep.nonzero()[0]
                    kd = dsts[kidx]
                    if preds is not None:
                        # map kept lanes to their frontier segment instead
                        # of materializing the dense per-lane source array
                        seg = excl.searchsorted(kidx, side="right")
                        ks = f[seg - 1]
                labels[kd] = depth
                if preds is not None:
                    preds[kd] = ks
                out_items = kd
            if machine is not None:
                machine.counters.record_frontier(len(out_items))
        else:
            # pull steps run the library operator whole: it already is a
            # single fused pass and charges its own kernels
            out_items = _op_advance(P, Frontier(f), _IdempotentBfsFunctor(depth),
                                    mode="pull", lb=lb, iteration=it).items
        k = len(out_items)
        if k:
            out_items = out_items[heur.cull(out_items, g.n)]
        _charge_filter(machine, it, k, len(out_items), heuristics=True)
        return out_items

    return Frontier(run_supersteps(en, frontier.items, step))


# ------------------------------------------------------------------- SSSP

def _run_sssp(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    ws = P.workspace
    lb = en.lb
    indptr, indices = g.indptr, g.indices
    labels, preds, weights = P.labels, P.preds, P.weights
    pile = en.pile

    def step(f, it):
        degs, ne = frontier_degrees(g, f)
        wd = EMPTY
        if ne == 0:
            charge_push(P, lb, degs, 0, it)
        else:
            excl, eids = row_lanes(indptr, f, degs, ne, ws)
            dsts = indices[eids]
            new_label = labels[f].repeat(degs)
            np.add(new_label, weights[eids], out=new_label)
            charge_push(P, lb, degs, ne, it, ("atomic_min", dsts))
            won = new_label < labels[dsts]
            widx = won.nonzero()[0]
            if len(widx):
                wd = dsts[widx]
                nw = new_label[widx]
                # losing lanes can never be the per-cell minimum: folding
                # the atomic over winner lanes only is exact
                np.minimum.at(labels, wd, nw)
                ach = nw == labels[wd]
                aidx = widx[ach]
                if len(aidx):
                    w = aidx[first_occurrence(dsts[aidx])]
                    seg = excl.searchsorted(w, side="right")
                    preds[dsts[w]] = f[seg - 1]
        if machine is not None:
            machine.counters.record_frontier(len(wd))
        # the library loop's exact-dedup filter runs every step, empty or
        # not — the "unique" kernel record must exist either way
        out = unique_by_sort(wd, machine)
        if pile is None:
            return out
        pile.push(Frontier(out), it)
        return pile.pop_near(it).items

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
        contrib, full = rank_contribution(P, f)
        if full:
            degs, ne = g.artifacts.out_degrees, g.m
        else:
            degs, ne = frontier_degrees(g, f)
        res = np.zeros(n)
        summed = ne >= spmv_min_edges and transpose_product(g, res, f, contrib)
        # the destination lanes price the atomics and feed the bincount;
        # an uncharged product step never needs them
        lanes = EMPTY
        if ne and (machine is not None or not summed):
            lanes = indices if full else \
                indices[row_lanes(g.indptr, f, degs, ne, P.workspace)[1]]
        charge_push(P, lb, degs, ne, it, ("atomic_add", lanes))
        if machine is not None:
            machine.counters.record_frontier(0)
        if ne and not summed:
            vals = contrib[g.edge_sources] if full else contrib.repeat(degs)
            res = np.bincount(lanes, weights=vals, minlength=n)
        f, nk = rank_commit(P, res)
        _charge_filter(machine, it, n, nk)
        return f

    return Frontier(run_supersteps(en, frontier.items, step))


# --------------------------------------------------------------------- CC

def _precheck_cc(en) -> Optional[str]:
    if getattr(en, "alternate", False):
        return "alternating hook schedule: odd/even functor flip not specialized"
    return None


def _run_cc(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    cid = P.component_ids
    edge_sources, indices = g.edge_sources, g.indices
    n = g.n

    def step(f, it):
        # hook: cond (endpoints in different components) + atomic_min
        srcs = edge_sources[f]
        dsts = indices[f]
        cs = cid[srcs]
        cd = cid[dsts]
        mask = cs != cd
        if mask.all():
            surv, hs, hd = f, cs, cd
        else:
            surv = f[mask]
            hs = cs[mask]
            hd = cd[mask]
        if len(surv):
            hi = np.maximum(hs, hd)
            lo = np.minimum(hs, hd)
            np.minimum.at(cid, hi, lo)
        else:
            hi = None
        _charge_filter(machine, it, len(f), len(surv),
                       atomic=None if hi is None else ("atomic_min", hi))
        # pointer jumping to a fixpoint (integer ops: trivially exact)
        vf = np.arange(n, dtype=np.int64)
        while len(vf):
            parent = cid[vf]
            grand = cid[parent]
            cid[vf] = grand
            keep = grand != parent
            nvf = vf[keep]
            _charge_filter(machine, it, len(vf), len(nvf))
            vf = nvf
        return surv

    return Frontier(run_supersteps(en, frontier.items, step),
                    FrontierKind.EDGE)


# --------------------------------------------------------------------- BC

def _run_bc(en, frontier: Frontier) -> Frontier:
    P = en.problem
    g = P.graph
    machine = P.machine
    ws = P.workspace
    lb = en.lb
    indptr, indices = g.indptr, g.indices
    labels, sigma = P.labels, P.sigma
    n = g.n

    def step(f, it):
        depth = it + 1
        degs, ne = frontier_degrees(g, f)
        out = EMPTY
        if ne == 0:
            charge_push(P, lb, degs, 0, it)
        else:
            _, eids = row_lanes(indptr, f, degs, ne, ws)
            dsts = indices[eids]
            keep = labels[dsts] < 0
            if keep.all():
                kd = dsts
                kvals = sigma[f].repeat(degs)
            else:
                kd = dsts[keep]
                kvals = sigma[f].repeat(degs)[keep]
            charge_push(P, lb, degs, ne, it,
                        ("atomic_add", kd), ("atomic_max", kd))
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
        out = unique_by_sort(out, machine)
        if len(out):
            en.level_frontiers.append(Frontier(out))
        return out

    return Frontier(run_supersteps(en, frontier.items, step))


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
        return "; ".join(plan.blocked) or "analysis verdict: not fusable", {}
    precheck = PRECHECKS.get(name)
    reason = precheck(enactor) if precheck is not None else None
    if reason is None:
        enactor._fused_plan = plan
    return reason, dict(fused_ops=",".join(s.name for s in plan.stages),
                        stage_count=len(plan.stages))


FUSED = Backend(name="fused", runners=RUNNERS, span_category=CAT_FUSED,
                prepare=_prepare,
                no_runner="no fused runner for primitive '{name}'")


def try_fused(enactor, frontier: Frontier) -> Optional[Frontier]:
    """Run ``enactor``'s loop through its fused plan, or None to take the
    library path (:func:`repro.core.engine.dispatch` records why)."""
    return dispatch(FUSED, enactor, frontier)
