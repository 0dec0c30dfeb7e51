"""The advance operator — Gunrock's workhorse (Sections 4.1 and 4.4).

Advance visits the neighbors of the current frontier and produces a new
frontier of vertices or edges, running the user's edge functor on every
traversed edge.  It supports:

* vertex or edge *input* frontiers, vertex or edge *output* frontiers;
* **push** (scatter from the frontier) and **pull** (gather into the
  unvisited set, Section 4.1.1) traversal;
* **idempotent** operation (duplicates allowed in the output, deduped
  cheaply by filter) or exact-dedup output;
* pluggable load-balance strategies (Section 4.4) that determine the
  simulated cost of the launch — semantics never change across
  strategies.

The whole expansion is one fused kernel: functor ``cond``/``apply`` run
inside the advance launch (Section 4.3's kernel fusion), so each BSP step
pays one launch overhead.

Rows become edge lanes in one place, :func:`repro.graph.csr.row_lanes`;
this file adds what advance needs around it: all-vertices frontiers are
served straight from the graph's :class:`~repro.graph.csr.ArtifactCache`,
and compaction copies are skipped when no lane was culled (a mask that
is a view of :func:`~repro.graph.csr.true_mask`).  A functor that declares a
source scatter (``Functor.scatter_source``: PageRank's and SALSA's
walks) gets one lowering of it, which builds no lane at all wherever
:func:`repro.graph.csr.transpose_product` is bitwise safe and no
sanitizer watches; a machine prices that step's atomic from per-cell
lane counts, not lanes.  The textbook bodies this one replaced live on
as the oracle in ``tests/unpooled_reference.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...analysis.sanitizer import current_sanitizer, kernel_scope
from ...graph.csr import (iota, is_false_mask, is_iota, is_true_mask,
                          row_lanes, transpose_cell_stats,
                          transpose_min_edges, transpose_product)
from ...obs.spans import CAT_OPERATOR, span as obs_span
from ...simt import calib
from .. import atomics
from ..frontier import Frontier, FrontierKind
from ..functor import Functor, resolve_masks
from ..loadbalance import LoadBalancer, default_load_balancer
from ..problem import ProblemBase


def _frontier_vertices(problem: ProblemBase, frontier: Frontier) -> np.ndarray:
    """The vertex set an advance expands from.

    An edge frontier advances from the *destination* endpoints of its
    edges (this is what gives Gunrock its 2-hop/bipartite traversals)."""
    if frontier.kind is FrontierKind.VERTEX:
        return frontier.items
    return problem.graph.indices[frontier.items]


def expand_push(problem: ProblemBase, source_vertices: np.ndarray,
                *, need_srcs: bool = True
                ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray,
                           np.ndarray]:
    """Vectorized CSR expansion: ``(srcs, dsts, edge_ids, degrees)``.

    One output lane per traversed edge, in frontier order — the dense,
    uniform workload the scan-based reorganization of Section 3 produces.

    An all-vertices frontier (PageRank every iteration, recognised by
    :func:`~repro.graph.csr.is_iota`) short-circuits to the graph's
    cached artifacts: the expansion of ``iota(n)`` *is*
    ``(edge_sources, indices, iota(m), out_degrees)``, so no per-lane
    arrays are built at all.  ``need_srcs=False`` skips materializing the
    per-lane source array for callers that consume the segment structure
    directly — ``srcs`` comes back None.
    """
    g = problem.graph
    f = np.asarray(source_vertices, dtype=np.int64)
    if is_iota(f, g.n):
        art = g.artifacts
        return art.edge_sources, g.indices, iota(g.m), art.out_degrees
    # no per-lane segment-id array is ever built: srcs (when wanted)
    # is repeat(f, degs), identical to the oracle's gather through
    # the segment ids
    # (not artifacts.out_degrees[f]: caching an n-sized artifact on
    # every throwaway block-diagonal graph the serving tier expands
    # here cost serve-steady 17 % peak RSS)
    degs = g.degrees_of(f)
    _, eids = row_lanes(g.indptr, f, degs, int(degs.sum()))
    if len(eids) == 0:
        return eids, eids, eids, degs
    srcs = np.repeat(f, degs) if need_srcs else None
    return srcs, g.indices[eids], eids, degs


def _charge_advance(problem: ProblemBase, degs: np.ndarray, lb: LoadBalancer,
                    name: str, n_edges: int, iteration: int) -> None:
    machine = problem.machine
    if machine is None:
        return
    per_edge = calib.C_EDGE + (0.0 if machine.hardwired else calib.C_FUNCTOR_PER_ELEM)
    est = lb.estimate(degs, machine.spec, per_edge, calib.C_VERTEX)
    machine.launch(f"{name}[{lb.name}]", est.cta_costs,
                   body_cycles=est.setup_cycles, items=n_edges,
                   iteration=iteration)
    machine.counters.record_edges(n_edges)
    machine.counters.record_vertices(len(degs))


def advance(problem: ProblemBase, frontier: Frontier, functor: Functor,
            *, output_kind: FrontierKind | str = FrontierKind.VERTEX,
            mode: str = "push", lb: Optional[LoadBalancer] = None,
            dedupe_output: bool = False, iteration: int = -1) -> Frontier:
    """Run one advance step; returns the new frontier.

    Parameters
    ----------
    mode:
        ``"push"`` scatters from the frontier; ``"pull"`` gathers into the
        problem's unvisited set (requires ``problem.unvisited_mask()``).
    dedupe_output:
        Exact duplicate removal on the output (the non-idempotent path
        normally achieves uniqueness through functor atomics instead;
        this flag is the sledgehammer for primitives that need it).
    """
    output_kind = FrontierKind(output_kind)
    lb = lb if lb is not None else default_load_balancer()
    machine = problem.machine
    sp = obs_span("advance", CAT_OPERATOR, machine, mode=mode, lb=lb.name,
                  iteration=iteration, frontier=len(frontier))
    with sp:
        edges_before = machine.counters.edges_visited \
            if sp.enabled and machine is not None else 0
        if mode == "push":
            out = _advance_push(problem, frontier, functor, output_kind, lb,
                                iteration)
        elif mode == "pull":
            if output_kind is not FrontierKind.VERTEX:
                raise ValueError("pull-based advance produces vertex frontiers")
            out = _advance_pull(problem, frontier, functor, lb, iteration)
        else:
            raise ValueError(f"unknown advance mode {mode!r}")
        if dedupe_output:
            out = out.deduplicated(machine)
        if machine is not None:
            machine.counters.record_frontier(len(out))
            if sp.enabled:
                sp.set(edges=machine.counters.edges_visited - edges_before)
        if sp.enabled:
            sp.set(frontier_out=len(out))
    return out


def _advance_push(problem: ProblemBase, frontier: Frontier, functor: Functor,
                  output_kind: FrontierKind, lb: LoadBalancer,
                  iteration: int) -> Frontier:
    machine = problem.machine
    f_vertices = _frontier_vertices(problem, frontier)
    ctx = machine.fused(f"advance_push[{lb.name}]", iteration) if machine else None
    if ctx is None:
        return _push_body(problem, f_vertices, functor, output_kind, lb, iteration)
    with ctx:
        return _push_body(problem, f_vertices, functor, output_kind, lb, iteration)


def _push_body(problem, f_vertices, functor, output_kind, lb, iteration):
    if functor.scatter_source is not None \
            and type(functor).cond_edge is Functor.cond_edge:
        _push_scatter(problem, f_vertices, functor, lb, iteration)
        return Frontier.empty(output_kind)
    srcs, dsts, eids, degs = expand_push(problem, f_vertices)
    _charge_advance(problem, degs, lb, "advance_push", len(eids), iteration)
    if len(eids) == 0:
        return Frontier.empty(output_kind)
    fname = type(functor).__name__
    with kernel_scope("advance_push", problem, functor):
        cond = functor.cond_edge(problem, srcs, dsts, eids)
        keep = resolve_masks(len(eids), cond, where=f"{fname}.cond_edge")
        if not is_true_mask(keep) and not keep.all():
            srcs, dsts, eids = srcs[keep], dsts[keep], eids[keep]
        if len(eids) == 0:
            return Frontier.empty(output_kind)
        applied = functor.apply_edge(problem, srcs, dsts, eids)
        keep = resolve_masks(len(eids), applied,
                             where=f"{fname}.apply_edge")
    out_src = dsts if output_kind is FrontierKind.VERTEX else eids
    if is_true_mask(keep):
        # no lane culled: alias the (immutable) lane array instead of a
        # full fancy-index copy — frontier items are never mutated
        out_items = out_src
    elif is_false_mask(keep):
        # admit-nothing mask: skip the compaction scan that would
        # produce an empty array anyway
        out_items = out_src[:0]
    else:
        out_items = out_src[keep]
    return Frontier(out_items, output_kind)


def _push_scatter(problem, f_vertices, functor, lb, iteration) -> None:
    """The one lowering of a declared source scatter
    (``Functor.scatter_source``); it admits nothing.

    With no sanitizer to observe the atomic's per-cell writes and an edge
    volume past :func:`~repro.graph.csr.transpose_min_edges`, the scatter
    is the transpose product, which refuses inputs it would not equal the
    lanes on.  A machine prices that step from the product's per-cell
    lane counts (:func:`~repro.graph.csr.transpose_cell_stats`), with the
    same launches in the same order as the lane path.  Everything else
    expands the lanes and adds each source's value along them.
    """
    g = problem.graph
    machine = problem.machine
    f = np.asarray(f_vertices, dtype=np.int64)
    acc = values = None
    if current_sanitizer() is None:
        art = g.artifacts
        full = is_iota(f, g.n)
        degs = art.out_degrees if full else art.out_degrees[f]
        ne = g.m if full else int(degs.sum())
        if ne >= transpose_min_edges(g.m):
            acc, values = functor.scatter_source(problem, f)
            if transpose_product(g, acc, f, values):
                if machine is not None:
                    _charge_advance(problem, degs, lb, "advance_push", ne,
                                    iteration)
                    atomics.price(machine, "atomic_add",
                                  transpose_cell_stats(g, f, ne))
                return
    _, dsts, eids, degs = expand_push(problem, f, need_srcs=False)
    _charge_advance(problem, degs, lb, "advance_push", len(eids), iteration)
    if len(eids) == 0:
        return
    with kernel_scope("advance_push", problem, functor):
        if values is None:
            acc, values = functor.scatter_source(problem, f)
        atomics.atomic_add(acc, dsts, np.repeat(values, degs), machine)


def _advance_pull(problem: ProblemBase, frontier: Frontier, functor: Functor,
                  lb: LoadBalancer, iteration: int) -> Frontier:
    """Pull traversal: start from the unvisited set and look *backwards*.

    "Gunrock internally converts the current frontier into a bitmap of
    vertices, generates a new frontier of all unvisited nodes, then uses
    an advance step to 'pull' the computation from these nodes'
    predecessors if they are valid in the bitmap." (Section 4.1.1)

    Each unvisited vertex scans its in-neighbors and stops at the first
    one present in the current frontier; the early exit is why pull wins
    when the frontier covers most edges.
    """
    g = problem.graph
    machine = problem.machine
    rev = g.csc
    in_frontier = frontier.to_bitmap(g.n, machine)
    unvisited = np.flatnonzero(problem.unvisited_mask())
    if machine is not None:
        # generating the unvisited frontier = one compaction over V
        machine.map_kernel("pull_candidates", g.n, calib.C_COMPACT_PER_ELEM,
                           iteration=iteration)
    if len(unvisited) == 0:
        return Frontier.empty(FrontierKind.VERTEX)

    degs = rev.degrees_of(unvisited)
    excl, eids = row_lanes(rev.indptr, unvisited, degs, int(degs.sum()))
    total = len(eids)
    if total == 0:
        return Frontier.empty(FrontierKind.VERTEX)
    seg = np.repeat(iota(len(unvisited)), degs)
    parents = rev.indices[eids]
    hits = in_frontier[parents]

    # First-hit position per segment (the lane where the serial scan stops).
    big = np.iinfo(np.int64).max
    pos_in_seg = excl[seg]
    np.subtract(iota(total), pos_in_seg, out=pos_in_seg)
    first_hit = np.full(len(unvisited), big, dtype=np.int64)
    if np.count_nonzero(hits) * 4 >= total:
        # dense hits (the regime pull is chosen for): replace the
        # element-at-a-time ``np.minimum.at`` with one vectorized
        # segmented reduction.  Rows are taken only at nonzero-degree
        # segments so reduceat's empty-slice quirk never applies; the
        # per-segment minimum is the same value either way.
        vals = np.full(total, big, dtype=np.int64)
        np.copyto(vals, pos_in_seg, where=hits)
        nz = np.flatnonzero(degs)
        first_hit[nz] = np.minimum.reduceat(vals, excl[nz])
    else:
        np.minimum.at(first_hit, seg[hits], pos_in_seg[hits])
    found = first_hit != big
    # Edges actually examined: up to and including the first hit, or the
    # whole list when no parent is in the frontier.
    examined = np.where(found, first_hit + 1, degs)
    if machine is not None:
        per_edge = calib.C_EDGE * calib.SCATTER_PENALTY * 0.5 \
            + (0.0 if machine.hardwired else calib.C_FUNCTOR_PER_ELEM)
        est = lb.estimate(examined, machine.spec, per_edge, calib.C_VERTEX)
        machine.launch(f"advance_pull[{lb.name}]", est.cta_costs,
                       body_cycles=est.setup_cycles, items=int(examined.sum()),
                       iteration=iteration)
        machine.counters.record_edges(int(examined.sum()))
        machine.counters.record_vertices(len(unvisited))

    if not found.any():
        return Frontier.empty(FrontierKind.VERTEX)
    winners = np.flatnonzero(found)
    child = unvisited[winners]
    win_edge = rev.indptr[child] + first_hit[winners]
    parent = rev.indices[win_edge]
    orig_eid = rev.edge_props["orig_edge"][win_edge]

    fname = type(functor).__name__
    with kernel_scope("advance_pull", problem, functor):
        cond = functor.cond_edge(problem, parent, child, orig_eid)
        keep = resolve_masks(len(child), cond, where=f"{fname}.cond_edge")
        if not is_true_mask(keep):
            parent, child, orig_eid = parent[keep], child[keep], orig_eid[keep]
        if len(child) == 0:
            return Frontier.empty(FrontierKind.VERTEX)
        applied = functor.apply_edge(problem, parent, child, orig_eid)
        keep = resolve_masks(len(child), applied, where=f"{fname}.apply_edge")
    out_items = child if is_true_mask(keep) else child[keep]
    return Frontier(out_items, FrontierKind.VERTEX)
