"""Textbook operator bodies: the oracle for the one operator body.

Before pooling became a scratch provider (``Workspace(pooled=False)``
lends nothing but answers the same calls), every super-step kernel had a
second, "unpooled" body next to its pooled one.  These are those bodies:
they allocate every intermediate, take no artifact or memo shortcut and
compact by fancy indexing, so they are slow and obviously right.
``tests/test_unpooled_reference.py`` holds the library body to them —
values, dtypes and charged counters — under both providers.

The CSR row → lane expansion is ``expand_reference.row_lanes_reference``,
not a copy of it.
"""

import numpy as np

from expand_reference import row_lanes_reference
from repro.core import Frontier, FrontierKind, Functor, atomics
from repro.core.functor import _validate_mask
from repro.primitives.pagerank import PagerankEnactor
from repro.simt import calib
from repro.simt.primitives import first_occurrence


# -- masks and bitmaps ---------------------------------------------------------

def resolve_masks_reference(n_lanes, *masks, where="functor"):
    """Allocate all-True, then AND every functor mask into it."""
    out = np.ones(n_lanes, dtype=bool)
    for mask in masks:
        if mask is not None:
            out &= _validate_mask(mask, n_lanes, where)
    return out


def to_bitmap_reference(items, size, machine=None):
    """Zeros, then scatter; any id outside ``[0, size)`` is refused."""
    bitmap = np.zeros(size, dtype=bool)
    if len(items):
        if items.min() < 0 or items.max() >= size:
            raise ValueError("frontier id exceeds bitmap size")
        bitmap[items] = True
    if machine is not None:
        machine.map_kernel("queue_to_bitmap", len(items), 1.0)
    return bitmap


# -- expansion -----------------------------------------------------------------

def segment_ids_reference(degs):
    """One segment id per lane: ``arange`` repeated by degree."""
    return np.repeat(np.arange(len(degs), dtype=np.int64), degs)


def segment_offsets_reference(degs):
    """Zero-led inclusive degree prefix (``len(degs) + 1`` entries)."""
    offsets = np.zeros(len(degs) + 1, dtype=np.int64)
    np.cumsum(degs, out=offsets[1:])
    return offsets


def expand_push_reference(g, f):
    """``(srcs, dsts, eids, degs)`` of frontier ``f``: sources are
    gathered through the segment ids, for every frontier."""
    f = np.asarray(f, dtype=np.int64)
    degs = g.degrees_of(f)
    _, eids = row_lanes_reference(g.indptr, f, degs, int(degs.sum()))
    eids = eids.astype(np.int64)
    if len(eids) == 0:
        return eids, eids, eids, degs
    return f[segment_ids_reference(degs)], g.indices[eids], eids, degs


# -- operators -----------------------------------------------------------------

def advance_pull_reference(problem, frontier, functor, lb, iteration=-1):
    """The pull advance with the textbook first hit: ``np.minimum.at``
    over per-lane positions, whatever the hit density."""
    g = problem.graph
    machine = problem.machine
    rev = g.csc
    in_frontier = to_bitmap_reference(frontier.items, g.n, machine)
    unvisited = np.flatnonzero(problem.unvisited_mask())
    if machine is not None:
        machine.map_kernel("pull_candidates", g.n, calib.C_COMPACT_PER_ELEM,
                           iteration=iteration)
    if len(unvisited) == 0:
        return Frontier.empty(FrontierKind.VERTEX)

    degs = rev.degrees_of(unvisited)
    total = int(degs.sum())
    excl, eids = row_lanes_reference(rev.indptr, unvisited, degs, total)
    if total == 0:
        return Frontier.empty(FrontierKind.VERTEX)
    seg = segment_ids_reference(degs)
    hits = in_frontier[rev.indices[eids]]
    big = np.iinfo(np.int64).max
    pos_in_seg = np.arange(total, dtype=np.int64) - excl[seg]
    first_hit = np.full(len(unvisited), big, dtype=np.int64)
    np.minimum.at(first_hit, seg[hits], pos_in_seg[hits])
    found = first_hit != big
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
    keep = resolve_masks_reference(
        len(child), functor.cond_edge(problem, parent, child, orig_eid))
    parent, child, orig_eid = parent[keep], child[keep], orig_eid[keep]
    if len(child) == 0:
        return Frontier.empty(FrontierKind.VERTEX)
    keep = resolve_masks_reference(
        len(child), functor.apply_edge(problem, parent, child, orig_eid))
    return Frontier(child[keep], FrontierKind.VERTEX)


def filter_edges_reference(problem, frontier, functor, iteration=-1):
    """An edge-frontier filter that gathers the endpoints for ``cond_edge``
    and gathers them again, from the survivors, for ``apply_edge``."""
    g = problem.graph
    machine = problem.machine
    items = frontier.items

    def body():
        if len(items) == 0:
            return Frontier.empty(FrontierKind.EDGE)
        keep = resolve_masks_reference(len(items), functor.cond_edge(
            problem, g.edge_sources[items], g.indices[items], items))
        survivors = items[keep]
        if len(survivors):
            keep = resolve_masks_reference(len(survivors), functor.apply_edge(
                problem, g.edge_sources[survivors], g.indices[survivors],
                survivors))
            survivors = survivors[keep]
        if machine is not None:
            machine.counters.compact_elements += len(items)
            machine.map_kernel("compact", len(items), calib.C_COMPACT_PER_ELEM)
        return Frontier(survivors, FrontierKind.EDGE)

    if machine is None:
        return body()
    with machine.fused("filter", iteration):
        out = body()
    machine.counters.record_frontier(len(out))
    machine.counters.record_vertices(len(items))
    return out


def neighbor_reduce_reference(problem, frontier, value_fn, op, lb,
                              iteration=-1):
    """Segmented sum through zero-led offsets; min/max scattered through
    ``arange`` segment ids."""
    from repro.simt.primitives import segmented_reduce_sum

    srcs, dsts, eids, degs = expand_push_reference(problem.graph,
                                                   frontier.items)
    machine = problem.machine
    if machine is not None:
        per_edge = calib.C_EDGE + calib.C_SCAN_PER_ELEM
        est = lb.estimate(degs, machine.spec, per_edge, calib.C_VERTEX)
        machine.launch(f"neighbor_reduce[{lb.name}]", est.cta_costs,
                       body_cycles=est.setup_cycles, items=len(eids),
                       iteration=iteration)
        machine.counters.record_edges(len(eids))
    offsets = segment_offsets_reference(degs)
    values = np.zeros(0, dtype=np.float64) if len(eids) == 0 else \
        np.asarray(value_fn(problem, srcs, dsts, eids), dtype=np.float64)
    if op == "sum":
        return segmented_reduce_sum(values, offsets)
    ufunc = np.minimum if op == "min" else np.maximum
    out = np.full(len(degs), np.inf if op == "min" else -np.inf)
    if len(values):
        ufunc.at(out, segment_ids_reference(degs), values)
    return out


# -- primitive functors --------------------------------------------------------

class DistributeReference(Functor):
    """PageRank scatter, one lane at a time, with a fresh admit-nothing
    mask (no segmented apply)."""

    def apply_edge(self, P, src, dst, eid):
        atomics.atomic_add(P.residual_next, dst,
                           P.damping * P.residual[src] / P.degrees[src],
                           P.machine)
        return np.zeros(len(src), dtype=bool)


class CommitReference(Functor):
    """PageRank commit through fancy-indexed gathers and scatters, even
    over all vertices."""

    def apply_vertex(self, P, v):
        res = P.residual_next[v]
        P.rank[v] += res  # lint: allow(raw-write)
        P.residual[v] = res  # lint: allow(raw-write)
        P.residual_next[v] = 0.0  # lint: allow(raw-write)
        return res > P.tolerance


class ReferencePagerankEnactor(PagerankEnactor):
    """Textbook PageRank loop: per-lane scatter, fancy-indexed commit
    over a fresh ``arange(n)`` every super-step."""

    def _iterate(self, frontier):
        self.advance(frontier, DistributeReference())
        return self.filter(Frontier.all_vertices(self.problem.graph.n),
                           CommitReference())


class RelaxReference(Functor):
    """SSSP relax with a fresh temporary for every intermediate."""

    def apply_edge(self, P, src, dst, eid):
        new_label = P.labels[src] + P.weights[eid]
        won = atomics.atomic_min(P.labels, dst, new_label, P.machine)
        achieved = won & (new_label == P.labels[dst])
        idx = achieved.nonzero()[0]
        if len(idx):
            w = idx[first_occurrence(dst[idx])]
            P.preds[dst[w]] = src[w]  # lint: allow(raw-write)
        return won
