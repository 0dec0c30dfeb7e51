"""The super-step skeleton the specialized engines share.

:mod:`repro.core.fused` and :mod:`repro.la.backend` each lower a
primitive's stages their own way (vectorized scatter vs semiring
product); what a super-step loop *is* does not differ between them and
lives here: the loop head and tail, BFS's direction decision, the
frontier's degree sum, the push-advance charge, and the two halves of a
residual-push rank step that are the same arithmetic in every engine.
``primitives/`` uses the same fragments where the library loop needs
them, so each exists once.  A specialized step also leaves what the
library loop leaves to be observed: the ``superstep`` span of every
step, and through :class:`Stage` each operator's span and
``TraceEvent``.
"""

from __future__ import annotations

from typing import Callable, Tuple, Union

import numpy as np

from ..graph.csr import iota, is_iota
from ..obs.spans import (CAT_OPERATOR, CAT_SUPERSTEP, NOOP_SPAN,
                         current_observer, span as obs_span)
from . import atomics
from .atomics import CellStats
from .operators.advance import _charge_advance

EMPTY = np.zeros(0, dtype=np.int64)


def run_supersteps(en, items: np.ndarray,
                   step: Callable[[np.ndarray, int], np.ndarray]) -> np.ndarray:
    """Drive ``step(items, iteration) -> next items`` to convergence.

    Owns what every specialized runner's loop shares with
    ``EnactorBase._enact_loop``: stop on an empty frontier or at
    ``en.max_iterations``, open each step's ``superstep`` span, and
    publish the iteration count to the enactor and the machine after
    every step.
    """
    machine = en.problem.machine
    maxit = en.max_iterations
    it = 0
    while len(items) and (maxit is None or it < maxit):
        sp = obs_span("superstep", CAT_SUPERSTEP, machine,
                      iteration=it, frontier=len(items))
        with sp:
            items = step(items, it)
            sp.set(frontier_out=len(items))
        it += 1
        en.iteration = it
        if machine is not None:
            machine.counters.iterations = it
    return items


class Stage:
    """One library operator as a specialized step shows it.

    ``with Stage(en, label, it, items) as st: ...; st.done(out)`` opens
    the operator span ``EnactorBase.advance`` (a push) or ``filter``
    opens, with the same attributes, and ``done`` adds the same
    output-side facts and appends the same ``TraceEvent(it, label,
    len(items), len(out))``.  ``label`` is ``"advance"`` or a filter's
    trace label (``"filter"``, ``"filter(hook)"``, ...).  With no
    observer installed only the trace event is recorded.
    """

    __slots__ = ("en", "label", "items", "sp", "edges0")

    def __init__(self, en, label: str, it: int, items) -> None:
        self.en, self.label, self.items = en, label, items
        self.edges0 = 0
        self.sp = NOOP_SPAN if current_observer() is None \
            else self._span(it)

    def _span(self, it: int):
        en, machine = self.en, self.en.problem.machine
        if self.label == "advance":
            sp = obs_span("advance", CAT_OPERATOR, machine, mode="push",
                          lb=en.lb.name, iteration=it,
                          frontier=len(self.items))
            if machine is not None:
                self.edges0 = machine.counters.edges_visited
            return sp
        return obs_span("filter", CAT_OPERATOR, machine, iteration=it,
                        frontier=len(self.items))

    def __enter__(self) -> "Stage":
        self.sp.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.sp.__exit__(*exc)

    def done(self, out) -> None:
        sp = self.sp
        if sp.enabled:
            machine = self.en.problem.machine
            if machine is not None and self.label == "advance":
                sp.set(edges=machine.counters.edges_visited - self.edges0)
            sp.set(frontier_out=len(out))
        self.en._trace(self.label, self.items, out)


def frontier_degrees(g, f: np.ndarray) -> Tuple[np.ndarray, int]:
    """Out-degrees of the frontier's vertices and their sum (the edge
    volume a push advance expands)."""
    degs = g.artifacts.out_degrees[f]
    return degs, int(degs.sum())


def bfs_direction(policy, P, f: np.ndarray):
    """Pick push or pull for this BFS super-step.

    Returns ``(mode, degs, frontier_edges)``.  ``P.num_unvisited`` is
    maintained lazily: the policy is its only consumer, and its cheap
    frontier-size guard rules out a flip on most super-steps, so the
    unvisited recount and the frontier's degree sum are computed only on
    the steps where the policy will actually read them (``degs`` is None
    otherwise).  On a road network the guard never passes and BFS does
    zero unvisited bookkeeping across hundreds of shallow super-steps; on
    scale-free graphs it pays one O(n) recount on the handful of
    hub-burst steps.
    """
    g = P.graph
    degs, frontier_edges = None, 0
    if policy.needs_frontier_stats(g, len(f)):
        P.num_unvisited = int(np.count_nonzero(P.unvisited_mask()))
        degs, frontier_edges = frontier_degrees(g, f)
    mode = policy.choose(g, len(f), frontier_edges, P.num_unvisited)
    return mode, degs, frontier_edges


def charge_push(P, lb, degs: np.ndarray, ne: int, it: int,
                *atomic_charges: Tuple[str, Union[np.ndarray, CellStats]]
                ) -> None:
    """Replicate a push advance's kernel record: the load-balanced
    expansion plus each ``(atomic name, touched cells)`` the functor
    issues, fused into one launch as the library operator does.  The
    cells are the lanes' cell array or, from a scatter that built no
    lanes, their :data:`~repro.core.atomics.CellStats`."""
    machine = P.machine
    if machine is None:
        return
    with machine.fused(f"advance_push[{lb.name}]", it):
        _charge_advance(P, degs, lb, "advance_push", ne, it)
        for name, cells in atomic_charges:
            atomics.price(machine, name, cells if isinstance(cells, tuple)
                          else atomics.cell_stats(cells))


def rank_contribution(P, f: np.ndarray) -> Tuple[np.ndarray, bool]:
    """``damping * residual / degree`` per vertex of ``f`` — what each
    scatters along its out-edges in a residual-push step (PageRank and
    PPR, every engine) — and whether ``f`` is every vertex, in which
    case the gathers are skipped.  Float multiply commutes bitwise, so
    folding in place on the owned gather result matches
    ``damping * residual[f] / degrees[f]``.
    """
    full = is_iota(f, P.graph.n)
    if full:
        contrib, degrees = P.residual * P.damping, P.degrees
    else:
        contrib, degrees = P.residual[f], P.degrees[f]
        np.multiply(contrib, P.damping, out=contrib)
    np.divide(contrib, degrees, out=contrib)
    return contrib, full


def rank_commit(P, res: np.ndarray) -> Tuple[np.ndarray, int]:
    """Fold the received residual ``res`` (one cell per vertex) into the
    ranks and keep the vertices still above tolerance.  Returns the next
    frontier and its size; the all-kept frontier is an :func:`iota`
    view, which the next step recognizes (:func:`is_iota`)."""
    np.add(P.rank, res, out=P.rank)
    np.copyto(P.residual, res)
    keep = res > P.tolerance
    nk = int(np.count_nonzero(keep))
    n = P.graph.n
    if nk == n:
        return iota(n), nk
    return (np.flatnonzero(keep) if nk else EMPTY), nk
