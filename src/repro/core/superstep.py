"""The super-step skeleton the specialized engines share.

:mod:`repro.core.fused` and :mod:`repro.la.backend` each lower a
primitive's stages their own way (vectorized scatter vs semiring
product); what a super-step loop *is* does not differ between them and
lives here: the loop head and tail, BFS's direction decision, the
frontier's degree sum, the push-advance charge, and the two halves of a
residual-push rank step that are the same arithmetic in every engine.
``primitives/`` uses the same fragments where the library loop needs
them, so each exists once.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from . import atomics
from .operators.advance import _charge_advance

EMPTY = np.zeros(0, dtype=np.int64)


def run_supersteps(en, items: np.ndarray,
                   step: Callable[[np.ndarray, int], np.ndarray]) -> np.ndarray:
    """Drive ``step(items, iteration) -> next items`` to convergence.

    Owns what every specialized runner's loop shares with
    ``EnactorBase._enact_loop``: stop on an empty frontier or at
    ``en.max_iterations``, and publish the iteration count to the
    enactor and the machine after every step.
    """
    machine = en.problem.machine
    maxit = en.max_iterations
    it = 0
    while len(items) and (maxit is None or it < maxit):
        items = step(items, it)
        it += 1
        en.iteration = it
        if machine is not None:
            machine.counters.iterations = it
    return items


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
                *atomic_charges: Tuple[str, np.ndarray]) -> None:
    """Replicate a push advance's kernel record: the load-balanced
    expansion plus each ``(atomic name, touched cells)`` the functor
    issues, fused into one launch as the library operator does."""
    machine = P.machine
    if machine is None:
        return
    with machine.fused(f"advance_push[{lb.name}]", it):
        _charge_advance(P, degs, lb, "advance_push", ne, it)
        for name, cells in atomic_charges:
            atomics._charge(machine, name, cells)


def rank_contribution(P, f: np.ndarray) -> Tuple[np.ndarray, bool]:
    """``damping * residual / degree`` per vertex of ``f`` — what each
    scatters along its out-edges in a residual-push step (PageRank and
    PPR, every engine) — and whether ``f`` is every vertex, in which
    case the gathers are skipped.  Float multiply commutes bitwise, so
    folding in place on the owned gather result matches
    ``damping * residual[f] / degrees[f]``.
    """
    iota_n = P.graph.artifacts.iota_n
    full = f is iota_n or (len(f) == len(iota_n) and np.array_equal(f, iota_n))
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
    frontier and its size; the all-kept frontier is the graph's cached
    iota ramp itself, which the next step recognizes by identity."""
    np.add(P.rank, res, out=P.rank)
    np.copyto(P.residual, res)
    keep = res > P.tolerance
    nk = int(np.count_nonzero(keep))
    iota_n = P.graph.artifacts.iota_n
    if nk == len(iota_n):
        return iota_n, nk
    return (iota_n[keep] if nk else EMPTY), nk
