"""The compute operator (Section 4.1).

"A programmer-specified computation step defines an operation on all
elements (vertices or edges) in the current frontier; Gunrock then
performs that operation in parallel across all elements."  Regular
parallelism: one map kernel (or zero, when fused into a neighboring
advance/filter by the caller's fusion scope).
"""

from __future__ import annotations

import numpy as np

from ...analysis.sanitizer import kernel_scope
from ...graph.csr import is_true_mask
from ...obs.spans import CAT_OPERATOR, span as obs_span
from ...simt import calib
from ..frontier import Frontier, FrontierKind
from ..functor import Functor, resolve_masks
from ..problem import ProblemBase


def compute(problem: ProblemBase, frontier: Frontier, functor: Functor,
            *, iteration: int = -1) -> Frontier:
    """Apply the functor's ``apply`` to every frontier element.

    Returns the input frontier unchanged (compute never reshapes it) so
    enactors can chain steps fluently.
    """
    machine = problem.machine
    items = frontier.items
    sp = obs_span("compute", CAT_OPERATOR, machine, iteration=iteration,
                  frontier=len(items))
    with sp:
        if len(items):
            with kernel_scope("compute", problem, functor):
                if frontier.kind is FrontierKind.VERTEX:
                    functor.apply_vertex(problem, items)
                else:
                    g = problem.graph
                    functor.apply_edge(problem,
                                       g.edge_sources[items],
                                       g.indices[items],
                                       items)
        if machine is not None:
            machine.map_kernel("compute", len(items), calib.C_VERTEX,
                               iteration=iteration)
            machine.counters.record_vertices(len(items))
    return frontier


def compute_masked(problem: ProblemBase, frontier: Frontier, functor: Functor,
                   *, iteration: int = -1) -> Frontier:
    """Compute variant whose ``apply`` may drop elements (returned mask).

    Handy for "compute the degree distribution"-style single steps that
    both transform state and shrink the frontier.
    """
    machine = problem.machine
    items = frontier.items
    if len(items) == 0:
        return frontier
    fname = type(functor).__name__
    sp = obs_span("compute", CAT_OPERATOR, machine, iteration=iteration,
                  frontier=len(items))
    with sp:
        with kernel_scope("compute", problem, functor):
            if frontier.kind is FrontierKind.VERTEX:
                mask = functor.apply_vertex(problem, items)
                keep = resolve_masks(len(items), mask,
                                     where=f"{fname}.apply_vertex")
            else:
                g = problem.graph
                mask = functor.apply_edge(problem,
                                          g.edge_sources[items],
                                          g.indices[items],
                                          items)
                keep = resolve_masks(len(items), mask,
                                     where=f"{fname}.apply_edge")
        if machine is not None:
            machine.map_kernel("compute", len(items), calib.C_VERTEX,
                               iteration=iteration)
            machine.counters.record_vertices(len(items))
        out = items if is_true_mask(keep) else items[keep]
        if sp.enabled:
            sp.set(frontier_out=len(out))
    return Frontier(out, frontier.kind)
