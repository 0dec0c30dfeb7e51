"""SALSA (Stochastic Approach for Link-Structure Analysis), Section 5.5.

The second who-to-follow ranking algorithm: like HITS but the pushed
scores are degree-normalized (a random walk alternating sides), which
makes the fixpoint the stationary distribution of the two-step chain.
Each iteration is two degree-normalized advances — the paper notes this
is "a 2-hop traversal in a bipartite graph" that Gunrock's advance
expresses directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Frontier, Functor, ProblemBase, EnactorBase
from ..core import atomics
from ..simt.machine import Machine
from .bipartite import BipartiteGraph
from .hits import _ReverseView
from .result import PrimitiveResult, finish


class SalsaProblem(ProblemBase):
    def __init__(self, bp: BipartiteGraph, machine: Optional[Machine] = None):
        super().__init__(bp.graph, machine)
        self.bp = bp
        self.add_vertex_array("hub", np.float64, 0.0)
        self.add_vertex_array("auth", np.float64, 0.0)
        left_deg = bp.graph.out_degrees.astype(np.float64)
        right_deg = bp.reverse.out_degrees.astype(np.float64)
        out_norm = self.add_vertex_array("out_norm", np.float64, 1.0)
        np.maximum(left_deg, 1.0, out=out_norm)
        in_norm = self.add_vertex_array("in_norm", np.float64, 1.0)
        np.maximum(right_deg, 1.0, out=in_norm)
        # start from the uniform distribution over non-isolated left nodes
        active = left_deg[:bp.n_left] > 0
        if active.any():
            self.hub[:bp.n_left][active] = 1.0 / active.sum()


class _WalkRightFunctor(Functor):
    """auth[right] += hub[left] / outdeg(left)."""

    def apply_edge(self, P, src, dst, eid):
        atomics.atomic_add(P.auth, dst, P.hub[src] / P.out_norm[src], P.machine)
        return np.zeros(len(src), dtype=bool)

    def scatter_source(self, P, f):
        # the walked value depends on the source alone: divide once per
        # frontier vertex — the same division on the same operands as
        # apply_edge, as PageRank does
        return P.auth, P.hub[f] / P.out_norm[f]


class _WalkLeftFunctor(Functor):
    """hub[left] += auth[right] / indeg(right)."""

    def apply_edge(self, P, src, dst, eid):
        atomics.atomic_add(P.hub, dst, P.auth[src] / P.in_norm[src], P.machine)
        return np.zeros(len(src), dtype=bool)

    def scatter_source(self, P, f):
        # per-source value (see _WalkRightFunctor)
        return P.hub, P.auth[f] / P.in_norm[f]


class SalsaEnactor(EnactorBase):
    def __init__(self, problem: SalsaProblem, max_iterations: int = 50,
                 tolerance: float = 1e-10):
        super().__init__(problem, max_iterations=max_iterations)
        self.tolerance = tolerance
        self.converged = False

    def _converged(self, frontier: Frontier) -> bool:
        return self.converged

    def _iterate(self, frontier: Frontier) -> Frontier:
        P: SalsaProblem = self.problem
        bp = P.bp
        prev = P.hub.copy()

        P.auth.fill(0.0)
        self.advance(Frontier(bp.left_vertices()), _WalkRightFunctor())

        P.hub.fill(0.0)
        from ..core.operators.advance import advance as _adv

        # the walk-left advance runs on the reversed view, so it bypasses
        # the traced wrapper; record it by hand with the bc-style label
        self._pre_kernel("advance")
        right = Frontier(bp.right_vertices())
        out = _adv(_ReverseView(P), right, _WalkLeftFunctor(),
                   iteration=self.iteration)
        self._trace("advance(backward)", right, out)
        self.converged = bool(np.abs(P.hub - prev).max() < self.tolerance)
        return frontier


@dataclass
class SalsaResult(PrimitiveResult):
    @property
    def hub(self) -> np.ndarray:
        return self.arrays["hub"]

    @property
    def auth(self) -> np.ndarray:
        return self.arrays["auth"]


def salsa(bp: BipartiteGraph, *, machine: Optional[Machine] = None,
          max_iterations: int = 50, tolerance: float = 1e-10) -> SalsaResult:
    """Run SALSA; hub scores (left) sum to 1 and are proportional to the
    stationary visiting frequency of the alternating random walk."""
    problem = SalsaProblem(bp, machine)
    enactor = SalsaEnactor(problem, max_iterations=max_iterations,
                           tolerance=tolerance)
    enactor.enact(Frontier(bp.left_vertices()))
    result = SalsaResult(arrays={"hub": problem.hub, "auth": problem.auth})
    return finish(result, machine, enactor)
