"""Connected component labeling (Section 5.4), Soman et al.'s algorithm.

Two PRAM phases alternate until a fixpoint:

* **hooking** — "Gunrock uses a filter operator on an edge frontier ...
  one end vertex of each edge in the frontier tries to assign its
  component ID to the other vertex, and the filter step removes the edge
  whose two end vertices have the same component ID."  Odd iterations
  hook the higher component id onto the lower, even iterations the
  reverse (Soman's convergence-rate trick).
* **pointer jumping** — "a filter operator on vertices assigns the
  component ID of each vertex to its parent's component ID until it
  reaches the root", collapsing trees into stars.

The loop runs hooking to a fixpoint (edge frontier empty), interleaving a
full pointer-jump after each hook so hooks always apply to roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Frontier, Functor, ProblemBase, EnactorBase
from ..core import atomics
from ..core.loadbalance import LoadBalancer
from ..graph.csr import Csr
from ..simt.machine import Machine
from ..simt.primitives import unique_by_sort
from .result import PrimitiveResult, finish


class CcProblem(ProblemBase):
    """Component ids (the PRAM parent pointers)."""

    def __init__(self, graph: Csr, machine: Optional[Machine] = None):
        super().__init__(graph, machine)
        self.add_vertex_array("component_ids", np.int64, 0)
        self.component_ids[:] = np.arange(graph.n, dtype=np.int64)


class _HookFunctorBase(Functor):
    """One hooking round over an edge frontier.

    Soman et al. alternate which endpoint writes (lower-to-higher on odd
    iterations, higher-to-lower on even) with racy plain stores.  Under
    our deterministic BSP atomics that literal alternation ping-pongs on a
    star of components (the hub root's id flips between the minimum and
    maximum every round, so each round collides on a single cell and
    merges exactly one pair).  We therefore hook *monotonically* — the
    larger root under the smaller via ``atomicMin`` — which is the
    Shiloach-Vishkin-style variant with the same per-round cost and
    provably geometric convergence; ``alternate=True`` keeps the paper's
    literal schedule for the ablation benchmark.

    The direction choice is made per super-step by the *enactor*, not
    inside the functor: a fused kernel needs a single
    commutative+associative reduction per array (GR011), so each hook
    variant commits to exactly one atomic op, and the barrier between
    super-steps sequences the min- and max-rounds of the alternate
    schedule.
    """

    def cond_edge(self, P, src, dst, eid):
        # drop edges already inside one component
        return P.component_ids[src] != P.component_ids[dst]


class _HookMinFunctor(_HookFunctorBase):
    """Monotonic hook: larger root under the smaller (the default)."""

    def apply_edge(self, P, src, dst, eid):
        cid_s = P.component_ids[src]
        cid_d = P.component_ids[dst]
        hi = np.maximum(cid_s, cid_d)
        lo = np.minimum(cid_s, cid_d)
        atomics.atomic_min(P.component_ids, hi, lo, P.machine)
        return None  # surviving edges stay in the frontier


class _HookMaxFunctor(_HookFunctorBase):
    """Reverse hook: smaller root under the larger (the alternate
    schedule's even rounds)."""

    def apply_edge(self, P, src, dst, eid):
        cid_s = P.component_ids[src]
        cid_d = P.component_ids[dst]
        hi = np.maximum(cid_s, cid_d)
        lo = np.minimum(cid_s, cid_d)
        atomics.atomic_max(P.component_ids, lo, hi, P.machine)
        return None  # surviving edges stay in the frontier


class _JumpFunctor(Functor):
    """One pointer-jumping round over a vertex frontier."""

    def apply_vertex(self, P, v):
        parent = P.component_ids[v]
        grand = P.component_ids[parent]
        # filter lanes are unique vertex ids: one writer per cell
        P.component_ids[v] = grand  # lint: allow(raw-write)
        return grand != parent  # keep vertices still climbing


class CcEnactor(EnactorBase):
    """hook (edge filter) + jump-to-stars (vertex filter loop)."""

    def __init__(self, problem, *, alternate: bool = False, **kwargs):
        super().__init__(problem, **kwargs)
        self.alternate = alternate

    def _iterate(self, frontier: Frontier) -> Frontier:
        odd = (self.iteration % 2) == 0  # first round is "odd" in the paper
        fn = (_HookMaxFunctor if self.alternate and not odd
              else _HookMinFunctor)()
        out = self.filter(frontier, fn, label="filter(hook)")
        self._pointer_jump()
        return out

    def _pointer_jump(self) -> None:
        vf = Frontier.all_vertices(self.problem.graph.n)
        while not vf.is_empty:
            vf = self.filter(vf, _JumpFunctor(), label="filter(jump)")


@dataclass
class CcResult(PrimitiveResult):
    @property
    def component_ids(self) -> np.ndarray:
        return self.arrays["component_ids"]

    @property
    def num_components(self) -> int:
        return len(unique_by_sort(self.component_ids))


def cc(graph: Csr, *, machine: Optional[Machine] = None,
       lb: Optional[LoadBalancer] = None, alternate: bool = False,
       max_iterations: Optional[int] = None) -> CcResult:
    """Label connected components (weak connectivity on directed input,
    matching the paper's symmetrized datasets).

    ``alternate=True`` uses Soman's literal odd/even hooking schedule (see
    :class:`_HookFunctorBase` for why the monotonic default converges
    faster under deterministic atomics).
    """
    problem = CcProblem(graph, machine)
    enactor = CcEnactor(problem, lb=lb, alternate=alternate,
                        max_iterations=max_iterations)
    enactor.enact(Frontier.all_edges(graph.m))
    result = CcResult(arrays={"component_ids": problem.component_ids})
    return finish(result, machine, enactor)
