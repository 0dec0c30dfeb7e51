"""Betweenness centrality (Section 5.3), Brandes's two-pass formulation.

"The first phase has an advance step identical to the original BFS and a
computation step that computes the number of shortest paths from source
to each vertex.  The second phase uses an advance step to iterate over
the BFS frontier backwards with a computation step to compute the
dependency scores."

Forward: level-synchronous BFS where every edge crossing into the next
level accumulates path counts (sigma) with ``atomicAdd``.  Backward: the
per-level frontiers are replayed in reverse; each edge (v at level d,
w at level d+1) adds ``sigma[v]/sigma[w] * (1 + delta[w])`` into
``delta[v]``.

When the forward ran fused (the default engine), the backward replays
the lanes the fused forward recorded per level
(:func:`repro.core.fused.run_bc_backward`) instead of re-expanding each
level through the library ``advance``; the pooled loop, the la
fallback, a sanitizer or a fault injector keep the library backward,
which is the oracle the replay is held bitwise equal to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from ..core import Frontier, Functor, ProblemBase, EnactorBase
from ..core import atomics
from ..core.loadbalance import LoadBalancer
from ..graph.csr import Csr
from ..simt.machine import Machine
from .result import PrimitiveResult, finish


class BcProblem(ProblemBase):
    """Depths, path counts (sigma), dependencies (delta), BC scores."""

    def __init__(self, graph: Csr, machine: Optional[Machine] = None):
        super().__init__(graph, machine)
        self.add_vertex_array("labels", np.int64, -1)
        self.add_vertex_array("sigma", np.float64, 0.0)
        self.add_vertex_array("delta", np.float64, 0.0)
        self.add_vertex_array("bc_values", np.float64, 0.0)

    def reset_source(self, src: int) -> None:
        self.labels.fill(-1)
        self.sigma.fill(0.0)
        self.delta.fill(0.0)
        self.labels[src] = 0
        self.sigma[src] = 1.0

    def unvisited_mask(self) -> np.ndarray:
        return self.labels < 0


class _ForwardFunctor(Functor):
    """BFS advance + sigma accumulation, fused.

    BSP semantics make this exact: every edge whose destination was
    undiscovered at the start of the super-step contributes its source's
    sigma, which is precisely "number of shortest paths via this edge".
    """

    def __init__(self, depth: int):
        self.depth = depth

    def cond_edge(self, P, src, dst, eid):
        return P.labels[dst] < 0

    def apply_edge(self, P, src, dst, eid):
        atomics.atomic_add(P.sigma, dst, P.sigma[src], P.machine)
        # claim the depth through an atomic, as real Gunrock's BC does with
        # atomicCAS: duplicate lanes race on labels[dst] otherwise
        atomics.atomic_max(P.labels, dst,
                           np.full(len(dst), self.depth, dtype=np.int64),
                           P.machine)
        return None


class _BackwardFunctor(Functor):
    """Dependency accumulation along (level d) -> (level d+1) edges."""

    def cond_edge(self, P, src, dst, eid):
        return P.labels[dst] == P.labels[src] + 1

    def apply_edge(self, P, src, dst, eid):
        contrib = P.sigma[src] / P.sigma[dst] * (1.0 + P.delta[dst])
        atomics.atomic_add(P.delta, src, contrib, P.machine)
        # backward advance only updates state; no new frontier grows from it
        return np.zeros(len(src), dtype=bool)


class BcEnactor(EnactorBase):
    """Forward BFS (stacking level frontiers), then reverse replay."""

    def __init__(self, problem: BcProblem, *, lb: Optional[LoadBalancer] = None,
                 max_iterations: Optional[int] = None):
        super().__init__(problem, lb=lb, max_iterations=max_iterations)
        self.level_frontiers: List[Frontier] = []
        #: per replayed level, the lanes a fused forward kept (None when
        #: the forward ran the library loop)
        self.level_lanes: Optional[list] = None

    def _iterate(self, frontier: Frontier) -> Frontier:
        depth = self.iteration + 1
        out = self.advance(frontier, _ForwardFunctor(depth))
        out = out.deduplicated(self.problem.machine)
        self._trace("filter", out, out)
        if not out.is_empty:
            self.level_frontiers.append(out)
        return out

    def backward(self) -> None:
        """Replay levels deepest-first, accumulating dependencies: the
        fused forward's recorded lanes when it ran, else one library
        advance per level."""
        if self.level_lanes is not None:
            from ..core.fused import run_bc_backward
            run_bc_backward(self)
            return
        for frontier in reversed(self.level_frontiers):
            self.advance(frontier, _BackwardFunctor())
            self.iteration += 1


@dataclass
class BcResult(PrimitiveResult):
    """``bc_values``: centrality scores; ``sigma``/``labels`` from the
    last processed source."""

    @property
    def bc_values(self) -> np.ndarray:
        return self.arrays["bc_values"]

    @property
    def sigma(self) -> np.ndarray:
        return self.arrays["sigma"]

    @property
    def labels(self) -> np.ndarray:
        return self.arrays["labels"]


def bc(graph: Csr, sources: Union[int, Sequence[int], None] = 0, *,
       machine: Optional[Machine] = None, lb: Optional[LoadBalancer] = None,
       normalize: bool = False,
       max_iterations: Optional[int] = None) -> BcResult:
    """Betweenness centrality.

    ``sources`` may be a single vertex (the paper's per-source timing
    convention), an iterable of sources (approximate BC), or ``None`` for
    exact BC over all vertices.  Scores follow Brandes: each source adds
    ``delta`` to every vertex except itself; for undirected graphs the
    caller conventionally halves the totals (``normalize=True`` does
    that plus the standard (n-1)(n-2) scaling).
    """
    if sources is None:
        source_list: Iterable[int] = range(graph.n)
    elif isinstance(sources, (int, np.integer)):
        source_list = [int(sources)]
    else:
        source_list = [int(s) for s in sources]

    problem = BcProblem(graph, machine)
    enactor = BcEnactor(problem, lb=lb, max_iterations=max_iterations)
    for src in source_list:
        if not 0 <= src < graph.n:
            raise ValueError(f"source {src} out of range for n={graph.n}")
        problem.reset_source(src)
        enactor.level_frontiers = []
        enactor.enact(Frontier.from_vertex(src))
        enactor.backward()
        # the source's level is never replayed, so delta[src] is +0.0 and
        # adding it leaves bc_values[src] bitwise as it was
        np.add(problem.bc_values, problem.delta, out=problem.bc_values)

    if normalize and graph.n > 2:
        problem.bc_values *= 1.0 / ((graph.n - 1) * (graph.n - 2))

    result = BcResult(arrays={"bc_values": problem.bc_values,
                              "sigma": problem.sigma,
                              "labels": problem.labels})
    return finish(result, machine, enactor)
