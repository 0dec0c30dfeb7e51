"""Breadth-first search (Section 5.1).

"BFS initializes its vertex frontier with a single source vertex.  On
each iteration, it generates a new frontier of vertices with all
unvisited neighbor vertices in the current frontier, setting their depths
and repeating until all vertices have been visited."

Two operating modes, as in the paper:

* **idempotent** (Gunrock's fastest BFS): advance admits every edge whose
  destination was unvisited at the start of the super-step — no atomics —
  so the output frontier carries duplicates; filter's cheap heuristics
  (warp cull + history cull) strip most of them and correctness is
  unaffected because setting the same depth twice is harmless.
* **non-idempotent**: an ``atomicCAS`` claim guarantees unique discovery;
  costs atomic traffic but the frontier is duplicate-free.

Direction optimization (push/pull, Section 4.1.1) plugs in through a
:class:`~repro.core.direction.DirectionOptimizer` policy object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..core import (Frontier, Functor, IdempotenceHeuristics, ProblemBase,
                    EnactorBase)
from ..core.direction import DirectionOptimizer, FixedDirection
from ..core.loadbalance import LoadBalancer
from ..core.superstep import bfs_direction
from ..core import atomics
from ..graph.csr import Csr
from ..simt.machine import Machine
from .result import PrimitiveResult, finish

DirectionPolicy = Union[DirectionOptimizer, FixedDirection]


class BfsProblem(ProblemBase):
    """Per-vertex depth labels and predecessors (+ claim flags)."""

    #: any same-level parent is a valid predecessor — the sanitizer must
    #: not flag the lane-order-dependent choice (real GPUs behave the same)
    relaxed_arrays = frozenset({"preds"})

    def __init__(self, graph: Csr, machine: Optional[Machine] = None,
                 record_preds: bool = True):
        super().__init__(graph, machine)
        self.add_vertex_array("labels", np.int64, -1)
        self.record_preds = record_preds
        if record_preds:
            self.add_vertex_array("preds", np.int64, -1)
        self.add_vertex_array("visited", bool, False)
        self.num_unvisited = graph.n

    def set_source(self, src: int) -> None:
        if not 0 <= src < self.graph.n:
            raise ValueError(f"source {src} out of range for n={self.graph.n}")
        self.labels[src] = 0
        self.visited[src] = True
        if self.record_preds:
            self.preds[src] = src
        self.num_unvisited = self.graph.n - 1

    def unvisited_mask(self) -> np.ndarray:
        return self.labels < 0

    def snapshot_state(self) -> dict:
        return {"num_unvisited": self.num_unvisited}

    def restore_state(self, state: dict) -> None:
        if "num_unvisited" in state:
            self.num_unvisited = int(state["num_unvisited"])


class _IdempotentBfsFunctor(Functor):
    """No-atomics BFS step: label every not-yet-visited destination."""

    idempotent = True

    def __init__(self, depth: int):
        self.depth = depth

    def cond_edge(self, P, src, dst, eid):
        return P.labels[dst] < 0

    def apply_edge(self, P, src, dst, eid):
        # duplicate lanes all store the same depth, harmless by idempotence
        P.labels[dst] = self.depth  # lint: allow(raw-write)
        if P.record_preds:
            # any same-level parent is valid (relaxed array)
            P.preds[dst] = src  # lint: allow(raw-write)
        return None


class _AtomicBfsFunctor(Functor):
    """CAS-claimed BFS step: unique discovery, duplicate-free frontier."""

    idempotent = False

    def __init__(self, depth: int):
        self.depth = depth

    def cond_edge(self, P, src, dst, eid):
        return P.labels[dst] < 0

    def apply_edge(self, P, src, dst, eid):
        won = atomics.atomic_cas_claim(P.visited, dst, P.machine)
        w = dst[won]
        # CAS winners are unique cells: each is written by exactly one lane
        P.labels[w] = self.depth  # lint: allow(raw-write)
        if P.record_preds:
            P.preds[w] = src[won]  # lint: allow(raw-write)
        return won


class BfsEnactor(EnactorBase):
    """One advance + one filter per super-step, direction-optimized."""

    def __init__(self, problem: BfsProblem, *, idempotent: bool = True,
                 direction: Optional[DirectionPolicy] = None,
                 lb: Optional[LoadBalancer] = None,
                 max_iterations: Optional[int] = None, **resilience):
        super().__init__(problem, lb=lb, max_iterations=max_iterations,
                         **resilience)
        self.idempotent = idempotent
        self.direction = direction if direction is not None else FixedDirection("push")
        self.heuristics = IdempotenceHeuristics() if idempotent else None
        # the no-atomics BFS step may be re-applied harmlessly, so a
        # transient fault before its first kernel replays restore-free
        self.idempotent_replay = idempotent

    def _iterate(self, frontier: Frontier) -> Frontier:
        P: BfsProblem = self.problem
        depth = self.iteration + 1
        fn = (_IdempotentBfsFunctor if self.idempotent else _AtomicBfsFunctor)(depth)
        mode, _, _ = bfs_direction(self.direction, P, frontier.items)
        out = self.advance(frontier, fn, mode=mode)
        return self.filter(out, fn, heuristics=self.heuristics)


@dataclass
class BfsResult(PrimitiveResult):
    """BFS outputs: ``labels`` (depth, -1 unreachable), ``preds``."""

    @property
    def labels(self) -> np.ndarray:
        return self.arrays["labels"]

    @property
    def preds(self) -> Optional[np.ndarray]:
        return self.arrays.get("preds")


def bfs(graph: Csr, src: int, *, machine: Optional[Machine] = None,
        idempotent: bool = True, direction: str = "auto",
        lb: Optional[LoadBalancer] = None, record_preds: bool = True,
        max_iterations: Optional[int] = None,
        checkpoint_every: Optional[int] = None, faults=None,
        retry=None) -> BfsResult:
    """Run BFS from ``src``.

    Parameters
    ----------
    direction:
        ``"auto"`` (Beamer-style direction optimization), ``"push"``, or
        ``"pull"``.
    idempotent:
        Use the atomics-free advance + cheap-dedup filter (the paper's
        fastest configuration).
    checkpoint_every / faults / retry:
        Fault-tolerant execution (:mod:`repro.resilience`): snapshot
        interval in super-steps, a ``FaultPlan``/``FaultInjector``, and
        the retry policy for recoverable faults.
    """
    policy: DirectionPolicy
    if direction == "auto":
        policy = DirectionOptimizer()
    else:
        policy = FixedDirection(direction)
    problem = BfsProblem(graph, machine, record_preds=record_preds)
    problem.set_source(src)
    enactor = BfsEnactor(problem, idempotent=idempotent, direction=policy,
                         lb=lb, max_iterations=max_iterations,
                         checkpoint_every=checkpoint_every, faults=faults,
                         retry=retry)
    enactor.enact(Frontier.from_vertex(src))
    result = BfsResult(arrays={"labels": problem.labels})
    if record_preds:
        result.arrays["preds"] = problem.preds
    return finish(result, machine, enactor)
