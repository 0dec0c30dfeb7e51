"""Single-source shortest path (Sections 4.2 and 5.2, Algorithm 1).

One iteration maps onto three Gunrock steps: an *advance* that relaxes
every edge out of the frontier (``UpdateLabel``: "return new_label <
atomicMin(P.labels[d_id], new_label)" — fused cond+apply through the
atomic's return value), a *filter* that removes redundant vertex ids
(Algorithm 1's output-queue-id trick, realized here as an exact dedup
pass with the same cost shape), and the two-level *priority queue*
(near/far split, Davidson et al.) that reorganizes remaining work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import Frontier, Functor, ProblemBase, EnactorBase, NearFarPile
from ..core import atomics
from ..core.loadbalance import LoadBalancer
from ..graph.csr import Csr
from ..simt.machine import Machine
from ..simt.primitives import first_occurrence
from .result import PrimitiveResult, finish


class SsspProblem(ProblemBase):
    """Tentative distances + predecessors (Algorithm 1's problem data)."""

    def __init__(self, graph: Csr, machine: Optional[Machine] = None):
        super().__init__(graph, machine)
        # the graph's cached (read-only) float64 weights, not a fresh
        # copy per problem
        self.weights = graph.artifacts.weights64
        if np.any(self.weights < 0):
            raise ValueError("SSSP requires non-negative edge weights "
                             "(Section 4.2: Dijkstra-family methods)")
        self.add_vertex_array("labels", np.float64, np.inf)
        self.add_vertex_array("preds", np.int64, -1)

    def set_source(self, src: int) -> None:
        if not 0 <= src < self.graph.n:
            raise ValueError(f"source {src} out of range for n={self.graph.n}")
        self.labels[src] = 0.0
        self.preds[src] = src

    def unvisited_mask(self) -> np.ndarray:
        return ~np.isfinite(self.labels)


class _RelaxFunctor(Functor):
    """UpdateLabel + SetPred fused: admit destinations whose distance
    strictly improved under this super-step's atomicMin.

    SetPred runs only on the lane whose proposal *became* the new minimum
    (the lane whose atomicMin "stuck") — otherwise the predecessor chain
    would record an arbitrary improving lane and break the tree invariant
    ``dist[pred[v]] + w(pred[v], v) == dist[v]``.
    """

    def apply_edge(self, P, src, dst, eid):
        # fold the weight into the gathered labels in place (owned
        # gather result) — one fewer m-sized temporary per relax
        new_label = P.labels[src]
        np.add(new_label, P.weights[eid], out=new_label)
        won = atomics.atomic_min(P.labels, dst, new_label, P.machine)
        achieved = new_label == P.labels[dst]
        np.logical_and(won, achieved, out=achieved)
        idx = achieved.nonzero()[0]
        if len(idx):
            # one deterministic winner per destination: first lane in order
            w = idx[first_occurrence(dst[idx])]
            # first_occurrence guarantees one lane per written cell
            P.preds[dst[w]] = src[w]  # lint: allow(raw-write)
        return won


class SsspEnactor(EnactorBase):
    """advance -> filter -> priority queue, per Algorithm 1's loop."""

    def __init__(self, problem: SsspProblem, *, delta: Optional[float],
                 lb: Optional[LoadBalancer] = None,
                 max_iterations: Optional[int] = None, **resilience):
        super().__init__(problem, lb=lb, max_iterations=max_iterations,
                         **resilience)
        self.delta = delta
        self.pile: Optional[NearFarPile] = None
        if delta is not None:
            self.pile = NearFarPile(
                problem, lambda P, v: P.labels[v], delta)

    # the near/far pile carries state across super-steps, so rollback
    # recovery must checkpoint and restore it alongside the arrays
    def _enactor_state(self) -> dict:
        return {"pile": self.pile.snapshot()} if self.pile is not None else {}

    def _restore_state(self, state: dict) -> None:
        if self.pile is not None and "pile" in state:
            self.pile.restore(state["pile"])

    def _dedupe(self, frontier: Frontier) -> Frontier:
        """Exact duplicate removal, standing in for the output-queue-id
        trick (same asymptotic cost: one marking pass + one test pass)."""
        out = frontier.deduplicated(self.problem.machine)
        self._trace("filter", frontier, out)
        return out

    def _iterate(self, frontier: Frontier) -> Frontier:
        out = self.advance(frontier, _RelaxFunctor())
        out = self._dedupe(out)
        if self.pile is None:
            return out
        self.pile.push(out, self.iteration)
        near = self.pile.pop_near(self.iteration)
        self._trace("priority_queue", out, near)
        return near


@dataclass
class SsspResult(PrimitiveResult):
    """``labels``: distances (inf = unreachable); ``preds``: shortest-path
    tree predecessors."""

    @property
    def labels(self) -> np.ndarray:
        return self.arrays["labels"]

    @property
    def preds(self) -> np.ndarray:
        return self.arrays["preds"]


def default_delta(graph: Csr) -> float:
    """Davidson-style delta heuristic: average weight scaled by the
    warp-width-to-degree ratio, clamped to at least one weight unit."""
    w = graph.artifacts.weights64
    avg_w = float(w.mean()) if len(w) else 1.0
    avg_d = graph.m / max(1, graph.n)
    return max(avg_w, avg_w * 32.0 / max(1.0, avg_d))


def sssp(graph: Csr, src: int, *, machine: Optional[Machine] = None,
         delta: Optional[float] = None, use_priority_queue: bool = True,
         lb: Optional[LoadBalancer] = None,
         max_iterations: Optional[int] = None,
         checkpoint_every: Optional[int] = None, faults=None,
         retry=None) -> SsspResult:
    """Run SSSP from ``src`` on a non-negatively weighted graph.

    ``use_priority_queue=False`` disables the near/far pile (the ablation
    arm); ``delta`` overrides the split width.  ``checkpoint_every`` /
    ``faults`` / ``retry`` configure fault-tolerant execution
    (:mod:`repro.resilience`).
    """
    problem = SsspProblem(graph, machine)
    problem.set_source(src)
    if use_priority_queue and delta is None:
        delta = default_delta(graph)
    enactor = SsspEnactor(problem, delta=delta if use_priority_queue else None,
                          lb=lb, max_iterations=max_iterations,
                          checkpoint_every=checkpoint_every, faults=faults,
                          retry=retry)
    enactor.enact(Frontier.from_vertex(src))
    result = SsspResult(arrays={"labels": problem.labels,
                                "preds": problem.preds})
    return finish(result, machine, enactor)
