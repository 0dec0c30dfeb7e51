"""PageRank (Section 5.5).

"In Gunrock, we begin with a frontier that contains all vertices in the
graph and end when all vertices have converged.  Each iteration contains
one advance operator to compute the PageRank value on the frontier of
vertices, and one filter operator to remove the vertices whose PageRanks
have already converged.  We accumulate PageRank values with AtomicAdd
operations."

We use the residual ("delta-push") formulation, which fits that operator
skeleton exactly *and* stays correct as the frontier shrinks: every
vertex carries a residual; an advance scatters ``damping * residual/deg``
to neighbors with ``atomicAdd``; a filter commits received residuals into
ranks and keeps only vertices whose residual still exceeds the tolerance.
The converged fixpoint is the solution of ``r = (1-d)/n + d M r`` — true
PageRank — because ``rank = (1-d)/n * sum_t (dM)^t 1`` telescopes the
power series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..core import Frontier, Functor, ProblemBase, EnactorBase
from ..core import atomics
from ..core.loadbalance import LoadBalancer
from ..graph.csr import Csr
from ..simt.machine import Machine
from .result import PrimitiveResult, finish


class PagerankProblem(ProblemBase):
    """Rank accumulators and residuals."""

    def __init__(self, graph: Csr, machine: Optional[Machine] = None,
                 damping: float = 0.85, tolerance: Optional[float] = None):
        super().__init__(graph, machine)
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        n = max(1, graph.n)
        self.damping = damping
        #: per-vertex convergence threshold; the paper-era Gunrock default
        #: is 0.01 / |V| on the rank delta
        self.tolerance = (0.01 / n) if tolerance is None else tolerance
        base = (1.0 - damping) / n
        self.add_vertex_array("rank", np.float64, base)
        self.add_vertex_array("residual", np.float64, base)
        self.add_vertex_array("residual_next", np.float64, 0.0)
        # degrees as float once; zero-degree vertices scatter nothing
        deg = self.add_vertex_array("degrees", np.float64, 0.0)
        np.maximum(graph.out_degrees, 1, out=deg)


class _DistributeFunctor(Functor):
    """advance: scatter ``damping * residual/degree`` along out-edges."""

    def apply_edge(self, P, src, dst, eid):
        # damping * residual / degree, folded in place on the gathered
        # values (float multiply is commutative bitwise).  The advance
        # exists for its atomicAdd side effect; the next frontier is
        # re-derived by the filter over all vertices, so admit nothing.
        vals = P.residual[src]
        np.multiply(vals, P.damping, out=vals)
        np.divide(vals, P.degrees[src], out=vals)
        atomics.atomic_add(P.residual_next, dst, vals, P.machine)
        return P.workspace.false_mask(len(src))

    def scatter_source(self, P, f):
        # the scattered value is a function of the source vertex alone:
        # damping * residual / degree once per frontier vertex, the same
        # float ops on the same values as apply_edge's per-lane ones
        contrib = P.residual[f]
        np.multiply(contrib, P.damping, out=contrib)
        np.divide(contrib, P.degrees[f], out=contrib)
        return P.residual_next, contrib


class _CommitFunctor(Functor):
    """filter: fold received residual into rank; keep unconverged."""

    def apply_vertex(self, P, v):
        from ..analysis.sanitizer import current_sanitizer

        if current_sanitizer() is None and v is P.graph.artifacts.iota_n:
            # the all-vertices commit is a straight elementwise pass —
            # identical values to the fancy-indexed path below, minus
            # the gather/scatter copies.  (Disabled under the sanitizer,
            # which must observe routed per-cell writes.)
            # elementwise all-vertices pass: one lane per cell, bitwise
            # equal to the routed path below
            res = P.residual_next.copy()
            np.add(P.rank, res, out=P.rank)  # lint: allow(GR009): 1 lane/cell
            np.copyto(P.residual, res)  # lint: allow(GR009): one lane/cell
            P.residual_next.fill(0.0)  # lint: allow(GR009): one lane/cell
            return res > P.tolerance
        # filter lanes are unique vertex ids: no two lanes share a cell
        res = P.residual_next[v]
        P.rank[v] += res  # lint: allow(raw-write)
        P.residual[v] = res  # lint: allow(raw-write)
        P.residual_next[v] = 0.0  # lint: allow(raw-write)
        return res > P.tolerance


class PagerankEnactor(EnactorBase):
    """advance (scatter) + filter (commit & cull) per super-step.

    The filter runs over the full vertex range: converged vertices may be
    re-activated when enough new residual reaches them, so the commit
    pass must see everyone (its cost is the O(n) scan Gunrock's PR filter
    also pays, since PR's frontier starts at all vertices).
    """

    def _iterate(self, frontier: Frontier) -> Frontier:
        self.advance(frontier, _DistributeFunctor())
        return self.filter(_all_vertices(self.problem), _CommitFunctor())


def _all_vertices(P: PagerankProblem) -> Frontier:
    """The per-iteration full-range filter frontier: the graph's cached
    read-only iota ramp, so no ``arange(n)`` is built per super-step and
    the identity lets the operators take their all-vertices fast paths.
    """
    return Frontier(P.graph.artifacts.iota_n)


class GatherPagerankEnactor(EnactorBase):
    """Section 7's gather-reduce PageRank: instead of scattering residual
    with atomicAdd, every vertex *pulls* its neighbors' residuals through
    the neighbor-reduce operator (a segmented reduction — no atomics, no
    contention).  "We believe a new gather-reduce operator on
    neighborhoods ... will significantly improve performance on this
    operation."  The ablation benchmark quantifies that belief.
    """

    def _iterate(self, frontier: Frontier) -> Frontier:
        from ..core.operators.neighbor_reduce import neighbor_reduce

        P: PagerankProblem = self.problem
        g = P.graph
        # gather over the REVERSE graph: v pulls residual/deg from its
        # in-neighbors (symmetric graphs make csc == csr topology-wise)
        rev = g.csc

        class _View:
            graph = rev
            machine = P.machine
            workspace = P.workspace

        all_v = Frontier(rev.artifacts.iota_n)
        gathered = neighbor_reduce(
            _View(), all_v,
            lambda _, s, d, e: P.damping * P.residual[d] / P.degrees[d],
            op="sum", lb=self.lb, iteration=self.iteration)
        self._trace("neighbor_reduce", all_v, all_v)
        P.residual_next[:] = gathered
        out = self.filter(all_v, _CommitFunctor())
        return out


def pagerank_gather(graph: Csr, *, machine: Optional[Machine] = None,
                    damping: float = 0.85, tolerance: Optional[float] = None,
                    max_iterations: Optional[int] = 1000) -> "PagerankResult":
    """PageRank via the Section 7 gather-reduce operator (atomics-free).

    Same fixpoint as :func:`pagerank` (all residual is gathered every
    iteration, so convergence follows the same schedule); the simulated
    cost differs — that delta is the future-work claim, measured in
    ``benchmarks/bench_ablation_gather_reduce.py``.
    """
    problem = PagerankProblem(graph, machine, damping=damping,
                              tolerance=tolerance)
    enactor = GatherPagerankEnactor(problem, max_iterations=max_iterations)
    enactor.enact(Frontier.all_vertices(graph.n))
    result = PagerankResult(arrays={"rank": problem.rank})
    return finish(result, machine, enactor)


@dataclass
class PagerankResult(PrimitiveResult):
    @property
    def rank(self) -> np.ndarray:
        return self.arrays["rank"]

    def normalized(self) -> np.ndarray:
        """Ranks rescaled to sum to 1 (NetworkX's convention)."""
        total = self.rank.sum()
        return self.rank / total if total > 0 else self.rank


def pagerank(graph: Csr, *, machine: Optional[Machine] = None,
             damping: float = 0.85, tolerance: Optional[float] = None,
             lb: Optional[LoadBalancer] = None,
             max_iterations: Optional[int] = 1000,
             checkpoint_every: Optional[int] = None, faults=None,
             retry=None) -> PagerankResult:
    """Run PageRank to convergence (or ``max_iterations=1`` for the
    single-iteration timing the paper bolds against Ligra).

    Zero-out-degree vertices retain their mass rather than redistributing
    it (the convention of the GPU frameworks the paper compares against).
    The paper's datasets are symmetrized, so none arise there.
    ``checkpoint_every`` / ``faults`` / ``retry`` configure
    fault-tolerant execution (:mod:`repro.resilience`).
    """
    problem = PagerankProblem(graph, machine, damping=damping,
                              tolerance=tolerance)
    enactor = PagerankEnactor(problem, lb=lb, max_iterations=max_iterations,
                              checkpoint_every=checkpoint_every,
                              faults=faults, retry=retry)
    enactor.enact(Frontier.all_vertices(graph.n))
    result = PagerankResult(arrays={"rank": problem.rank})
    return finish(result, machine, enactor)


# ------------------------------------------------- personalized PageRank
#
# Section 5.5's third who-to-follow ranker: the same operator skeleton and
# the same two functors, with the teleport vector concentrated on a seed
# set (the user's circle of trust) — the residual push starts at the seeds
# and converges to the personalized stationary distribution.
# :mod:`repro.primitives.ppr` re-exports these names.

class PprProblem(PagerankProblem):
    """PageRank state with the teleport mass spread over ``seeds`` only."""

    def __init__(self, graph: Csr, seeds: np.ndarray,
                 machine: Optional[Machine] = None, damping: float = 0.85,
                 tolerance: Optional[float] = None):
        if len(seeds) == 0:
            raise ValueError("personalized PageRank needs at least one seed")
        super().__init__(graph, machine, damping=damping, tolerance=tolerance)
        base = (1.0 - damping) / len(seeds)
        for arr in (self.rank, self.residual):
            arr.fill(0.0)
            arr[seeds] = base
        self.seeds = seeds


class PprEnactor(EnactorBase):
    def _iterate(self, frontier: Frontier) -> Frontier:
        self.advance(frontier, _DistributeFunctor())
        return self.filter(_all_vertices(self.problem), _CommitFunctor())


@dataclass
class PprResult(PrimitiveResult):
    @property
    def rank(self) -> np.ndarray:
        return self.arrays["rank"]

    def top(self, k: int, exclude: Optional[np.ndarray] = None) -> np.ndarray:
        """Top-k vertices by personalized rank (optionally excluding the
        seed set — the 'already followed' filter in who-to-follow)."""
        rank = self.rank.copy()
        if exclude is not None:
            rank[np.asarray(exclude, dtype=np.int64)] = -np.inf
        order = np.argsort(-rank, kind="stable")
        return order[:k]


def ppr(graph: Csr, seeds: Union[int, Sequence[int]], *,
        machine: Optional[Machine] = None, damping: float = 0.85,
        tolerance: Optional[float] = None,
        max_iterations: int = 1000) -> PprResult:
    """Personalized PageRank from a seed vertex or seed set."""
    if isinstance(seeds, (int, np.integer)):
        seeds = [int(seeds)]
    seed_arr = np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64)
    if len(seed_arr) and (seed_arr.min() < 0 or seed_arr.max() >= graph.n):
        raise ValueError("seed out of range")
    problem = PprProblem(graph, seed_arr, machine, damping=damping,
                         tolerance=tolerance)
    enactor = PprEnactor(problem, max_iterations=max_iterations)
    enactor.enact(Frontier(seed_arr))
    result = PprResult(arrays={"rank": problem.rank})
    return finish(result, machine, enactor)
