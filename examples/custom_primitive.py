#!/usr/bin/env python3
"""Writing a NEW graph primitive against the public API.

The paper's programmability claim: "programmers can assemble complex and
high-performance graph primitives from operations that manipulate the
frontier without knowledge of their internals", in ~150 lines.  This
example builds a primitive the library does not ship — **k-hop reachability
with per-hop attenuation** (an influence/diffusion score used in viral-
marketing models): every vertex reachable within k hops of the seeds gets
a score of decay^depth summed over all shortest-path arrivals.

It needs exactly the three Gunrock pieces: a Problem (state), a Functor
(per-edge computation), and an Enactor (advance + filter per hop).

Run:  python examples/custom_primitive.py
"""

import numpy as np

from repro.core import (EnactorBase, Frontier, Functor, IdempotenceHeuristics,
                        ProblemBase)
from repro.core import atomics
from repro.graph import generators
from repro.simt import Machine


# ---- 1. the Problem: algorithm state as registered SoA arrays --------------

class InfluenceProblem(ProblemBase):
    """Per-vertex influence score and visit depth."""

    def __init__(self, graph, seeds, decay=0.5, machine=None):
        super().__init__(graph, machine)
        self.decay = decay
        self.add_vertex_array("depth", np.int64, -1)
        self.add_vertex_array("score", np.float64, 0.0)
        seeds = np.asarray(seeds, dtype=np.int64)
        self.depth[seeds] = 0
        self.score[seeds] = 1.0
        self.seeds = seeds


# ---- 2. the Functor: what happens on every traversed edge ------------------

class InfluenceFunctor(Functor):
    """Push decayed influence to unvisited neighbors.  A vertex may be
    scored by several same-depth parents — that is the semantics — so the
    score accumulates through ``atomic_add`` and the functor must not
    declare ``idempotent = True``: a duplicate apply would double-count."""

    def __init__(self, depth):
        self.depth = depth

    def cond_edge(self, P, src, dst, eid):
        # only expand into vertices not reached at a shallower depth
        return P.depth[dst] < 0

    def apply_edge(self, P, src, dst, eid):
        # duplicate lanes all store the same depth, so the race is benign
        P.depth[dst] = self.depth  # lint: allow(raw-write)
        atomics.atomic_add(P.score, dst,
                           P.score[src] * P.decay / np.maximum(
                               1, P.graph.out_degrees[src]),
                           P.machine)
        return None

    def cond_vertex(self, P, v):
        # filter keeps only first-time discoveries for the next frontier
        return P.depth[v] == P.depth[v]  # all pass; heuristics dedupe


# ---- 3. the Enactor: the bulk-synchronous loop ------------------------------

class InfluenceEnactor(EnactorBase):
    def __init__(self, problem, k_hops, **kw):
        super().__init__(problem, max_iterations=k_hops, **kw)
        self.heuristics = IdempotenceHeuristics()

    def _iterate(self, frontier):
        fn = InfluenceFunctor(self.iteration + 1)
        out = self.advance(frontier, fn)
        return self.filter(out, fn, heuristics=self.heuristics)


def influence(graph, seeds, k_hops=3, decay=0.5, machine=None):
    """Public driver, in the style of the shipped primitives."""
    problem = InfluenceProblem(graph, seeds, decay, machine)
    enactor = InfluenceEnactor(problem, k_hops)
    enactor.enact(Frontier(np.asarray(seeds, dtype=np.int64)))
    return problem


def main():
    g = generators.powerlaw_cluster(5000, avg_degree=12, seed=3)
    machine = Machine()
    seeds = [0, 1, 2]
    P = influence(g, seeds, k_hops=3, decay=0.5, machine=machine)

    reached = int((P.depth >= 0).sum())
    top = np.argsort(-P.score)[:5]
    print(f"influence from seeds {seeds} over 3 hops:")
    print(f"  reached {reached}/{g.n} vertices")
    print(f"  top influenced: {top.tolist()}")
    print(f"  scores: {np.round(P.score[top], 4).tolist()}")
    print(f"  simulated GPU time: {machine.elapsed_ms():.3f} ms "
          f"({machine.counters.kernel_launches} kernels)")

    # the whole primitive above is ~60 lines — the paper quotes 133-261
    # lines for its shipped primitives in CUDA.


if __name__ == "__main__":
    main()
