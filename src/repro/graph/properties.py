"""Graph property measurement: degree statistics and diameter estimates.

Used to verify that the synthetic dataset twins match the structural
statistics the paper quotes in Table 1 and Section 6 (max degree, degree
quantiles, diameter class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .csr import Csr, row_lanes


@dataclass
class GraphStats:
    """Structural summary of a graph (Table 1 columns and then some)."""

    n: int
    m: int
    max_degree: int
    avg_degree: float
    pseudo_diameter: int
    frac_degree_lt_4: float
    frac_degree_lt_128: float
    n_components: int
    largest_component_frac: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "vertices": self.n,
            "edges": self.m,
            "max_degree": self.max_degree,
            "avg_degree": self.avg_degree,
            "pseudo_diameter": self.pseudo_diameter,
            "frac_degree_lt_4": self.frac_degree_lt_4,
            "frac_degree_lt_128": self.frac_degree_lt_128,
            "n_components": self.n_components,
            "largest_component_frac": self.largest_component_frac,
        }


def _bfs_levels(g: Csr, source: int) -> np.ndarray:
    """Plain level-synchronous BFS used for diameter probing (no machine)."""
    depth = np.full(g.n, -1, dtype=np.int64)
    depth[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        degs = g.degrees_of(frontier)
        total = int(degs.sum())
        if total == 0:
            break
        nbrs = g.indices[row_lanes(g.indptr, frontier, degs, total)[1]]
        fresh = nbrs[depth[nbrs] < 0]
        if len(fresh) == 0:
            break
        fresh = np.unique(fresh)
        depth[fresh] = level
        frontier = fresh
    return depth


def pseudo_diameter(g: Csr, seed: int = 0, sweeps: int = 4) -> int:
    """Double-sweep BFS lower bound on the diameter.

    Repeatedly BFS from the farthest vertex found so far; the best
    eccentricity seen is a (usually tight) diameter lower bound.
    """
    if g.n == 0:
        return 0
    rng = np.random.default_rng(seed)
    v = int(rng.integers(0, g.n))
    best = 0
    for _ in range(sweeps):
        depth = _bfs_levels(g, v)
        reached = depth >= 0
        ecc = int(depth[reached].max()) if reached.any() else 0
        if ecc <= best:
            break
        best = ecc
        v = int(np.argmax(np.where(reached, depth, -1)))
    return best


def connected_components_count(g: Csr) -> tuple[int, float]:
    """(number of weakly connected components, largest component fraction)."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as scc

    if g.n == 0:
        return 0, 0.0
    mat = sp.csr_matrix((np.ones(g.m, dtype=np.int8), g.indices, g.indptr),
                        shape=(g.n, g.n))
    k, labels = scc(mat, directed=True, connection="weak")
    sizes = np.bincount(labels)
    return int(k), float(sizes.max() / g.n)


def stats(g: Csr, seed: int = 0) -> GraphStats:
    """Compute the full structural summary used by the Table 1 bench."""
    deg = g.out_degrees
    ncomp, largest = connected_components_count(g)
    return GraphStats(
        n=g.n,
        m=g.m,
        max_degree=int(deg.max()) if g.n else 0,
        avg_degree=float(deg.mean()) if g.n else 0.0,
        pseudo_diameter=pseudo_diameter(g, seed=seed),
        frac_degree_lt_4=float((deg < 4).mean()) if g.n else 0.0,
        frac_degree_lt_128=float((deg < 128).mean()) if g.n else 0.0,
        n_components=ncomp,
        largest_component_frac=largest,
    )


def degree_quantiles(g: Csr, qs=(0.5, 0.9, 0.99)) -> Dict[float, float]:
    """Selected degree-distribution quantiles."""
    deg = g.out_degrees
    if g.n == 0:
        return {q: 0.0 for q in qs}
    return {q: float(np.quantile(deg, q)) for q in qs}
