"""Synthetic twins of the paper's datasets (Table 1).

The paper evaluates on four graphs whose *structure* — not identity —
drives every experiment:

================  ========  ======  ==========  ========  =====================
dataset           vertices  edges   max degree  diameter  character
================  ========  ======  ==========  ========  =====================
soc-LiveJournal1  4.8M      68.9M   20333       16        scale-free, 90% deg<128
bitcoin           6.3M      28M     565991      1041      one huge hub, 94% deg<4
kron_g500-logn20  1M        44.6M   131503      6         synthetic scale-free
roadNet-CA        2M        5.5M    12          849       small even degree
================  ========  ======  ==========  ========  =====================

We regenerate each topology class with seeded generators at a default
scale ~1/64 of the original vertex counts, so the whole Table 2 matrix
runs in seconds in CI.  ``scale=1.0`` asks for paper-sized graphs (slow in
pure Python but supported).  The proportions (edge factor, hub fraction,
grid aspect) match the originals, so degree-distribution shape and
diameter class are preserved — which is what the load-balancing and
direction-optimization experiments actually exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from . import generators
from .csr import Csr

#: default linear down-scale of vertex counts relative to the paper
DEFAULT_SCALE = 1.0 / 64.0


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry: a short name, its paper row, and a builder."""

    name: str
    paper_vertices: int
    paper_edges: int
    paper_max_degree: int
    paper_diameter: int
    build: Callable[[float, int], Csr]
    description: str


def _soc(scale: float, seed: int) -> Csr:
    n = max(256, int(4_847_571 * scale))
    # 68.9M edges over 4.8M vertices = avg out-degree ~14.2
    return generators.powerlaw_cluster(n, avg_degree=14.2, exponent=2.15,
                                       max_degree=max(32, int(20333 * scale * 4)),
                                       seed=seed)


def _bitcoin(scale: float, seed: int) -> Csr:
    import math

    n = max(256, int(6_300_000 * scale))
    # hub degree 565991/6.3M ~ 9% of vertices.  The paper's diameter (1041
    # ~ 0.41 sqrt(n)) scales as sqrt(n), like road networks — this keeps
    # the edges-per-BFS-level ratio (what the GPU actually sees) faithful
    # at reduced scale.
    diameter = max(32, int(1041 * math.sqrt(scale)))
    return generators.hub_graph(n, hub_degree=max(8, int(n * 0.09)),
                                diameter=diameter, extra_edge_factor=0.35,
                                seed=seed)


def _kron(scale: float, seed: int) -> Csr:
    # paper: 2**20 vertices; scale the exponent by log2 of the ratio
    import math

    target = max(256, int((1 << 20) * scale))
    logn = max(8, int(round(math.log2(target))))
    return generators.kronecker(logn, edge_factor=22, seed=seed)


def _roadnet(scale: float, seed: int) -> Csr:
    n = max(256, int(1_965_206 * scale))
    # roadNet-CA is roughly isotropic; a wide grid gives the huge diameter
    import math

    width = max(16, int(math.sqrt(n) * 2.2))
    height = max(4, n // width)
    return generators.road_grid(width, height, drop_prob=0.06, diag_prob=0.02,
                                seed=seed)


REGISTRY: Dict[str, DatasetSpec] = {
    "soc": DatasetSpec(
        "soc", 4_847_571, 68_993_773, 20333, 16, _soc,
        "soc-LiveJournal1 twin: scale-free, short diameter, 90% deg<128"),
    "bitcoin": DatasetSpec(
        "bitcoin", 6_300_000, 28_000_000, 565991, 1041, _bitcoin,
        "bitcoin twin: one ~0.5M-degree hub, 94% deg<4, diameter>1000"),
    "kron": DatasetSpec(
        "kron", 1 << 20, 44_620_272, 131503, 6, _kron,
        "kron_g500-logn20 twin: Graph500 R-MAT, extremely skewed"),
    "roadnet": DatasetSpec(
        "roadnet", 1_965_206, 5_533_214, 12, 849, _roadnet,
        "roadNet-CA twin: small even degree, huge diameter"),
}

#: dataset order used throughout the paper's tables
TABLE_ORDER: List[str] = ["soc", "bitcoin", "kron", "roadnet"]


def load(name: str, scale: float = DEFAULT_SCALE, seed: int = 42) -> Csr:
    """Build the named dataset twin at the given linear scale."""
    try:
        spec = REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(REGISTRY)}")
    return spec.build(scale, seed)


def kron_scalability_series(min_logn: int = 11, max_logn: int = 15,
                            seed: int = 42) -> Dict[str, Csr]:
    """The Table 3 sweep: kron graphs of doubling size.

    The paper uses logn 17..21; the default here is shifted down by 6 to
    match :data:`DEFAULT_SCALE` (pass larger bounds to go paper-sized).
    """
    return {f"kron_g500-logn{k}": generators.kronecker(k, edge_factor=22, seed=seed)
            for k in range(min_logn, max_logn + 1)}
