"""Streaming graph mutations: delta-CSR storage + incremental repair.

The journal Gunrock paper frames every primitive as frontier
reactivation from changed state — the exact mechanism an incremental
engine needs.  This package supplies:

* :mod:`repro.dynamic.delta` — :class:`DeltaCsr` (frozen base CSR +
  a write-only mutation overlay that materializes each version as an
  immutable snapshot CSR, deterministic compaction), the
  :class:`MutationBatch` API, and the cache-retention rule;
* :mod:`repro.dynamic.incremental` — delta-BFS/SSSP (seed the frontier
  from damaged endpoints, re-relax only the affected region) and
  warm-restart residual-push PageRank, each reading the snapshot CSR
  and pinned against a from-scratch run on it.

The serving tier (:mod:`repro.serve`) wires these in behind
``repro serve --updates --incremental``.
"""

from __future__ import annotations

from .delta import (DeltaCsr, GraphUpdate, MutationBatch,
                    REPAIRABLE_PRIMITIVES, WEIGHT_INSENSITIVE,
                    random_mutation_batch, unaffected_primitives)
from .incremental import (delta_bfs, delta_sssp, incremental_pagerank,
                          repair_payload)

__all__ = [
    "DeltaCsr", "GraphUpdate", "MutationBatch",
    "REPAIRABLE_PRIMITIVES", "WEIGHT_INSENSITIVE",
    "random_mutation_batch", "unaffected_primitives",
    "delta_bfs", "delta_sssp", "incremental_pagerank", "repair_payload",
]
