"""Fused plans: what the fused engine reads of a primitive's verdict.

The fusion verifier (:mod:`repro.analysis.fusion`) proves, per
primitive, that the operator DAG's functors obey the BSP contract and
are safe to fuse.  This module turns that verdict into a
:class:`FusedPlan`, the record the fused engine (:mod:`repro.core.fused`)
reads before it hands a run to a hand-lowered runner:

* ``fusable`` and ``blocked`` — the verdict and its reasons, exactly
  :attr:`PrimitiveReport.fusable` and :attr:`PrimitiveReport.blocking`
  (the engine refuses with the reasons);
* ``stages`` — the DAG's ``op:label`` names (the engine span's
  ``fused_ops`` / ``stage_count``);
* ``regimes`` — the per-graph :class:`RegimeTable` of thresholds the
  runners branch on, learned once from the graph's degree profile.

Plans are cached per ``(primitive, graph)`` on the graph object itself
(one slot next to the artifact cache), so repeated runs and the serving
tier pay compilation once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..graph.csr import Csr, transpose_min_edges
from .fusion import PrimitiveReport, analyze_paths


@dataclass(frozen=True)
class RegimeTable:
    """Per-graph load-balance thresholds, learned from the degree profile.

    ``coarse_edges``: below this frontier edge volume the BFS runner
    keeps the dense repeat for kept-lane source mapping; above it the
    ``searchsorted`` segment lookup wins (the repeat's O(edges) scatter
    dominates once hub bursts inflate lanes past the kept count).
    ``spmv_min_edges``: minimum edge volume for the PageRank runner's
    transpose-product segmented sum to beat ``bincount``
    (:func:`repro.graph.csr.transpose_min_edges`, which the library
    advance reads too).
    """

    coarse_edges: int
    spmv_min_edges: int

    @classmethod
    def learn(cls, graph: Csr) -> "RegimeTable":
        # searchsorted pays one log(frontier) probe per *kept* lane; the
        # repeat pays one write per *expanded* lane.  The crossover
        # scales with how hub-heavy the expansion can get — calibrated
        # on the bench grid, floor 4096 so tiny frontiers never probe.
        avg = graph.m / max(1, graph.n)
        return cls(coarse_edges=max(4096, int(64 * avg)),
                   spmv_min_edges=transpose_min_edges(graph.m))


@dataclass
class FusedPlan:
    """One primitive's fusion verdict as the fused engine reads it."""

    fusable: bool
    blocked: List[str] = field(default_factory=list)
    stages: List[str] = field(default_factory=list)
    regimes: Optional[RegimeTable] = None


def compile_plan(report: Optional[PrimitiveReport], primitive: str,
                 graph: Optional[Csr] = None) -> FusedPlan:
    """The :class:`FusedPlan` of one primitive's verified DAG.

    With ``report=None`` (primitive unknown to the analyzer) or a
    non-fusable verdict the plan carries the blocking reasons and the
    engine falls back to pooled execution.  ``graph=None`` leaves
    ``regimes`` unset (what ``repro analyze --plan`` prints).
    """
    if report is None:
        return FusedPlan(fusable=False,
                         blocked=[f"no analysis report for '{primitive}'"])
    return FusedPlan(
        fusable=report.fusable,
        blocked=list(report.blocking),
        stages=[f"{node.op}:{node.label}" for node in report.dag],
        regimes=None if graph is None else RegimeTable.learn(graph))


# ------------------------------------------------------------ plan cache

_REPORTS: Optional[Dict[str, PrimitiveReport]] = None


def _report_index() -> Dict[str, PrimitiveReport]:
    """The analyzer's primitive reports, computed once per process."""
    global _REPORTS
    if _REPORTS is None:
        import os
        pkg = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        report = analyze_paths([os.path.join(pkg, "primitives")])
        _REPORTS = {r.name: r for r in report.primitives}
    return _REPORTS


def reset_report_cache() -> None:
    global _REPORTS
    _REPORTS = None


def plan_for(primitive: str, graph: Csr) -> FusedPlan:
    """The cached fused plan for ``(primitive, graph)``.

    Compilation happens once per pair: the verdict and stage names from
    the process-wide analysis report, the regime table from this graph's
    degree profile.  The cache lives on the graph object (a slot next to
    ``_artifacts``) so it dies with the graph.
    """
    cache = graph._fused_plans
    if cache is None:
        cache = {}
        graph._fused_plans = cache
    plan = cache.get(primitive)
    if plan is None:
        plan = compile_plan(_report_index().get(primitive), primitive, graph)
        cache[primitive] = plan
    return plan
