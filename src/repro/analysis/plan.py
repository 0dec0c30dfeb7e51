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
tier pay compilation once per graph; the analysis a plan reads is
cached per ``primitives/`` file, so a plan pays for its own module only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..graph.csr import Csr, transpose_min_edges
from .fusion import PrimitiveReport, analyze_paths, primitive_name_of
from .linter import iter_python_files


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

#: ``primitives/`` file -> the analyzer's reports for that file, filled
#: one file at a time so a plan pays only for its own module's analysis
_FILE_REPORTS: Dict[str, Dict[str, PrimitiveReport]] = {}
_PRIMITIVES_PKG = __name__.rsplit(".", 2)[0] + ".primitives"
_PRIMITIVES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "primitives")


def _file_reports(path: str) -> Dict[str, PrimitiveReport]:
    reports = _FILE_REPORTS.get(path)
    if reports is None:
        found = analyze_paths([path]).primitives if os.path.exists(path) \
            else []
        reports = _FILE_REPORTS[path] = {r.name: r for r in found}
    return reports


def _report_index() -> Dict[str, PrimitiveReport]:
    """The analyzer's primitive reports: the union of the per-file cache
    over every module of ``primitives/``."""
    index: Dict[str, PrimitiveReport] = {}
    for path in iter_python_files([_PRIMITIVES_DIR]):
        index.update(_file_reports(path))
    return index


def reset_report_cache() -> None:
    _FILE_REPORTS.clear()


def _defining_file(primitive: str) -> str:
    """The ``primitives/`` file that defines ``primitive``'s enactor class
    (``ppr`` -> ``pagerank.py``); a primitive without an imported enactor
    class, such as a hardwired one, is looked up in the module named
    after it."""
    from ..core.enactor import EnactorBase

    module = primitive
    stack = [EnactorBase]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        pkg, _, name = cls.__module__.rpartition(".")
        if pkg == _PRIMITIVES_PKG and \
                primitive_name_of(cls.__name__) == primitive:
            module = name
            break
    return os.path.join(_PRIMITIVES_DIR, module + ".py")


def plan_for(primitive: str, graph: Csr) -> FusedPlan:
    """The cached fused plan for ``(primitive, graph)``.

    Compilation happens once per pair: the verdict and stage names from
    the analysis of the one module that defines the primitive (cached
    per file for the process), the regime table from this graph's
    degree profile.  The cache lives on the graph object (a slot next to
    ``_artifacts``) so it dies with the graph.
    """
    cache = graph._fused_plans
    if cache is None:
        cache = {}
        graph._fused_plans = cache
    plan = cache.get(primitive)
    if plan is None:
        report = _file_reports(_defining_file(primitive)).get(primitive)
        plan = compile_plan(report, primitive, graph)
        cache[primitive] = plan
    return plan
