"""Trace-guided fusion plans: specialize a verified operator DAG.

The fusion verifier (:mod:`repro.analysis.fusion`) proves, per
primitive, that the operator DAG's functors obey the BSP contract and
are safe to fuse.  This module consumes that verdict — plus the functor
effect summaries (:mod:`repro.analysis.effects`) — and compiles it into
a :class:`FusedPlan`: the IR the fused execution engine
(:mod:`repro.core.fused`) interprets.

A plan has two halves:

* a **static** half derived purely from the analysis report — the fused
  super-step *stages* (each one advance/filter/manual operator folded
  into a single vectorized pass), the constant-folded mask shortcuts
  (``known_true`` masks skip the compaction scan, ``known_false`` masks
  skip frontier materialization), and the atomic lowerings (which
  ``atomic_*`` reductions the specializer replaces with plain
  ``bincount`` / winner-lane ``minimum.at`` / direct stores);
* a **per-graph** half learned once from the graph's artifact cache
  degree profile — the :class:`RegimeTable` of load-balance thresholds
  (when to map kept lanes back through ``searchsorted`` vs a dense
  repeat, when the push->pull flip can even trigger, when the transpose
  product beats a segmented ``bincount``).

Plans are cached per ``(primitive, graph)`` on the graph object itself
(one slot next to the artifact cache), so repeated runs and the serving
tier pay compilation once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph.csr import Csr, transpose_min_edges
from .fusion import PrimitiveReport, analyze_paths

#: ops whose functor mask decides the *output frontier*, per DAG op kind
_MASK_OF = {"advance": "apply_edge", "filter": "apply_vertex",
            "compute": "apply_vertex"}

#: atomic reduction -> the bitwise-identical sequential lowering the
#: fused engine substitutes (DESIGN §15 has the proofs)
ATOMIC_LOWERINGS = {
    "add": "segmented_sum",      # bincount / transpose product into zeros
    "min": "winner_lane_fold",   # minimum.at over improving lanes only
    "max": "winner_lane_fold",
    "cas": "first_occurrence",   # stable first claim per cell
}


@dataclass(frozen=True)
class FusedStage:
    """One fused super-step stage: a DAG operator inlined into the loop."""

    name: str                    # stage label, e.g. "advance:relax"
    op: str                      # source operator kind (advance/filter/...)
    functors: Tuple[str, ...]    # functor classes folded into the stage
    cond_mask: str               # known_true | known_false | dynamic
    apply_mask: str              # survivor mask of the apply method
    atomics: Tuple[str, ...]     # atomic ops lowered inside the stage
    line: int = 0

    def as_dict(self) -> dict:
        return {"name": self.name, "op": self.op,
                "functors": list(self.functors),
                "cond_mask": self.cond_mask, "apply_mask": self.apply_mask,
                "atomics": list(self.atomics), "line": self.line}


@dataclass(frozen=True)
class RegimeTable:
    """Per-graph load-balance thresholds, learned from the degree profile.

    ``coarse_edges``: below this frontier edge volume the specializer
    keeps the dense repeat for kept-lane source mapping; above it the
    ``searchsorted`` segment lookup wins (the repeat's O(edges) scatter
    dominates once hub bursts inflate lanes past the kept count).
    ``beta_cut``: frontier size below which the direction optimizer's
    push->pull flip is statically impossible, so per-step frontier
    statistics are skipped.  ``spmv_min_edges``: minimum edge volume for
    the transpose-product segmented sum to beat ``bincount``
    (:func:`repro.graph.csr.transpose_min_edges`, which the library
    advance reads too).
    """

    n: int
    m: int
    avg_degree: float
    max_degree: int
    coarse_edges: int
    beta_cut: float
    spmv_min_edges: int

    @classmethod
    def learn(cls, graph: Csr, *, beta: float = 18.0) -> "RegimeTable":
        degs = graph.artifacts.out_degrees
        n, m = graph.n, graph.m
        avg = m / max(1, n)
        mx = int(degs.max()) if n else 0
        # searchsorted pays one log(frontier) probe per *kept* lane; the
        # repeat pays one write per *expanded* lane.  The crossover
        # scales with how hub-heavy the expansion can get — calibrated
        # on the bench grid, floor 4096 so tiny frontiers never probe.
        coarse = max(4096, int(64 * avg))
        return cls(n=n, m=m, avg_degree=avg, max_degree=mx,
                   coarse_edges=coarse, beta_cut=n / beta,
                   spmv_min_edges=transpose_min_edges(m))

    def as_dict(self) -> dict:
        return {"n": self.n, "m": self.m,
                "avg_degree": round(self.avg_degree, 3),
                "max_degree": self.max_degree,
                "coarse_edges": self.coarse_edges,
                "beta_cut": self.beta_cut,
                "spmv_min_edges": self.spmv_min_edges}


@dataclass
class FusedPlan:
    """The compiled specialization of one primitive's operator DAG."""

    primitive: str
    fusable: bool
    blocked: List[str] = field(default_factory=list)
    stages: List[FusedStage] = field(default_factory=list)
    atomic_lowerings: Dict[str, str] = field(default_factory=dict)
    regimes: Optional[RegimeTable] = None

    def static_dict(self) -> dict:
        """Graph-independent half (what ``analyze --json`` serializes)."""
        return {"primitive": self.primitive, "fusable": self.fusable,
                "blocked": list(self.blocked),
                "stages": [s.as_dict() for s in self.stages],
                "atomic_lowerings": dict(sorted(self.atomic_lowerings.items()))}

    def as_dict(self) -> dict:
        out = self.static_dict()
        out["regimes"] = self.regimes.as_dict() if self.regimes else None
        return out


# ------------------------------------------------------------ compilation

def _mask_of(report: PrimitiveReport, functors: Tuple[str, ...],
             method: str, *, default: str) -> str:
    """Join a mask verdict across every functor a site can dispatch to."""
    verdicts = set()
    for fname in functors:
        summary = report.functors.get(fname)
        if summary is None:
            return "dynamic"
        ms = summary.methods.get(method)
        verdicts.add(default if ms is None else ms.mask_return)
    if not verdicts:
        return default
    if len(verdicts) == 1:
        return verdicts.pop()
    return "dynamic"


def _stage_atomics(report: PrimitiveReport,
                   functors: Tuple[str, ...]) -> Tuple[str, ...]:
    ops = set()
    for fname in functors:
        summary = report.functors.get(fname)
        if summary is None:
            continue
        for slot in summary.write_kinds().values():
            if "atomic" in slot["kinds"]:
                ops |= slot["ops"]
    return tuple(sorted(ops))


def compile_plan(report: Optional[PrimitiveReport], primitive: str,
                 graph: Optional[Csr] = None) -> FusedPlan:
    """Lower one primitive's verified DAG into a :class:`FusedPlan`.

    With ``report=None`` (primitive unknown to the analyzer) or a
    non-fusable verdict the plan carries the blocking reasons and the
    engine falls back to pooled execution.  ``graph=None`` compiles only
    the static half (what the analyze report serializes).
    """
    if report is None:
        return FusedPlan(primitive=primitive, fusable=False,
                         blocked=[f"no analysis report for '{primitive}'"])
    blocked: List[str] = []
    if report.hardwired:
        blocked.append("hardwired primitive: bypasses the operator layer")
    blocked.extend(report.blocking)
    stages: List[FusedStage] = []
    lowerings: Dict[str, str] = {}
    for node in report.dag:
        functors = tuple(sorted(node.functors))
        cond_method = "cond_edge" if node.op == "advance" else "cond_vertex"
        apply_method = _MASK_OF.get(node.op, "apply_vertex")
        # a missing cond_* resolves to a None mask: every lane passes
        cond = _mask_of(report, functors, cond_method, default="known_true")
        keep = _mask_of(report, functors, apply_method, default="known_true")
        atomics = _stage_atomics(report, functors)
        for op in atomics:
            lowerings[op] = ATOMIC_LOWERINGS.get(op, "sequential_replay")
        stages.append(FusedStage(
            name=f"{node.op}:{node.label}", op=node.op, functors=functors,
            cond_mask=cond, apply_mask=keep, atomics=atomics,
            line=node.line))
    plan = FusedPlan(primitive=primitive, fusable=report.fusable and not blocked,
                     blocked=blocked, stages=stages,
                     atomic_lowerings=lowerings)
    if graph is not None:
        plan.regimes = RegimeTable.learn(graph)
    return plan


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

    Compilation happens once per pair: the static half from the
    process-wide analysis report, the regime table from this graph's
    artifact cache.  The cache lives on the graph object (a slot next to
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


def static_plans() -> Dict[str, FusedPlan]:
    """Graph-independent plans for every analyzed primitive (report v2)."""
    return {name: compile_plan(rep, name)
            for name, rep in sorted(_report_index().items())}
