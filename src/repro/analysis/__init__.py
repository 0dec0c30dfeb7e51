"""Functor sanitizer: static BSP-contract analysis + dynamic race detector.

Two cooperating halves police the contract Gunrock documents but never
checks (Sections 4.1.1 and 4.3): functors fused into advance/filter
kernels must read only pre-kernel state, route concurrent writes through
:mod:`repro.core.atomics`, and declare ``idempotent = True`` only when
duplicate applies are harmless.

* :mod:`.effects` — the one static pass: abstract interpretation of each
  functor body into an effect summary, from which every rule GR001–GR012
  (:mod:`.rules`) is read.
* :func:`lint_paths` / ``python -m repro lint`` — that pass's violations,
  filtered by ``# lint: allow(...)`` comments.
* :func:`analyze_paths` / ``python -m repro analyze`` — the same list plus
  a fusion-safety verdict per primitive over the statically recovered
  operator DAG (:mod:`.fusion`), rendered by :mod:`.report`.
* :func:`sanitize` / ``python -m repro run --sanitize`` — runtime kernel
  instrumentation that snapshots problem arrays, tracks write-sets, and
  reports write-write conflicts and read-after-write hazards.
"""

from .effects import (ArraySpec, FunctorSummary, MethodSummary,
                      ModuleEffects, WriteEvent, analyze_file,
                      analyze_module_source, summarize_functor_class)
from .fusion import (AnalysisReport, OperatorNode, PrimitiveReport,
                     analyze_paths, crosscheck_dag, validate_soundness)
from .linter import lint_file, lint_paths, lint_source
from .report import (REPORT_SCHEMA_VERSION, render_dot, render_text,
                     report_to_dict, validate_report_dict)
from .rules import RULES, RULES_BY_ID, Rule, Violation
from .sanitizer import (RaceError, RaceReport, Sanitizer, TrackedArray,
                        current_sanitizer, kernel_scope, sanitize)

__all__ = [
    "lint_file", "lint_paths", "lint_source",
    "RULES", "RULES_BY_ID", "Rule", "Violation",
    "RaceError", "RaceReport", "Sanitizer", "TrackedArray",
    "current_sanitizer", "kernel_scope", "sanitize",
    "ArraySpec", "FunctorSummary", "MethodSummary", "ModuleEffects",
    "WriteEvent", "analyze_file", "analyze_module_source",
    "summarize_functor_class",
    "AnalysisReport", "OperatorNode", "PrimitiveReport", "analyze_paths",
    "crosscheck_dag", "validate_soundness",
    "REPORT_SCHEMA_VERSION", "render_dot", "render_text",
    "report_to_dict", "validate_report_dict",
]
