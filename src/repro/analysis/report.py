"""Rendering and schema validation for ``repro analyze`` reports.

The JSON form is the artifact the future fusion specializer consumes
(ROADMAP item 3), so it is deterministic by construction: sorted keys,
sorted lists, no timestamps, no absolute-path leakage beyond what the
caller passed in.  ``analyze-smoke`` CI pins byte-identity across runs.
"""

from __future__ import annotations

from typing import List

from .fusion import AnalysisReport
from .rules import RULES

#: bump when the report shape changes incompatibly
#: (v2: added fused_plans — the specializer's static compilation output)
REPORT_SCHEMA_VERSION = 2


def report_to_dict(report: AnalysisReport) -> dict:
    """Deterministic JSON-ready form of an analysis report."""
    from .plan import compile_plan

    plans = {p.name: compile_plan(p, p.name).static_dict()
             for p in report.primitives}
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "rules": {rule.id: {"name": rule.name, "summary": rule.summary}
                  for rule in sorted(RULES.values(), key=lambda r: r.id)},
        "primitives": [p.as_dict() for p in report.primitives],
        "fused_plans": plans,
        "violations": sorted(v.format() for v in report.violations),
        "stale_suppressions": [
            {"file": f, "line": line, "token": token}
            for f, line, token in report.stale],
    }


def validate_report_dict(data: dict) -> List[str]:
    """Schema check for the JSON form; returns error strings (empty =
    valid).  Deliberately hand-rolled: no jsonschema dependency."""
    errors: List[str] = []

    def need(cond: bool, msg: str) -> None:
        if not cond:
            errors.append(msg)

    need(isinstance(data, dict), "report must be an object")
    if not isinstance(data, dict):
        return errors
    need(data.get("schema_version") == REPORT_SCHEMA_VERSION,
         f"schema_version must be {REPORT_SCHEMA_VERSION}")
    need(isinstance(data.get("rules"), dict), "rules must be an object")
    for rid, rule in (data.get("rules") or {}).items():
        need(isinstance(rid, str) and rid.startswith("GR"),
             f"rule id {rid!r} must look like GRnnn")
        need(isinstance(rule, dict) and {"name", "summary"} <= set(rule),
             f"rule {rid} must carry name and summary")
    need(isinstance(data.get("violations"), list),
         "violations must be a list")
    for v in data.get("violations") or []:
        need(isinstance(v, str), "violations entries must be strings")
    need(isinstance(data.get("stale_suppressions"), list),
         "stale_suppressions must be a list")
    for s in data.get("stale_suppressions") or []:
        need(isinstance(s, dict) and {"file", "line", "token"} <= set(s),
             "stale_suppressions entries need file/line/token")
    prims = data.get("primitives")
    need(isinstance(prims, list), "primitives must be a list")
    names = []
    for p in prims or []:
        if not isinstance(p, dict):
            errors.append("primitive entries must be objects")
            continue
        for key in ("name", "file", "hardwired", "fusable", "blocking",
                    "dag", "functors"):
            need(key in p, f"primitive missing key {key!r}")
        if "name" in p:
            names.append(p["name"])
        need(isinstance(p.get("fusable"), bool),
             f"{p.get('name')}: fusable must be a bool")
        need(isinstance(p.get("blocking"), list),
             f"{p.get('name')}: blocking must be a list")
        if isinstance(p.get("fusable"), bool) \
                and isinstance(p.get("blocking"), list):
            need(p["fusable"] == (not p["blocking"]
                                  and not p.get("hardwired")),
                 f"{p.get('name')}: fusable verdict inconsistent with "
                 "blocking reasons")
        for node in p.get("dag") or []:
            need(isinstance(node, dict)
                 and {"op", "label", "functors", "method", "line",
                      "kind"} <= set(node),
                 f"{p.get('name')}: malformed dag node")
        for fname, summary in (p.get("functors") or {}).items():
            need(isinstance(summary, dict)
                 and {"idempotent", "methods"} <= set(summary),
                 f"{p.get('name')}.{fname}: malformed functor summary")
            for mname, m in (summary.get("methods") or {}).items():
                need(isinstance(m, dict)
                     and {"reads", "writes", "pure",
                          "deterministic"} <= set(m),
                     f"{p.get('name')}.{fname}.{mname}: malformed "
                     "method summary")
    need(names == sorted(names), "primitives must be sorted by name")
    plans = data.get("fused_plans")
    need(isinstance(plans, dict), "fused_plans must be an object")
    for pname, plan in (plans if isinstance(plans, dict) else {}).items():
        if not isinstance(plan, dict):
            errors.append(f"fused_plans[{pname}] must be an object")
            continue
        for key in ("primitive", "fusable", "blocked", "stages",
                    "atomic_lowerings"):
            need(key in plan, f"fused_plans[{pname}] missing key {key!r}")
        need(plan.get("primitive") == pname,
             f"fused_plans[{pname}]: primitive field mismatch")
        need(isinstance(plan.get("fusable"), bool),
             f"fused_plans[{pname}]: fusable must be a bool")
        if isinstance(plan.get("fusable"), bool) \
                and isinstance(plan.get("blocked"), list):
            need(plan["fusable"] == (not plan["blocked"]),
                 f"fused_plans[{pname}]: fusable verdict inconsistent "
                 "with blocked reasons")
        for stage in plan.get("stages") or []:
            need(isinstance(stage, dict)
                 and {"name", "op", "functors", "cond_mask", "apply_mask",
                      "atomics"} <= set(stage),
                 f"fused_plans[{pname}]: malformed stage")
            for mask in ("cond_mask", "apply_mask"):
                need(stage.get(mask) in ("known_true", "known_false",
                                         "dynamic"),
                     f"fused_plans[{pname}]: {mask} must be "
                     "known_true/known_false/dynamic")
    if isinstance(plans, dict) and isinstance(prims, list):
        need(sorted(plans) == sorted(names),
             "fused_plans must cover exactly the analyzed primitives")
    return errors


def render_text(report: AnalysisReport) -> str:
    """Human-readable per-primitive effect report."""
    lines: List[str] = []
    for p in report.primitives:
        verdict = "yes" if p.fusable else "no"
        head = f"{p.name}: fusable: {verdict}"
        if p.enactor:
            head += f"  ({p.enactor}, {p.file})"
        else:
            head += f"  (hardwired, {p.file})"
        lines.append(head)
        for node in p.dag:
            functors = ", ".join(node.functors) if node.functors else "-"
            marker = "~" if node.kind == "manual" else "*"
            lines.append(f"  {marker} {node.label:<24} [{functors}]  "
                         f"{node.method}:{node.line}")
        for name in sorted(p.functors):
            s = p.functors[name]
            writes = []
            for arr, slot in sorted(s.write_kinds().items()):
                kinds = "+".join(sorted(slot["kinds"]))
                ops = ",".join(sorted(slot["ops"]))
                writes.append(f"{arr}({kinds}{':' + ops if ops else ''})")
            lines.append(f"    {name}: reads={sorted(s.reads())} "
                         f"writes=[{', '.join(writes)}]"
                         f"{' idempotent' if s.idempotent else ''}")
        for reason in p.blocking:
            lines.append(f"  ! {reason}")
        lines.append("")
    if report.violations:
        lines.append("violations:")
        for v in report.violations:
            lines.append(f"  {v.format()}")
        lines.append("")
    if report.stale:
        lines.append("stale suppressions:")
        for f, line, token in report.stale:
            lines.append(f"  {f}:{line}: allow({token}) no longer "
                         "suppresses anything")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(report: AnalysisReport) -> str:
    """Recovered operator DAGs as one Graphviz digraph, one cluster per
    primitive, operators chained in recovered program order."""
    lines = ["digraph operator_dags {",
             "  rankdir=LR;",
             "  node [shape=box, fontsize=10];"]
    for idx, p in enumerate(report.primitives):
        color = "palegreen" if p.fusable else "mistyrose"
        lines.append(f"  subgraph cluster_{idx} {{")
        verdict = "fusable" if p.fusable else "blocked"
        lines.append(f'    label="{_dot_escape(p.name)} [{verdict}]";')
        lines.append(f"    style=filled; fillcolor={color};")
        if p.hardwired:
            lines.append(f'    "{p.name}_hardwired" '
                         f'[label="hardwired kernels", style=dashed];')
        prev = None
        for j, node in enumerate(p.dag):
            nid = f"{p.name}_{j}"
            functors = "\\n".join(_dot_escape(f) for f in node.functors)
            shape = ", style=dashed" if node.kind == "manual" else ""
            label = _dot_escape(node.label)
            if functors:
                label += f"\\n{functors}"
            lines.append(f'    "{nid}" [label="{label}"{shape}];')
            if prev is not None:
                lines.append(f'    "{prev}" -> "{nid}";')
            prev = nid
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
