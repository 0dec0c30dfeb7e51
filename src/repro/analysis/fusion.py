"""Fusion-safety verifier over statically recovered operator DAGs.

For every primitive enactor this pass recovers the per-iteration operator
sequence from the ``self.advance``/``self.filter``/``self.compute`` call
sites (plus raw operator calls and manual ``self._trace`` spans), binds
each operator to the functor classes it can run, and combines the
functors' effect summaries (:mod:`.effects`) into a per-primitive
verdict::

    fusable: yes | no  + blocking reasons

``fusable: yes`` is the precondition the ROADMAP-item-3 specializer needs
before inlining cond/apply into one fused kernel: every functor in the
DAG has a bounded effect summary, pure deterministic cond masks, a single
commutative reduction per written array, no plain-store/atomic mixing,
and the enactor body itself performs no inline problem-array writes
between operators (those would have to become kernels of their own).

The recovered DAG is cross-checkable against dynamic ``obs/`` span traces
(:func:`crosscheck_dag` vs ``stats.op_sequence``), and the soundness
harness (:func:`validate_soundness`) asserts static write sets ⊇ whatever
the dynamic sanitizer observed.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .effects import (FunctorSummary, ModuleEffects, _base_names,
                      analyze_module_source, enactor_method_effects)
from .linter import (_comment_suppressions, _suppressions, filter_suppressed,
                     iter_python_files)
from .rules import Violation

#: rules whose *unsuppressed* presence on a DAG functor blocks fusion
BLOCKING_RULES = frozenset({
    "GR001", "GR002", "GR006", "GR007", "GR008", "GR009", "GR010",
    "GR011", "GR012",
})

#: operator-method names traced through EnactorBase wrappers
_OPERATOR_METHODS = ("advance", "filter", "compute")

#: raw operator modules importable around the enactor wrappers
_RAW_OPERATOR_SUFFIXES = ("operators.advance", "operators.filter",
                          "operators.neighbor_reduce", "operators.compute")


def _is_enactor_class(cls: ast.ClassDef) -> bool:
    if cls.name == "EnactorBase":
        return False
    candidates = [cls.name] + _base_names(cls)
    return any(n.endswith(("Enactor", "EnactorBase")) for n in candidates)


def primitive_name_of(cls_name: str) -> str:
    """``BfsEnactor`` -> ``bfs`` (mirrors EnactorBase.primitive_name)."""
    if cls_name.endswith("Enactor"):
        cls_name = cls_name[: -len("Enactor")]
    return cls_name.lower()


# ------------------------------------------------------------------- DAG

@dataclass
class OperatorNode:
    """One statically recovered operator invocation."""

    op: str                       # advance | filter | compute | <manual op>
    label: str                    # display/trace label
    functors: List[str]           # functor class names this site can run
    method: str                   # enactor method containing the call
    line: int
    kind: str = "operator"        # "operator" | "manual"

    def as_dict(self) -> dict:
        return {"op": self.op, "label": self.label,
                "functors": sorted(self.functors), "method": self.method,
                "line": self.line, "kind": self.kind}


@dataclass
class PrimitiveReport:
    """Fusion verdict for one primitive."""

    name: str
    file: str
    enactor: Optional[str]
    hardwired: bool = False
    dag: List[OperatorNode] = field(default_factory=list)
    functors: Dict[str, FunctorSummary] = field(default_factory=dict)
    inline_writes: List[Tuple[str, str, int]] = field(default_factory=list)
    blocking: List[str] = field(default_factory=list)

    @property
    def fusable(self) -> bool:
        return not self.hardwired and not self.blocking

    def static_write_sets(self) -> Dict[str, Set[str]]:
        """functor class name -> arrays its summary may write."""
        return {name: s.write_arrays() for name, s in self.functors.items()}

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "file": self.file,
            "enactor": self.enactor,
            "hardwired": self.hardwired,
            "fusable": self.fusable,
            "blocking": list(self.blocking),
            "dag": [n.as_dict() for n in self.dag],
            "functors": {n: s.as_dict()
                         for n, s in sorted(self.functors.items())},
        }


class _EnactorScanner:
    """Recovers the operator DAG of one enactor class."""

    def __init__(self, cls: ast.ClassDef, effects: ModuleEffects):
        self.cls = cls
        self.effects = effects
        self.raw_operator_aliases = self._collect_raw_aliases()

    def _collect_raw_aliases(self) -> Dict[str, str]:
        """``from ..core.operators.advance import advance as _adv`` →
        {"_adv": "advance"} — including method-local imports."""
        aliases: Dict[str, str] = {}
        trees = [self.effects.tree] if self.effects.tree else []
        trees.append(self.cls)
        for tree in trees:
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom) or not node.module:
                    continue
                if not node.module.endswith(_RAW_OPERATOR_SUFFIXES):
                    continue
                op = node.module.rsplit(".", 1)[-1]
                for alias in node.names:
                    if alias.name == op or alias.name == "neighbor_reduce":
                        aliases[alias.asname or alias.name] = alias.name
        return aliases

    def scan(self) -> Tuple[List[OperatorNode], List[Tuple[str, str, int]]]:
        nodes: List[OperatorNode] = []
        inline_writes: List[Tuple[str, str, int]] = []
        for method in self.cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name.startswith("__") and method.name != "__call__":
                continue
            env = self._local_functor_env(method)
            for call in sorted(
                    (n for n in ast.walk(method) if isinstance(n, ast.Call)),
                    key=lambda n: (n.lineno, n.col_offset)):
                node = self._classify_call(call, method.name, env)
                if node is not None:
                    nodes.append(node)
            summary = enactor_method_effects(method, self.effects.registry)
            for w in summary.writes:
                inline_writes.append((method.name, w.array, w.line))
        nodes.sort(key=lambda n: n.line)
        return nodes, inline_writes

    # -- functor binding --------------------------------------------------

    def _functor_names(self, node: ast.AST,
                       env: Dict[str, List[str]]) -> List[str]:
        """Functor class names an argument expression can evaluate to."""
        if isinstance(node, ast.Call):
            return self._functor_names(node.func, env)
        if isinstance(node, ast.IfExp):
            return (self._functor_names(node.body, env)
                    + self._functor_names(node.orelse, env))
        if isinstance(node, ast.Name):
            if node.id in env:
                return list(env[node.id])
            if node.id in self.effects.functors:
                return [node.id]
            return ["?"]
        if isinstance(node, ast.Attribute):
            if node.attr in self.effects.functors:
                return [node.attr]
            return ["?"]
        if isinstance(node, ast.Lambda):
            return ["<lambda>"]
        return ["?"]

    def _local_functor_env(self, method: ast.FunctionDef) \
            -> Dict[str, List[str]]:
        """``fn = (A if cond else B)(x)`` / ``fn = A()`` bindings."""
        env: Dict[str, List[str]] = {}
        for node in ast.walk(method):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            names = self._functor_names(node.value, env)
            if any(n != "?" for n in names):
                env[node.targets[0].id] = [n for n in names if n != "?"]
        return env

    # -- call classification ----------------------------------------------

    def _classify_call(self, call: ast.Call, method: str,
                       env: Dict[str, List[str]]) -> Optional[OperatorNode]:
        func = call.func
        # self.advance(frontier, fn, ...) / self.filter / self.compute
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in _OPERATOR_METHODS):
            return self._operator_node(call, func.attr, method, env,
                                       functor_arg=1)
        # self._trace("label", before, after): a manually traced span
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self" and func.attr == "_trace"
                and call.args and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)):
            label = call.args[0].value
            return OperatorNode(op=label.split("(")[0], label=label,
                                functors=[], method=method,
                                line=call.lineno, kind="manual")
        # raw operator call through an import alias: _adv(P, frontier, fn)
        if isinstance(func, ast.Name) \
                and func.id in self.raw_operator_aliases:
            op = self.raw_operator_aliases[func.id]
            return self._operator_node(call, op, method, env, functor_arg=2,
                                       raw=True)
        return None

    def _operator_node(self, call: ast.Call, op: str, method: str,
                       env: Dict[str, List[str]], functor_arg: int,
                       raw: bool = False) -> OperatorNode:
        functors: List[str] = []
        arg = None
        if op == "neighbor_reduce":
            functor_arg = 1 if raw else 0
        if len(call.args) > functor_arg:
            arg = call.args[functor_arg]
        if arg is not None:
            functors = self._functor_names(arg, env)
        label = op
        if op == "filter":
            for kw in call.keywords:
                if kw.arg == "label" and isinstance(kw.value, ast.Constant):
                    label = str(kw.value.value)
        if op == "advance":
            mode = None
            for kw in call.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if isinstance(mode, ast.Constant) and mode.value == "pull":
                label = "advance_pull"
            elif mode is not None and not isinstance(mode, ast.Constant):
                label = "advance|advance_pull"   # direction decided at run time
        seen: Set[str] = set()
        uniq = [f for f in functors if not (f in seen or seen.add(f))]
        return OperatorNode(op=op, label=label, functors=uniq,
                            method=method, line=call.lineno,
                            kind="operator")


# ------------------------------------------------------------ tree report

@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` reports for a set of paths."""

    files: List[str] = field(default_factory=list)
    modules: Dict[str, ModuleEffects] = field(default_factory=dict)
    primitives: List[PrimitiveReport] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    stale: List[Tuple[str, int, str]] = field(default_factory=list)

    def primitive(self, name: str) -> PrimitiveReport:
        for p in self.primitives:
            if p.name == name:
                return p
        raise KeyError(name)


def _module_is_hardwired(tree: ast.Module, stem: str) -> bool:
    """A primitives/ module with no enactor but a ``*Result`` class is a
    hardwired primitive: its kernels never flow through the operator
    wrappers, so there is no DAG to fuse."""
    if stem in ("__init__", "result"):
        return False
    has_enactor = False
    has_result = False
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if _is_enactor_class(node):
                has_enactor = True
            if node.name.endswith("Result"):
                has_result = True
    return has_result and not has_enactor


def _blocking_reasons(report: PrimitiveReport,
                      unsuppressed: Dict[str, List[Violation]]) -> List[str]:
    reasons: List[str] = []
    if report.hardwired:
        reasons.append(
            "hardwired primitive: kernels bypass the advance/filter "
            "operator wrappers, so there is no operator DAG to fuse")
        return reasons
    for method, array, line in report.inline_writes:
        reasons.append(
            f"enactor inline write: {report.enactor}.{method} mutates "
            f"problem array '{array}' at line {line} between operators; "
            "fusion would have to hoist it into a kernel")
    dag_functors: Set[str] = set()
    for node in report.dag:
        for f in node.functors:
            if f == "?":
                reasons.append(
                    f"unresolvable functor argument at {node.op} call "
                    f"(line {node.line}); cannot bound its effects")
            elif f == "<lambda>":
                reasons.append(
                    f"lambda functor at {node.op} call (line {node.line}); "
                    "effect analysis needs a named Functor subclass")
            else:
                dag_functors.add(f)
    for fname in sorted(dag_functors):
        if fname not in report.functors:
            reasons.append(
                f"no effect summary for functor {fname}; cannot verify "
                "fusion safety")
            continue
        for v in unsuppressed.get(fname, []):
            reasons.append(
                f"{v.rule.id}[{v.rule.name}] in {fname} "
                f"(line {v.line}): {v.message}")
    return reasons


def _attribute_violations(effects: ModuleEffects,
                          violations: List[Violation]) \
        -> Dict[str, List[Violation]]:
    """Bucket violations by the functor class whose line range owns them."""
    spans: List[Tuple[int, int, str]] = []
    if effects.tree is not None:
        for node in ast.walk(effects.tree):
            if isinstance(node, ast.ClassDef) \
                    and node.name in effects.functors:
                end = getattr(node, "end_lineno", node.lineno)
                spans.append((node.lineno, end, node.name))
    out: Dict[str, List[Violation]] = {}
    for v in violations:
        for lo, hi, name in spans:
            if lo <= v.line <= hi:
                out.setdefault(name, []).append(v)
                break
    return out


def analyze_paths(paths: Sequence[str]) -> AnalysisReport:
    """Run the full effect + fusion analysis over files/directories."""
    report = AnalysisReport()
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        report.files.append(path)
        effects = analyze_module_source(source, filename=path)
        report.modules[path] = effects
        allowed = _suppressions(source)
        used: Set[tuple] = set()
        unsuppressed = filter_suppressed(effects.violations, allowed, used)
        report.violations.extend(unsuppressed)
        stale = [(line, token) for line, tokens in sorted(allowed.items())
                 for token in sorted(tokens) if (line, token) not in used]
        if stale:
            comments = _comment_suppressions(source)
            report.stale.extend((path, line, token) for line, token in stale
                                if token in comments.get(line, ()))

        blocking_by_functor = _attribute_violations(
            effects, [v for v in unsuppressed if v.rule.id in BLOCKING_RULES])

        stem = os.path.splitext(os.path.basename(path))[0]
        if effects.tree is None:
            continue
        enactors = [n for n in effects.tree.body
                    if isinstance(n, ast.ClassDef) and _is_enactor_class(n)]
        for cls in enactors:
            scanner = _EnactorScanner(cls, effects)
            dag, inline_writes = scanner.scan()
            prim = PrimitiveReport(
                name=primitive_name_of(cls.name), file=path,
                enactor=cls.name, dag=dag, inline_writes=inline_writes)
            for node in dag:
                for fname in node.functors:
                    if fname in effects.functors:
                        prim.functors[fname] = effects.functors[fname]
            prim.blocking = _blocking_reasons(prim, blocking_by_functor)
            report.primitives.append(prim)
        if not enactors and _module_is_hardwired(effects.tree, stem):
            prim = PrimitiveReport(name=stem, file=path, enactor=None,
                                   hardwired=True)
            prim.blocking = _blocking_reasons(prim, {})
            report.primitives.append(prim)

    report.primitives.sort(key=lambda p: p.name)
    report.violations.sort(
        key=lambda v: (v.file, v.line, v.rule.id, v.message))
    report.stale.sort()
    return report


# ------------------------------------------------------------ validation

def crosscheck_dag(prim: PrimitiveReport,
                   op_names: Sequence[str]) -> List[str]:
    """Dynamic span names (``stats.op_sequence``) not covered by the
    static DAG.  Empty list = the recovered DAG is complete."""
    static: Set[str] = set()
    for node in prim.dag:
        static.add(node.label)
        static.add(node.op)
        if node.op == "advance":
            static.update({"advance", "advance_pull"})
        if node.label == "advance|advance_pull":
            static.update({"advance", "advance_pull"})
    return sorted({op for op in op_names if op not in static})


def validate_soundness(prim: PrimitiveReport,
                       observed: Dict[str, Set[str]]) -> List[str]:
    """Check static write sets ⊇ sanitizer-observed write sets.

    ``observed`` maps bare functor class names to the arrays the dynamic
    sanitizer saw them touch.  Returns human-readable gap descriptions;
    empty list = the static analysis is sound for this run.
    """
    gaps: List[str] = []
    static = prim.static_write_sets()
    for functor_name, arrays in sorted(observed.items()):
        if functor_name not in static:
            if functor_name in ("AllPassFunctor",) or not arrays:
                continue
            if arrays:
                gaps.append(
                    f"{prim.name}: sanitizer observed functor "
                    f"{functor_name} (wrote {sorted(arrays)}) absent from "
                    "the static DAG")
            continue
        missing = arrays - static[functor_name]
        if missing:
            gaps.append(
                f"{prim.name}: {functor_name} dynamically wrote "
                f"{sorted(missing)} but the static write set is "
                f"{sorted(static[functor_name])}")
    return gaps
