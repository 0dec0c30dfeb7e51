"""Static effect analysis over functor methods (DESIGN §12).

An AST-level abstract interpreter over :class:`~repro.core.functor.Functor`
subclasses.  For every ``cond_*``/``apply_*`` body it computes an **effect
summary**:

* the read set and write set over registered problem arrays, following
  attribute/subscript dataflow through local aliases with numpy's actual
  semantics — ``x = P.labels`` aliases, ``x = P.labels[a:b]`` is a view
  alias, but ``x = P.labels[idx]`` with a fancy index is a *copy* and
  writes through it are private;
* the write **kind** per array — plain ``store``, ``augstore`` (``+=``),
  ``inplace`` (ufunc ``out=`` / ``np.copyto`` / ``.fill()``), ``scatter``
  (``np.ufunc.at``), or ``atomic`` with the specific reduction op;
* a **dtype lattice** inferred from ``add_vertex_array``/``add_edge_array``
  registration sites, flagging narrowing stores;
* mask **purity** of ``cond_*`` (no writes, allowlisted calls only);
* **determinism** (no calls into np.random/random/time/uuid/...).

The summaries drive rules GR006–GR012 and feed the fusion-safety verifier
(:mod:`repro.analysis.fusion`).  The write sets are deliberately
over-approximate: soundness (static write set ⊇ anything the dynamic
sanitizer ever observes) is what the fusion compiler needs, and is pinned
by ``tests/test_analysis_fusion.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .linter import (FUNCTOR_METHODS, _is_functor_class, _is_problem_class,
                     collect_source_violations)
from .rules import RULES, Violation

#: repro.core.atomics entry points and their reduction ops
ATOMIC_WRITERS: Dict[str, str] = {
    "atomic_min": "min", "atomic_max": "max", "atomic_add": "add",
    "atomic_cas_claim": "cas", "atomic_exch_gather": "exch",
}

#: reduction ops that commute and associate (fusable); ``exch`` is
#: last-lane-wins and therefore order-dependent
COMMUTATIVE_OPS = frozenset({"min", "max", "add", "cas"})

#: reduction ops that accumulate (unsound under ``idempotent = True``)
ACCUMULATING_OPS = frozenset({"add"})

#: plain (non-atomic) write kinds
PLAIN_KINDS = frozenset({"store", "augstore", "inplace", "scatter"})

#: dtype lattice: a store is *narrowing* when the value's level exceeds
#: the target array's level (bool < ints-by-width < floats-by-width)
DTYPE_LEVELS: Dict[str, int] = {
    "bool": 0, "bool_": 0,
    "int8": 10, "uint8": 10, "int16": 20, "uint16": 20,
    "int32": 30, "uint32": 30, "intp": 40, "int64": 40, "uint64": 40,
    "int": 40, "float32": 50, "float64": 60, "float": 60, "double": 60,
}

#: numpy array methods that mutate their receiver in place
_MUTATING_METHODS = frozenset({"fill", "sort", "partition", "put"})

#: numpy module functions whose first argument is mutated in place
_NP_INPLACE_FIRST_ARG = frozenset({"copyto", "putmask", "place", "put"})

#: call roots that are always nondeterministic
_NONDET_ROOTS = frozenset({"random", "time", "uuid", "secrets", "os"})
_NONDET_NAMES = frozenset({"id", "hash", "input", "perf_counter",
                           "monotonic", "getrandbits"})

#: bare-name builtins allowed inside functor bodies (all deterministic)
_ALLOWED_BUILTINS = frozenset({
    "len", "int", "float", "bool", "abs", "min", "max", "sum", "range",
    "enumerate", "zip", "isinstance", "sorted", "tuple", "list", "set",
    "dict", "frozenset", "slice", "divmod", "round", "all", "any",
    "current_sanitizer",
})

#: calls that defeat static analysis outright
_DYNAMIC_CALLS = frozenset({"setattr", "delattr", "getattr", "eval", "exec",
                            "vars", "globals", "locals", "__import__"})


def dtype_level(name: Optional[str]) -> Optional[int]:
    """Lattice level of a dtype name; None when unknown."""
    if name is None:
        return None
    return DTYPE_LEVELS.get(name)


def _dtype_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort dtype name from a registration-site expression."""
    if node is None:
        return None
    if isinstance(node, ast.Attribute):          # np.int64
        return node.attr
    if isinstance(node, ast.Name):               # bool
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value                        # "float64"
    return None


# --------------------------------------------------------------- registry

@dataclass(frozen=True)
class ArraySpec:
    """One statically-extracted ``add_vertex_array``/``add_edge_array``."""

    name: str
    kind: str           # "vertex" | "edge"
    dtype: Optional[str]
    line: int

    @property
    def level(self) -> Optional[int]:
        return dtype_level(self.dtype)


def extract_problem_arrays(cls: ast.ClassDef) \
        -> Tuple[Dict[str, ArraySpec], FrozenSet[str]]:
    """Registered arrays and the ``relaxed_arrays`` set of one Problem
    class, read straight off the registration call sites."""
    arrays: Dict[str, ArraySpec] = {}
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("add_vertex_array", "add_edge_array")):
            continue
        if not (node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        name = node.args[0].value
        dtype_node = node.args[1] if len(node.args) > 1 else None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype_node = kw.value
        kind = "vertex" if node.func.attr == "add_vertex_array" else "edge"
        arrays[name] = ArraySpec(name, kind, _dtype_name(dtype_node),
                                 node.lineno)
    relaxed: Set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id == "relaxed_arrays":
            value = stmt.value
            if isinstance(value, ast.Call) and value.args:
                value = value.args[0]           # frozenset({...})
            if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
                for elt in value.elts:
                    if isinstance(elt, ast.Constant) \
                            and isinstance(elt.value, str):
                        relaxed.add(elt.value)
    return arrays, frozenset(relaxed)


# ----------------------------------------------------------- abstract values

@dataclass(frozen=True)
class _Value:
    """Abstract value: which problem arrays an expression may alias
    (``refs``), whether it *is* the problem object, and the dtype-lattice
    level of its elements when known."""

    refs: FrozenSet[str] = frozenset()
    is_problem: bool = False
    level: Optional[int] = None

    def join(self, other: "_Value") -> "_Value":
        level = self.level if self.level == other.level else (
            self.level if other.level is None else
            other.level if self.level is None else None)
        return _Value(self.refs | other.refs,
                      self.is_problem or other.is_problem, level)


_BOTTOM = _Value()


def _is_pure_slice(node: ast.AST) -> bool:
    """True when a subscript key yields a *view* (basic slicing); a fancy
    index (array/list key) yields a copy instead."""
    if isinstance(node, ast.Slice):
        return True
    if isinstance(node, ast.Tuple):
        return all(_is_pure_slice(e) for e in node.elts)
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return True                              # row view of an nd array
    return False


def _dotted(func: ast.AST) -> Optional[str]:
    """Dotted callee name (``atomics.atomic_min``, ``np.random.rand``)."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------- summaries

@dataclass(frozen=True)
class WriteEvent:
    """One potential mutation of a problem array."""

    array: str
    kind: str                 # store | augstore | inplace | scatter | atomic
    op: Optional[str]         # reduction op for atomics, ufunc for scatter
    line: int
    value_level: Optional[int] = None


@dataclass
class MethodSummary:
    """Effect summary of one functor (or enactor) method."""

    name: str
    reads: Set[str] = field(default_factory=set)
    writes: List[WriteEvent] = field(default_factory=list)
    calls: Set[str] = field(default_factory=set)
    nondet_calls: List[Tuple[str, int]] = field(default_factory=list)
    outside_calls: List[Tuple[str, int]] = field(default_factory=list)
    unknown_effects: List[Tuple[str, int]] = field(default_factory=list)
    #: constant-mask classification of the method's return value —
    #: ``known_true`` (returns None / all-true: every lane survives),
    #: ``known_false`` (constant false mask: output frontier provably
    #: empty), or ``dynamic``.  The fused-plan compiler
    #: (:mod:`repro.analysis.plan`) folds these into compaction
    #: shortcuts: a known-true mask skips the compaction scan entirely
    #: and a known-false mask skips frontier materialization.
    mask_return: str = "dynamic"

    @property
    def deterministic(self) -> bool:
        return not self.nondet_calls

    @property
    def pure(self) -> bool:
        """No writes, no escapes, allowlisted calls only — the bar a
        ``cond_*`` mask predicate must clear."""
        return (not self.writes and not self.unknown_effects
                and not self.outside_calls and self.deterministic)

    def write_arrays(self) -> Set[str]:
        return {w.array for w in self.writes}

    def write_kinds(self) -> Dict[str, Dict[str, Set[str]]]:
        """array -> {"kinds": {...}, "ops": {...}}"""
        out: Dict[str, Dict[str, Set[str]]] = {}
        for w in self.writes:
            slot = out.setdefault(w.array, {"kinds": set(), "ops": set()})
            slot["kinds"].add(w.kind)
            if w.kind == "atomic" and w.op:
                slot["ops"].add(w.op)
        return out

    def as_dict(self) -> dict:
        writes = {}
        for arr, slot in sorted(self.write_kinds().items()):
            writes[arr] = {"kinds": sorted(slot["kinds"]),
                           "ops": sorted(slot["ops"])}
        return {
            "reads": sorted(self.reads),
            "writes": writes,
            "pure": self.pure,
            "deterministic": self.deterministic,
            "mask_return": self.mask_return,
        }


@dataclass
class FunctorSummary:
    """Per-functor effect summary across all kernel methods."""

    name: str
    file: str
    line: int
    idempotent: bool
    methods: Dict[str, MethodSummary] = field(default_factory=dict)

    def reads(self) -> Set[str]:
        out: Set[str] = set()
        for m in self.methods.values():
            out |= m.reads
        return out

    def write_arrays(self) -> Set[str]:
        out: Set[str] = set()
        for m in self.methods.values():
            out |= m.write_arrays()
        return out

    def write_kinds(self) -> Dict[str, Dict[str, Set[str]]]:
        out: Dict[str, Dict[str, Set[str]]] = {}
        for m in self.methods.values():
            for arr, slot in m.write_kinds().items():
                agg = out.setdefault(arr, {"kinds": set(), "ops": set()})
                agg["kinds"] |= slot["kinds"]
                agg["ops"] |= slot["ops"]
        return out

    def as_dict(self) -> dict:
        return {
            "idempotent": self.idempotent,
            "line": self.line,
            "methods": {name: m.as_dict()
                        for name, m in sorted(self.methods.items())},
        }


# ----------------------------------------------------- mask-return folding

def _classify_return_expr(node: Optional[ast.AST]) -> str:
    """Constant-fold one ``return`` expression into a mask verdict."""
    if node is None or (isinstance(node, ast.Constant)
                        and node.value is None):
        # operators treat a None mask as all-pass
        return "known_true"
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        if tail == "false_mask":
            return "known_false"
        if tail == "true_mask":
            return "known_true"
        if tail in ("zeros", "ones") and dotted.startswith(("np.", "numpy.")):
            dt = _dtype_name(node.args[1]) if len(node.args) >= 2 else None
            for kw in node.keywords:
                if kw.arg == "dtype":
                    dt = _dtype_name(kw.value)
            if dt in ("bool", "bool_"):
                return "known_false" if tail == "zeros" else "known_true"
    return "dynamic"


def classify_mask_return(method: ast.FunctionDef) -> str:
    """Classify a kernel method's survivor mask as a compile-time constant.

    ``known_true`` means every lane survives (the method returns None or
    an all-true mask) — the fused specializer can skip the compaction
    scan.  ``known_false`` means the output frontier is provably empty
    (constant false mask — pagerank's distribute, bc's backward sweep) —
    the specializer skips frontier materialization outright.  Anything
    data-dependent is ``dynamic``.  Mixed constant verdicts across
    multiple returns degrade to ``dynamic``: soundness over precision.
    """
    verdicts = set()
    has_value_return = False
    for node in ast.walk(method):
        if isinstance(node, ast.Return):
            if node.value is not None and not (
                    isinstance(node.value, ast.Constant)
                    and node.value.value is None):
                has_value_return = True
            verdicts.add(_classify_return_expr(node.value))
    if not has_value_return:
        return "known_true"      # falls off the end -> None -> all-pass
    if len(verdicts) == 1:
        return verdicts.pop()
    return "dynamic"


# ---------------------------------------------------------- method analyzer

class _MethodAnalyzer:
    """Interprets one method body against the abstract-value lattice."""

    def __init__(self, method: ast.FunctionDef, *,
                 registry: Dict[str, ArraySpec],
                 problem_param: Optional[str] = None,
                 problem_of_self: bool = False):
        self.method = method
        self.registry = registry
        self.problem_param = problem_param
        #: enactor mode: ``self.problem`` (and aliases) is the problem
        self.problem_of_self = problem_of_self
        self.env: Dict[str, _Value] = {}
        for arg in (method.args.posonlyargs + method.args.args
                    + method.args.kwonlyargs):
            self.env[arg.arg] = _BOTTOM
        if problem_param:
            self.env[problem_param] = _Value(is_problem=True)
        self.summary = MethodSummary(name=method.name)
        self._build_env()

    # -- abstract evaluation ---------------------------------------------

    def resolve(self, node: ast.AST) -> _Value:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _BOTTOM)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if self.problem_of_self and isinstance(node.value, ast.Name) \
                    and node.value.id == "self" and node.attr == "problem":
                return _Value(is_problem=True)
            if base.is_problem:
                spec = self.registry.get(node.attr)
                return _Value(refs=frozenset({node.attr}),
                              level=spec.level if spec else None)
            return _BOTTOM
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            if base.refs:
                if _is_pure_slice(node.slice):
                    return base                  # view: still an alias
                return _Value(level=base.level)  # fancy index: a copy
            return _Value(level=base.level)
        if isinstance(node, ast.IfExp):
            return self.resolve(node.body).join(self.resolve(node.orelse))
        if isinstance(node, ast.BoolOp):
            out = _BOTTOM
            for v in node.values:
                out = out.join(self.resolve(v))
            return out
        if isinstance(node, ast.BinOp):
            left, right = self.resolve(node.left), self.resolve(node.right)
            if isinstance(node.op, ast.Div):
                return _Value(level=DTYPE_LEVELS["float64"])
            levels = [v for v in (left.level, right.level) if v is not None]
            return _Value(level=max(levels) if levels else None)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return _Value(level=0)
            return _Value(level=self.resolve(node.operand).level)
        if isinstance(node, ast.Compare):
            return _Value(level=0)
        if isinstance(node, ast.NamedExpr):
            return self.resolve(node.value)
        if isinstance(node, ast.Call):
            return self._resolve_call(node)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return _Value(level=0)
            if isinstance(node.value, float):
                return _Value(level=DTYPE_LEVELS["float64"])
            return _BOTTOM                       # int literal fits anything
        return _BOTTOM

    def _resolve_call(self, node: ast.Call) -> _Value:
        dotted = _dotted(node.func) or ""
        tail = dotted.rsplit(".", 1)[-1]
        # dtype constructors / casts: np.float64(x), arr.astype(np.int32)
        if tail in DTYPE_LEVELS and dotted.startswith(("np.", "numpy.")):
            return _Value(level=DTYPE_LEVELS[tail])
        if tail == "astype":
            dt = _dtype_name(node.args[0]) if node.args else None
            return _Value(level=dtype_level(dt))
        if tail == "copy" and isinstance(node.func, ast.Attribute):
            return _Value(level=self.resolve(node.func.value).level)
        # allocators carry their dtype kwarg when present
        if dotted.startswith(("np.", "numpy.")):
            for kw in node.keywords:
                if kw.arg == "dtype":
                    return _Value(level=dtype_level(_dtype_name(kw.value)))
            if tail in ATOMIC_WRITERS:
                return _Value(level=0)           # improved/won masks
        if tail in ATOMIC_WRITERS:
            return _Value(level=0)
        return _BOTTOM

    def _build_env(self) -> None:
        """Flow-insensitive fixpoint over local bindings.  Alias refs are
        *unioned* across assignments (sound for write sets); levels join
        to unknown on disagreement."""
        for _ in range(4):
            changed = False
            for node in ast.walk(self.method):
                pairs: List[Tuple[ast.expr, ast.expr]] = []
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        pairs.append((t, node.value))
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    pairs.append((node.target, node.value))
                elif isinstance(node, ast.NamedExpr):
                    pairs.append((node.target, node.value))
                for target, value in pairs:
                    if isinstance(target, (ast.Tuple, ast.List)) \
                            and isinstance(value, (ast.Tuple, ast.List)) \
                            and len(target.elts) == len(value.elts):
                        for t, v in zip(target.elts, value.elts):
                            pairs.append((t, v))
                        continue
                    if not isinstance(target, ast.Name):
                        continue
                    new = self.env.get(target.id, _BOTTOM).join(
                        self.resolve(value))
                    if new != self.env.get(target.id, _BOTTOM):
                        self.env[target.id] = new
                        changed = True
            if not changed:
                break

    # -- effect collection -------------------------------------------------

    def run(self) -> MethodSummary:
        for node in ast.walk(self.method):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._effect_store(target, node.value, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._effect_store(node.target, node.value, node.lineno)
            elif isinstance(node, ast.AugAssign):
                self._effect_augstore(node)
            elif isinstance(node, ast.Call):
                self._effect_call(node)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                self._effect_read(node)
            elif isinstance(node, ast.Starred):
                v = self.resolve(node.value)
                if v.is_problem:
                    self.summary.unknown_effects.append(
                        ("problem object splatted into a call",
                         node.lineno))
        self.summary.mask_return = classify_mask_return(self.method)
        return self.summary

    def _write(self, arrays: FrozenSet[str], kind: str, line: int,
               op: Optional[str] = None,
               value_level: Optional[int] = None) -> None:
        for arr in sorted(arrays):
            self.summary.writes.append(
                WriteEvent(arr, kind, op, line, value_level))

    def _effect_read(self, node: ast.Attribute) -> None:
        base = self.resolve(node.value)
        if base.is_problem and node.attr in self.registry:
            self.summary.reads.add(node.attr)

    def _effect_store(self, target: ast.expr, value: ast.expr,
                      line: int) -> None:
        if isinstance(target, ast.Subscript):
            base = self.resolve(target.value)
            if base.refs:
                self._write(base.refs, "store", line,
                            value_level=self.resolve(value).level)
        elif isinstance(target, ast.Attribute):
            base = self.resolve(target.value)
            if base.is_problem and not self.problem_of_self:
                # rebinding P.attr inside a kernel body defeats the
                # snapshot/restore and sanitizer machinery
                self.summary.unknown_effects.append(
                    (f"rebinds problem attribute '{target.attr}'", line))

    def _effect_augstore(self, node: ast.AugAssign) -> None:
        target = node.target
        value_level = self.resolve(node.value).level
        if isinstance(target, ast.Subscript):
            base = self.resolve(target.value)
            if base.refs:
                self._write(base.refs, "augstore", node.lineno,
                            value_level=value_level)
        elif isinstance(target, ast.Attribute):
            base = self.resolve(target.value)
            if base.is_problem:
                if target.attr in self.registry:
                    # P.arr /= x mutates the whole array in place
                    self._write(frozenset({target.attr}), "augstore",
                                node.lineno, value_level=value_level)
                elif not self.problem_of_self:
                    self.summary.unknown_effects.append(
                        (f"mutates problem scalar attribute "
                         f"'{target.attr}'", node.lineno))
        elif isinstance(target, ast.Name):
            base = self.env.get(target.id, _BOTTOM)
            if base.refs:                        # alias += v: in-place
                self._write(base.refs, "augstore", node.lineno,
                            value_level=value_level)

    def _effect_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        self.summary.calls.add(dotted)
        tail = dotted.rsplit(".", 1)[-1]
        root = dotted.split(".", 1)[0]

        # 1. atomics: first positional arg is the written array
        if tail in ATOMIC_WRITERS and node.args:
            base = self.resolve(node.args[0])
            level = None
            if len(node.args) > 2:
                level = self.resolve(node.args[2]).level
            self._write(base.refs, "atomic", node.lineno,
                        op=ATOMIC_WRITERS[tail], value_level=level)
            return
        # 2. ufunc scatter: np.add.at(arr, idx, vals)
        if tail == "at" and isinstance(node.func, ast.Attribute) \
                and node.args:
            base = self.resolve(node.args[0])
            if base.refs:
                ufunc = dotted.split(".")[-2] if "." in dotted else "?"
                level = (self.resolve(node.args[2]).level
                         if len(node.args) > 2 else None)
                self._write(base.refs, "scatter", node.lineno, op=ufunc,
                            value_level=level)
            return
        # 3. in-place ufunc via out=; the call's own value gives the level
        for kw in node.keywords:
            if kw.arg == "out":
                base = self.resolve(kw.value)
                if base.refs:
                    args = [self.resolve(a).level for a in node.args]
                    levels = [v for v in args if v is not None]
                    self._write(base.refs, "inplace", node.lineno,
                                value_level=max(levels) if levels else None)
        # 4. np.copyto / np.putmask / np.place mutate their first arg
        if root in ("np", "numpy") and tail in _NP_INPLACE_FIRST_ARG \
                and node.args:
            base = self.resolve(node.args[0])
            if base.refs:
                level = (self.resolve(node.args[1]).level
                         if len(node.args) > 1 else None)
                self._write(base.refs, "inplace", node.lineno,
                            value_level=level)
            return
        # 5. mutating array methods: alias.fill(0.0) etc.
        if tail in _MUTATING_METHODS and isinstance(node.func, ast.Attribute):
            base = self.resolve(node.func.value)
            if base.refs:
                level = (self.resolve(node.args[0]).level
                         if node.args else None)
                self._write(base.refs, "inplace", node.lineno,
                            value_level=level)
            return
        # 6. determinism + escape classification
        if self._is_nondet(dotted):
            self.summary.nondet_calls.append((dotted, node.lineno))
            return
        if tail in _DYNAMIC_CALLS:
            self.summary.unknown_effects.append(
                (f"dynamic call {dotted}()", node.lineno))
            return
        if not self._is_allowed(dotted, root):
            self.summary.outside_calls.append((dotted, node.lineno))
            for arg in node.args:
                if self.resolve(arg).is_problem:
                    self.summary.unknown_effects.append(
                        (f"problem object escapes into {dotted}()",
                         node.lineno))

    @staticmethod
    def _is_nondet(dotted: str) -> bool:
        root = dotted.split(".", 1)[0]
        tail = dotted.rsplit(".", 1)[-1]
        if root in _NONDET_ROOTS:
            return True
        if dotted.startswith(("np.random.", "numpy.random.")):
            return True
        return tail in _NONDET_NAMES and root == tail

    def _is_allowed(self, dotted: str, root: str) -> bool:
        if root in ("np", "numpy", "atomics"):
            return not dotted.startswith(("np.random", "numpy.random"))
        if root in self.env:                     # method on a local/param
            return True
        if "." not in dotted and dotted in _ALLOWED_BUILTINS:
            return True
        if "." not in dotted and dotted in ATOMIC_WRITERS:
            return True
        return False


# ------------------------------------------------------------ module pass

@dataclass
class ModuleEffects:
    """Everything the effect pass learned about one module."""

    file: str
    functors: Dict[str, FunctorSummary] = field(default_factory=dict)
    problems: Dict[str, Dict[str, ArraySpec]] = field(default_factory=dict)
    registry: Dict[str, ArraySpec] = field(default_factory=dict)
    relaxed: FrozenSet[str] = frozenset()
    violations: List[Violation] = field(default_factory=list)
    tree: Optional[ast.Module] = field(default=None, repr=False)


def _functor_violations(filename: str, summary: FunctorSummary,
                        registry: Dict[str, ArraySpec],
                        relaxed: FrozenSet[str],
                        legacy_lines: Dict[str, Set[int]]) -> List[Violation]:
    """Map one functor's effect summaries onto rules GR006–GR012."""
    out: List[Violation] = []

    def add(rule: str, line: int, msg: str) -> None:
        out.append(Violation(filename, line, RULES[rule], msg))

    gr001 = legacy_lines.get("GR001", set())
    gr002 = legacy_lines.get("GR002", set())
    for mname, m in summary.methods.items():
        label = f"{summary.name}.{mname}"
        is_cond = mname.startswith("cond")
        if is_cond:
            for w in m.writes:
                add("cond-impure", w.line,
                    f"{label} writes problem array '{w.array}' ({w.kind}); "
                    "cond masks must be pure predicates")
            for dotted, line in m.outside_calls:
                add("cond-impure", line,
                    f"{label} calls {dotted}() outside the deterministic "
                    "allowlist; cond masks must be pure predicates")
        for dotted, line in m.nondet_calls:
            add("nondeterministic-call", line,
                f"{label} calls {dotted}(), a known nondeterminism source")
        for reason, line in m.unknown_effects:
            add("unknown-effect", line, f"{label}: {reason}")
        # narrowing stores against the registered dtype lattice
        for w in m.writes:
            spec = registry.get(w.array)
            if spec is None or spec.level is None or w.value_level is None:
                continue
            if w.value_level > spec.level:
                add("narrowing-store", w.line,
                    f"{label} stores a wider value (lattice level "
                    f"{w.value_level}) into '{w.array}' registered as "
                    f"{spec.dtype} (level {spec.level}); the implicit cast "
                    "truncates")
        # unrouted stores the legacy GR001 dataflow does not see
        for w in m.writes:
            if w.kind not in PLAIN_KINDS or w.array not in registry:
                continue
            if w.line in gr001:
                continue                         # GR001 already owns it
            add("unrouted-store", w.line,
                f"{label} mutates '{w.array}' via {w.kind} without "
                "routing through repro.core.atomics (invisible to the "
                "GR001 syntactic check)")
        # per-method atomic-op consistency
        ops_by_array: Dict[str, Set[str]] = {}
        for w in m.writes:
            if w.kind == "atomic" and w.op:
                ops_by_array.setdefault(w.array, set()).add(w.op)
        for arr, ops in sorted(ops_by_array.items()):
            reductions = ops - {"cas"}
            if len(reductions) > 1:
                first = min(w.line for w in m.writes
                            if w.array == arr and w.kind == "atomic")
                add("atomic-mix", first,
                    f"{label} reduces '{arr}' with conflicting atomic ops "
                    f"{{{', '.join(sorted(reductions))}}}; a fused kernel "
                    "needs one commutative reduction per array")
            if "exch" in ops and arr not in relaxed:
                first = min(w.line for w in m.writes
                            if w.array == arr and w.op == "exch")
                add("atomic-mix", first,
                    f"{label} uses order-dependent atomic_exch on "
                    f"non-relaxed array '{arr}'")
        # atomic + plain store on the same array inside one fused kernel
        kinds = m.write_kinds()
        for arr, slot in sorted(kinds.items()):
            if "atomic" in slot["kinds"] and slot["kinds"] & PLAIN_KINDS:
                first = min(w.line for w in m.writes if w.array == arr)
                add("fused-write-hazard", first,
                    f"{label} writes '{arr}' both atomically and via plain "
                    f"stores ({', '.join(sorted(slot['kinds'] - {'atomic'}))})"
                    "; the plain store races with the atomic window")
        # idempotent functors must not accumulate (via-alias cases the
        # legacy GR002 syntactic check misses)
        if summary.idempotent:
            for w in m.writes:
                accumulates = (
                    (w.kind == "atomic" and w.op in ACCUMULATING_OPS)
                    or w.kind == "augstore"
                    or (w.kind == "scatter" and w.op in ("add", "subtract",
                                                         "multiply",
                                                         "divide")))
                if accumulates and w.line not in gr002:
                    add("idempotent-accumulate", w.line,
                        f"{label} accumulates into '{w.array}' while "
                        "declaring idempotent = True; duplicate applies "
                        "double-count")
    return out


def analyze_module_source(source: str, filename: str = "<string>") \
        -> ModuleEffects:
    """Run the effect pass over one module's source text.

    Returns per-functor summaries, the statically-extracted problem-array
    registry, and **pre-suppression** GR006–GR012 violations (callers
    apply ``# lint: allow(...)`` filtering; see :mod:`.fusion`).
    """
    out = ModuleEffects(file=filename)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as err:
        out.violations.append(
            Violation(filename, err.lineno or 0, RULES["parse-error"],
                      f"syntax error: {err.msg}"))
        return out
    out.tree = tree

    # pass 1: problem registries (module-level union feeds the functors)
    relaxed: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_problem_class(node):
            arrays, cls_relaxed = extract_problem_arrays(node)
            out.problems[node.name] = arrays
            out.registry.update(arrays)
            relaxed |= cls_relaxed
    out.relaxed = frozenset(relaxed)

    # legacy GR001/GR002 sites, so the new rules do not double-report
    legacy_lines: Dict[str, Set[int]] = {}
    for v in collect_source_violations(source, filename, tree=tree):
        legacy_lines.setdefault(v.rule.id, set()).add(v.line)

    # pass 2: functor effect summaries + rule evaluation
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and _is_functor_class(node)):
            continue
        idempotent = _class_declares_idempotent(node)
        summary = FunctorSummary(name=node.name, file=filename,
                                 line=node.lineno, idempotent=idempotent)
        for method in node.body:
            if isinstance(method, ast.FunctionDef) \
                    and method.name in FUNCTOR_METHODS:
                args = method.args.args
                pparam = args[1].arg if len(args) > 1 else None
                analyzer = _MethodAnalyzer(method, registry=out.registry,
                                           problem_param=pparam)
                summary.methods[method.name] = analyzer.run()
        out.functors[node.name] = summary
        out.violations.extend(
            _functor_violations(filename, summary, out.registry,
                                out.relaxed, legacy_lines))
    out.violations.sort(key=lambda v: (v.file, v.line, v.rule.id, v.message))
    return out


def _class_declares_idempotent(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for t in targets:
            if isinstance(t, ast.Name) and t.id == "idempotent":
                if isinstance(value, ast.Constant) and value.value is True:
                    return True
    return False


def enactor_method_effects(method: ast.FunctionDef,
                           registry: Dict[str, ArraySpec]) -> MethodSummary:
    """Effect summary of an *enactor* method: ``self.problem`` (and local
    aliases of it) is the problem; only registered-array mutations are
    reported (enactors legitimately juggle frontiers and scalars)."""
    analyzer = _MethodAnalyzer(method, registry=registry,
                               problem_of_self=True)
    return analyzer.run()


def analyze_file(path: str) -> ModuleEffects:
    with open(path, "r", encoding="utf-8") as fh:
        return analyze_module_source(fh.read(), filename=path)


def summarize_functor_class(cls) -> FunctorSummary:
    """Effect summary for a live Functor subclass (the
    ``Functor.effect_summary()`` hook): parses the defining module."""
    import inspect

    try:
        path = inspect.getsourcefile(cls)
        if path is None:
            raise TypeError(path)
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except (TypeError, OSError) as err:
        raise ValueError(
            f"cannot locate source for {cls.__name__}: {err}") from err
    effects = analyze_module_source(source, filename=path)
    try:
        return effects.functors[cls.__name__]
    except KeyError:
        raise ValueError(
            f"{cls.__name__} not found among functor classes of {path}")
