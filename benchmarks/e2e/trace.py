"""Host-clock spans around the public layer-boundary callables of ``repro``.

The benchmark may not edit ``src/``, so a traced run wraps a fixed list of
callables from outside: each wrapper records one span (name, layer, start,
end, parent span, query id) and calls through.  A module-level function is
rebound in every loaded ``repro.*`` module that imported it (``from x
import f`` copies the reference, so patching ``x`` alone would miss those
callers); a method is rebound on its class.  :meth:`Tracer.uninstall`
puts every original back.

Spans stay in memory and are written out once, at the end.  A span's self
time is its duration minus the time its child spans cover; because the
program is single-threaded and the wrappers nest, children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

#: (layer, span name, module, attribute path inside the module)
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("primitives", "bfs", "repro.primitives.bfs", "bfs"),
    ("primitives", "sssp", "repro.primitives.sssp", "sssp"),
    ("primitives", "bc", "repro.primitives.bc", "bc"),
    ("primitives", "pagerank", "repro.primitives.pagerank", "pagerank"),
    ("primitives", "cc", "repro.primitives.cc", "cc"),
    ("primitives", "ppr", "repro.primitives.ppr", "ppr"),
    ("primitives", "wtf", "repro.primitives.wtf", "who_to_follow"),
    ("core", "enact", "repro.core.enactor", "EnactorBase.enact"),
    ("core", "advance", "repro.core.operators.advance", "advance"),
    ("core", "filter", "repro.core.operators.filter", "filter_frontier"),
    ("core", "compute", "repro.core.operators.compute", "compute"),
    ("fused", "try_fused", "repro.core.fused", "try_fused"),
    ("la", "try_la", "repro.la.backend", "try_la"),
    ("la", "spmspv", "repro.la.semiring", "spmspv"),
    ("la", "spmv", "repro.la.semiring", "spmv"),
    ("analysis", "plan_for", "repro.analysis.plan", "plan_for"),
    ("serve", "plan_batches", "repro.serve.batcher", "plan_batches"),
    ("serve", "execute_batch", "repro.serve.batcher", "execute_batch"),
    ("serve", "batched_bfs", "repro.serve.batcher", "batched_bfs"),
    ("serve", "batched_sssp", "repro.serve.batcher", "batched_sssp"),
    ("serve", "batched_ppr", "repro.serve.batcher", "batched_ppr"),
    ("serve", "cache_get", "repro.serve.cache", "ResultCache.get"),
    ("serve", "cache_put", "repro.serve.cache", "ResultCache.put"),
    ("serve", "cache_carry", "repro.serve.cache", "ResultCache.carry_version"),
    ("serve", "replay", "repro.serve.scheduler", "DeadlineScheduler.replay"),
    ("serve", "replay", "repro.serve.shard_scheduler", "ShardScheduler.replay"),
    ("dynamic", "delta_apply", "repro.dynamic.delta", "DeltaCsr.apply"),
    ("dynamic", "delta_compact", "repro.dynamic.delta", "DeltaCsr.compact"),
    ("dynamic", "delta_bfs", "repro.dynamic.incremental", "delta_bfs"),
    ("dynamic", "delta_sssp", "repro.dynamic.incremental", "delta_sssp"),
    ("dynamic", "incremental_pagerank", "repro.dynamic.incremental",
     "incremental_pagerank"),
    ("simt", "launch", "repro.simt.machine", "Machine.launch"),
)

#: the layers a table row is printed for, callers before callees
LAYERS = ("bench", "serve", "dynamic", "primitives", "core", "fused", "la",
          "analysis", "simt")

Span = list  # [name, layer, start_s, end_s, parent index or -1, query id]


def resolve(module: str, path: str):
    """``(owner, attribute name, object)`` of one target."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr]


def _repro_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.query_id = -1
        #: super-steps run inside wrapped ``enact`` calls
        self.supersteps = 0
        self._open: List[int] = []
        self._originals: Dict[int, object] = {}   # id(wrapper) -> original
        self._class_patches: List[Tuple[type, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           self.query_id])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name: str, layer: str):
        begin, end = self.begin, self.end
        count_supersteps = name == "enact"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)
                if count_supersteps:
                    self.supersteps += args[0].stats.iterations

        self._originals[id(traced)] = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        resolved = [(layer, name, *resolve(module, path))
                    for layer, name, module, path in TARGETS]
        for layer, name, owner, attr, original in resolved:
            wrapper = self._wrap(original, name, layer)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._class_patches.append((owner, attr, original))
                continue
            for module in _repro_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in self._class_patches:
            setattr(owner, attr, original)
        # a module first imported while tracing copied a wrapper, so scan
        # for wrappers rather than replaying the install list
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(module, key, original)
        self._class_patches.clear()
        self._originals.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        keys = ("name", "layer", "start_s", "end_s", "parent", "query")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# -- analysis ------------------------------------------------------------------


def self_seconds(spans: List[Span]) -> List[float]:
    """Self time per span: duration minus what its children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, inclusive ms (outermost spans of the layer only,
    so nesting inside one layer is not counted twice) and self ms."""
    own = self_seconds(spans)
    inside: List[frozenset] = []  # layers of each span's ancestors
    table = {layer: {"calls": 0, "inclusive_ms": 0.0, "self_ms": 0.0}
             for layer in LAYERS}
    for i, (name, layer, start, end, parent, _query) in enumerate(spans):
        above = frozenset() if parent < 0 \
            else inside[parent] | {spans[parent][1]}
        inside.append(above)
        row = table[layer]
        row["calls"] += 1
        row["self_ms"] += own[i] * 1e3
        if layer not in above:
            row["inclusive_ms"] += (end - start) * 1e3
    return table


def span_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive ms and self ms."""
    own = self_seconds(spans)
    out: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        row = out.setdefault(f"{s[1]}.{s[0]}",
                             {"calls": 0, "inclusive_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["inclusive_ms"] += (s[3] - s[2]) * 1e3
        row["self_ms"] += own[i] * 1e3
    return out


def format_layer_table(table: Dict[str, Dict[str, float]],
                       pass_ms: float) -> str:
    lines = [f"  {'layer':<12}{'calls':>9}{'inclusive ms':>15}"
             f"{'self ms':>12}{'share':>9}"]
    for layer in LAYERS:
        row = table[layer]
        if not row["calls"]:
            continue
        share = row["self_ms"] / pass_ms if pass_ms else 0.0
        lines.append(f"  {layer:<12}{row['calls']:>9d}"
                     f"{row['inclusive_ms']:>15.2f}{row['self_ms']:>12.2f}"
                     f"{share:>9.1%}")
    return "\n".join(lines)


def check_spans(spans: List[Span]) -> Optional[str]:
    """Structural invariants of a finished trace (used by the self-tests)."""
    own = self_seconds(spans)
    for i, s in enumerate(spans):
        if not -1 <= s[4] < i:
            return f"span {i} names parent {s[4]}"
        if s[3] < s[2]:
            return f"span {i} ends before it starts"
        if own[i] > (s[3] - s[2]) + 1e-9 or own[i] < -1e-6:
            return f"span {i} self time {own[i]} outside [0, inclusive]"
    return None
