"""Structural guards: code that a removal or a contract rules out must not
come back.

Each row of :data:`GUARDS` names a regular expression, the files it
scans, what is exempt and why the pattern is banned.  A row also carries
a sample of the offending code: the pattern must match it, so a pattern
mistyped when it was written down (say, a ``grep -E`` bracket that means
something else to :mod:`re`) fails here instead of guarding nothing.  The
last row is the BSP-contract linter itself (``repro lint src/
examples/``, DESIGN §7): its sample is a functor the linter must flag.

A hit prints as ``path:line: text``; exempt a line by putting the row's
``marker`` on it with a reason, never by editing the table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: the super-step path, where numpy 2.3's hash-based ``np.unique`` must
#: not run (DESIGN §10)
SUPERSTEP_PATH = (
    "src/repro/core", "src/repro/simt/primitives.py",
    "src/repro/primitives/bfs.py", "src/repro/primitives/sssp.py",
    "src/repro/primitives/bc.py", "src/repro/primitives/cc.py",
    "src/repro/primitives/pagerank.py", "src/repro/primitives/ppr.py",
    "src/repro/primitives/mst.py",
    "src/repro/primitives/bipartite.py", "src/repro/primitives/salsa.py",
    "src/repro/primitives/hits.py", "src/repro/primitives/wtf.py",
    "src/repro/graph/csr.py", "src/repro/la", "src/repro/multi",
    "src/repro/serve/shard.py", "src/repro/dynamic/incremental.py",
    "src/repro/dynamic/delta.py")


@dataclass(frozen=True)
class Guard:
    name: str
    #: a regular expression searched on every line; None for the linter
    pattern: Optional[str]
    #: files and directories (every ``*.py`` under them), repo-relative
    paths: Tuple[str, ...]
    reason: str
    #: offending source that the pattern must match (the linter must flag)
    sample: str
    #: files or directories left out of the scan
    exempt: Tuple[str, ...] = ()
    #: a comment that exempts the line it is on
    marker: Optional[str] = None


GUARDS = (
    Guard("no-np-unique-on-the-superstep-path", r"np\.unique\(",
          SUPERSTEP_PATH,
          "numpy 2.3 made np.unique a hash pass 2-16x slower than a sort "
          "(DESIGN §10); super-step kernels call simt.primitives."
          "unique_by_sort / first_occurrence, the relabel unique_inverse",
          "def _dedup(frontier): return np.unique(frontier)",
          marker="np.unique ok:"),
    Guard("one-run-per-constant",
          r"iota_n|iota_m|_unit_weights|uniform_cta_costs|exclusive_scan"
          r"|sort_pairs",
          ("src/repro",),
          "the iota ramp and the unit weights are process-wide read-only "
          "runs in graph/csr.py, and simt/primitives.py holds only kernels "
          "an operator launches (DESIGN §10)",
          "def _ramp(graph): return graph.iota_n"),
    Guard("one-csr-lane-expansion",
          r"repeat\(.*indptr\[[^]]*\] *-|concatenate\(\[\[0\], *np\.cumsum",
          ("src/repro",),
          "rows -> one lane per edge is graph.csr.row_lanes (DESIGN §10); "
          "the comparators in frameworks/ keep their own on purpose",
          "def _lanes(rows, indptr): "
          "return np.repeat(rows, indptr[rows + 1] - indptr[rows])",
          exempt=("src/repro/graph/csr.py", "src/repro/frameworks"),
          marker="lane-expand ok:"),
    Guard("no-workspace",
          r"Workspace|workspace_of|expansion_memo|remember_expansion"
          r"|\.pooled\b",
          ("src/repro",),
          "no per-problem arena and no expansion memo: the read-only "
          "constants live in graph/csr.py (DESIGN §10)",
          "def _arena(problem): return workspace_of(problem)"),
    Guard("no-scratch-pool", r"bitmap_scatter|\.take\(\"|_pools\b",
          ("src/repro",),
          "scratch is allocated where it is used and every operator output "
          "is owned (DESIGN §10): no role pool, no lent bitmap",
          "def _bits(n, dst): return bitmap_scatter(n, dst)"),
    Guard("one-rank-scatter-no-segmented-hook", r"apply_edge_segmented",
          ("src/repro",),
          "a per-source scatter is declared once (Functor.scatter_source) "
          "and lowered by advance through graph.csr.transpose_product "
          "(DESIGN §10)",
          "def _scatter(functor, P, src, dst): "
          "return functor.apply_edge_segmented(P, src, dst)"),
    Guard("one-rank-scatter-one-transpose", r"csr_matrix\(",
          ("src/repro/core", "src/repro/la/backend.py"),
          "fused and la take graph.csr's transpose product, not a second "
          "transpose of their own (DESIGN §10)",
          "def _transpose(sp, data, indices, indptr): "
          "return sp.csr_matrix((data, indices, indptr))"),
    Guard("one-rank-scatter-advance-prices-the-product",
          r"machine is None and|and (problem\.)?machine is None",
          ("src/repro/core/operators/advance.py",),
          "a machine prices the product step from per-cell lane counts "
          "(graph.csr.transpose_cell_stats), so a charged step never goes "
          "back to the lanes",
          "def _product_ok(machine, summed): "
          "return machine is None and summed"),
    Guard("one-rank-scatter-fused-prices-the-product",
          r"machine is not None or not summed",
          ("src/repro/core/fused.py",),
          "as in advance: fused sends no charged step to the lanes",
          "def _use_lanes(machine, summed): "
          "return machine is not None or not summed"),
    Guard("repair-reads-the-snapshot", r"in_row|GraphView",
          ("src/repro",),
          "every graph version is one CSR: repairs read the snapshot and "
          "its CSC (DESIGN §14), no overlay in-row read or union view",
          "def _parents(view, v): return view.in_row(v)"),
    Guard("no-heap-closure", r"heapq|_row\(",
          ("src/repro/dynamic/incremental.py",),
          "the damage closure runs in frontier waves (DESIGN §14); the heap "
          "worklist lives on only as tests/repair_reference.py",
          "def _push(heap, label, v): return heapq.heappush(heap, (label, v))"),
    Guard("one-graph-per-version",
          r"_edit_row|out_row|_snapshot_structural|_snapshot_reweight_only"
          r"|_rebase",
          ("src/repro/dynamic/delta.py",),
          "each version is built from the last in one vectorised pass "
          "(DESIGN §14); the overlay lives on as tests/delta_reference.py",
          "def _edit(chain, u, batch): return chain._edit_row(u, batch)"),
    Guard("one-partitioned-loop-catches-device-loss", r"except DeviceLost",
          ("src/repro",),
          "multi/superstep.run_partitioned is the only place a device loss "
          "is caught and recovered (DESIGN §8)",
          "def _retry(step):\n"
          "    try: return step()\n"
          "    except DeviceLost: return None",
          exempt=("src/repro/multi/superstep.py",)),
    Guard("one-partitioned-loop-shares-the-csr",
          r"local_positions|begin_step|end_step|abort_step"
          r"|part\.(indptr|indices)",
          ("src/repro",),
          "a partition is ownership only: devices expand the one shared "
          "CSR, and a super-step is a `with mm.step():` scope (DESIGN §8)",
          "def _local(part, v): return part.local_positions(v)"),
    Guard("one-functor-analysis",
          r"_FunctorMethodChecker|collect_source_violations|legacy_lines",
          ("src/repro",),
          "every rule GR001-GR012 is read off analysis/effects.py's "
          "summaries (DESIGN §12): no second AST walk, no merged findings",
          "def _walk(tree): return _FunctorMethodChecker(tree)"),
    Guard("one-fused-plan-description",
          r"FusedStage|ATOMIC_LOWERINGS|atomic_lowerings|mask_return"
          r"|beta_cut|static_plans|static_dict",
          ("src/repro",),
          "analysis/plan.py's FusedPlan holds only what core/fused.py reads "
          "(DESIGN §15): no per-stage description nothing executes",
          "def _stages(plan): return plan.static_plans"),
    Guard("bsp-contract-lint", None, ("src", "examples"),
          "every functor honours the BSP contract (DESIGN §7); tests/ is "
          "left out because its scaffolding writes raw on purpose",
          "class _RawWriteFunctor(Functor):\n"
          "    def apply_edge(self, P, src, dst, eid):\n"
          "        P.labels[dst] = src"),
)


@lru_cache(maxsize=None)
def _lines(path: Path) -> Tuple[str, ...]:
    return tuple(path.read_text(encoding="utf-8").splitlines())


def _files(guard: Guard):
    exempt = [ROOT / e for e in guard.exempt]
    for rel in guard.paths:
        top = ROOT / rel
        for path in sorted(top.rglob("*.py")) if top.is_dir() else [top]:
            if not any(path == e or e in path.parents for e in exempt):
                yield path


def _hits(pattern: re.Pattern, marker: Optional[str], lines, label: str):
    return [f"{label}:{no}: {line.strip()}"
            for no, line in enumerate(lines, 1)
            if pattern.search(line) and not (marker and marker in line)]


@pytest.mark.parametrize("guard", GUARDS, ids=lambda g: g.name)
def test_structural_guard(guard):
    for rel in guard.paths + guard.exempt:
        assert (ROOT / rel).exists(), f"{guard.name}: {rel} is gone"
    if guard.pattern is None:
        from repro.analysis import lint_source, lint_paths

        assert lint_source(guard.sample), "the linter no longer flags the sample"
        found = [v.format() for v in
                 lint_paths([str(ROOT / rel) for rel in guard.paths])]
    else:
        pattern = re.compile(guard.pattern)
        sample = guard.sample.splitlines()
        assert _hits(pattern, None, sample, "sample"), \
            f"{guard.name}: the pattern does not match its own sample"
        if guard.marker:
            marked = [f"{line}  # {guard.marker} sample" for line in sample]
            assert not _hits(pattern, guard.marker, marked, "sample")
        found = [hit for path in _files(guard)
                 for hit in _hits(pattern, guard.marker, _lines(path),
                                  str(path.relative_to(ROOT)))]
    assert not found, f"{guard.name} ({guard.reason}):\n" + "\n".join(found)
