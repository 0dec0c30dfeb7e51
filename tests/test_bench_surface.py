"""The surface of ``repro`` that the end-to-end benchmark
(``benchmarks/e2e``) is built on, held in the tier-1 gate.

The benchmark's own self-tests are not part of tier-1, so a ``src/``
change that renames, moves or inherits a name it uses would otherwise
fail only when the benchmark runs.  ``trace.resolve`` reads
``owner.__dict__[attr]`` for every traced target, so even a method that
moves to a base class breaks it.  These tests read the benchmark's
modules and write nothing under ``benchmarks/``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import primitives
from repro.core.engine import engine, engine_mode
from repro.graph import generators
from repro.simt import Machine

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
#: the benchmark's modules, imported under these top-level names (one is
#: also the name of a stdlib module)
BENCH_MODULES = ("hostclock", "check", "metrics", "trace", "workloads",
                 "probes", "measure")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's modules by name, imported as its runner imports
    them, with ``sys.path`` and ``sys.modules`` put back afterwards."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES
             if name in sys.modules}
    sys.path.insert(0, str(E2E))
    sys.dont_write_bytecode = True
    try:
        return {name: importlib.import_module(name)
                for name in ("check", "trace", "workloads", "probes",
                             "measure")}
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_the_benchmark_modules_import(bench):
    assert bench["workloads"].WORKLOAD_NAMES
    assert callable(bench["probes"].core_probes)
    assert callable(bench["check"].certify_equal)


def test_every_traced_target_resolves_to_its_own_definition(bench):
    trace = bench["trace"]
    assert trace.TARGETS
    for layer, name, module, path in trace.TARGETS:
        assert layer in trace.LAYERS, (layer, name)
        owner, attr, obj = trace.resolve(module, path)
        assert callable(obj), (module, path)
        assert getattr(owner, attr) is obj, (module, path)


@pytest.mark.parametrize("primitive", ["bfs", "bc"])
def test_the_unpooled_name_selects_pooled_bitwise(primitive):
    """``engine("unpooled")`` is accepted, selects pooled, and gives
    pooled's arrays (values and dtype) and charged kernels."""
    g = generators.kronecker(8, seed=5)
    src = int(np.argmax(g.out_degrees))
    run = getattr(primitives, primitive)
    out = {}
    for mode in ("pooled", "unpooled"):
        with engine(mode):
            assert engine_mode() == "pooled"
            machine = Machine()
            out[mode] = (run(g, src, machine=machine).arrays,
                         [(k.name, k.cycles, k.items, k.iteration)
                          for k in machine.counters.kernels])
    (want, want_k), (got, got_k) = out["pooled"], out["unpooled"]
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert np.array_equal(got[key], want[key]), key
    assert got_k == want_k
