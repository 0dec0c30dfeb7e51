"""The cross-engine frontier contract on a road grid — hundreds of
super-steps over small frontiers, where the order the dedup and cull
kernels leave lanes in decides every last-write-wins predecessor.  Pins
what ``tests/engines.py`` does not look at: the frontier entering each
super-step (content *and order*) and the idempotence heuristics' final
state, identical under every bitwise engine."""

import numpy as np
import pytest

from engines import run_all_engines
from repro.core import fused
from repro.graph import generators, with_random_weights
from repro.primitives.bfs import BfsEnactor
from repro.primitives.sssp import SsspEnactor


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.fixture
def recorded(monkeypatch):
    """``[(enactor, [frontier entering each super-step])]``, one entry
    per enactor run, in run order — the library loops through
    ``_iterate``, the fused runners through ``run_supersteps``."""
    runs = []

    def note(en, items):
        if not runs or runs[-1][0] is not en:
            runs.append((en, []))
        runs[-1][1].append(items.copy())

    for cls in (BfsEnactor, SsspEnactor):
        def _iterate(self, frontier, _orig=cls._iterate):
            note(self, frontier.items)
            return _orig(self, frontier)
        monkeypatch.setattr(cls, "_iterate", _iterate)

    def run_supersteps(en, items, step, _orig=fused.run_supersteps):
        def recording_step(f, it):
            note(en, f)
            return step(f, it)
        return _orig(en, items, recording_step)
    monkeypatch.setattr(fused, "run_supersteps", run_supersteps)
    return runs


@pytest.fixture(scope="module")
def road40():
    return with_random_weights(generators.road_grid(40, 40, seed=3), seed=9)


@pytest.mark.parametrize("primitive", ["bfs", "sssp"])
@pytest.mark.parametrize("src,cap", [(0, None), (820, None), (820, 7)])
def test_road_grid_frontiers_identical_across_engines(road40, recorded,
                                                      primitive, src, cap):
    engines = ("pooled", "fused")
    out = run_all_engines(primitive, road40, engines=engines, src=src,
                          max_iterations=cap)
    assert len(recorded) == len(engines)
    (_, ref_frontiers) = recorded[0]
    assert len(ref_frontiers) == (cap or out["pooled"][0].iterations)
    if cap is None:
        assert len(ref_frontiers) >= 40    # a road graph: many small steps
    for mode, (en, frontiers) in zip(engines, recorded):
        assert len(frontiers) == len(ref_frontiers), mode
        for a, b in zip(frontiers, ref_frontiers):
            assert _same(a, b), mode        # content *and order*
    assert out["pooled"][0].enactor_stats.trace
    if primitive == "bfs":
        ref = recorded[0][0].heuristics
        assert ref._history is not None and ref._discovered is not None
        for mode, (en, _) in zip(engines, recorded):
            assert _same(en.heuristics._history, ref._history), mode
            assert _same(en.heuristics._discovered, ref._discovered), mode
