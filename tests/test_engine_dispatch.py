"""The one engine dispatcher (``repro.core.engine.dispatch``) and the one
selector in front of it.

Every specialized engine refuses a run for the same common reasons, in
the same order, before its own ``prepare`` hook is asked; each refusal
must leave exactly one fallback record with the exact reason, exactly
one ``engine="pooled"`` counter sample, no engine span, and a result
computed by the library loop.  With no engine chosen the engine is
fused, and a refusal leaves the same counter sample and result but no
fallback record: nobody asked for fused.
"""

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.core.engine import (clear_fallbacks, engine, engine_mode,
                               fallback_log, set_engine)
from repro.core.frontier import Frontier
from repro.graph import from_edges
from repro.graph.build import with_random_weights
from repro.obs import observe
from repro.obs.spans import CAT_FUSED, CAT_LA
from repro.primitives import bc, bfs, cc, mis, pagerank, ppr, sssp
from repro.primitives.bfs import BfsEnactor, BfsProblem
from repro.resilience.faults import FaultPlan
from repro.simt import Machine

SANITIZER = "sanitizer active: library operators carry the kernel scopes"
RESILIENCE = ("resilience hooks active: fault windows exist only in the "
              "library loop")
#: refusal -> {engine: exact reason string}
REASONS = {
    "unknown_primitive": {
        "fused": "no fused runner for primitive 'mis'",
        "la": "no linear-algebra lowering for primitive 'mis'"},
    "sanitizer_active": {"fused": SANITIZER, "la": SANITIZER},
    "fault_injector": {"fused": RESILIENCE, "la": RESILIENCE},
    "checkpointing": {"fused": RESILIENCE, "la": RESILIENCE},
}


def _line_graph():
    return from_edges([(i, i + 1) for i in range(16)], n=17, undirected=True)


def _run_refused(refusal, mode, g):
    """Drive one refused run under ``mode``; returns the primitive name."""
    if refusal == "unknown_primitive":
        with engine(mode):
            assert mis(g, machine=Machine()).set_size > 0
        return "mis"
    if refusal == "sanitizer_active":
        with engine(mode), sanitize(strict=True):
            labels = bfs(g, 0, machine=Machine()).labels
    else:
        kw = {"faults": FaultPlan()} if refusal == "fault_injector" \
            else {"checkpoint_every": 2}
        with engine(mode):
            labels = bfs(g, 0, machine=Machine(), **kw).labels
    assert int(labels[16]) == 16    # the library loop ran to the end
    return "bfs"


@pytest.mark.parametrize("refusal", list(REASONS))
@pytest.mark.parametrize("mode", ["fused", "la"])
def test_dispatch_refusal(mode, refusal):
    clear_fallbacks()
    with observe() as ob:
        primitive = _run_refused(refusal, mode, _line_graph())
    assert fallback_log() == [(primitive, REASONS[refusal][mode])]
    samples = {k: v for k, v in ob.metrics.as_dict().items()
               if "_dispatch_total" in k}
    assert samples == {
        f'repro_{mode}_dispatch_total{{engine="pooled",'
        f'primitive="{primitive}"}}': 1.0}
    assert not [s for s in ob.tracer.spans if s.cat in (CAT_FUSED, CAT_LA)]


@pytest.mark.parametrize("mode", ["fused", "la"])
def test_problem_built_unpooled_runs_under_the_engine(mode):
    """A problem captures no engine: one built under the retired
    ``unpooled`` name is taken by fused and la like any other, with
    labels bitwise equal to the pooled library loop."""
    from repro.graph.generators import kronecker

    g = kronecker(8, seed=3)
    src = int(np.flatnonzero(g.out_degrees)[0])
    with engine("pooled"):
        want = bfs(g, src, machine=Machine()).labels
    clear_fallbacks()
    with engine("unpooled"):
        problem = BfsProblem(g, Machine())
    problem.set_source(src)
    with observe() as ob, engine(mode):
        BfsEnactor(problem).enact(Frontier.from_vertex(src))
    assert fallback_log() == []
    samples = {k: v for k, v in ob.metrics.as_dict().items()
               if "_dispatch_total" in k}
    assert samples == {
        f'repro_{mode}_dispatch_total{{engine="{mode}",'
        f'primitive="bfs"}}': 1.0}
    assert problem.labels.dtype == want.dtype
    assert np.array_equal(problem.labels, want)


def test_invalid_env_engine_is_rejected():
    """``REPRO_ENGINE=fuzed`` must not run pooled unannounced: the run
    fails naming the allowed values.  The variable is read once, when
    ``repro.core.engine`` is imported, so each case is its own process."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("from repro.core.engine import engine_mode\n"
            "from repro.graph import from_edges\n"
            "from repro.primitives import bfs\n"
            "bfs(from_edges([(0, 1)], n=2), 0)\n"
            "print(engine_mode())")

    def run(value):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("REPRO_ENGINE", None)
        if value is not None:
            env["REPRO_ENGINE"] = value
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)

    bad = run("fuzed")
    assert bad.returncode != 0
    assert "ValueError: unknown engine 'fuzed'" in bad.stderr
    assert "('pooled', 'fused', 'la')" in bad.stderr
    for value, mode in ((" Fused ", "fused"), ("unpooled", "pooled"),
                        ("", "fused"), (None, "fused")):
        ok = run(value)
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.split() == [mode]


def test_capped_fused_sssp_leaves_the_pile_as_pooled_does():
    """Fused SSSP splits near/far through the enactor's own pile, so a
    run stopped at ``max_iterations`` leaves the deferred far slice (and
    the level) exactly where the library loop leaves it."""
    from repro.graph.generators import kronecker
    from repro.primitives.sssp import (SsspEnactor, SsspProblem,
                                       default_delta)

    g = with_random_weights(kronecker(10, seed=7), seed=7)
    src = int(np.flatnonzero(g.out_degrees)[0])
    piles = {}
    for mode in ("pooled", "fused"):
        clear_fallbacks()
        with engine(mode):
            problem = SsspProblem(g, Machine())
            problem.set_source(src)
            en = SsspEnactor(problem, delta=default_delta(g),
                             max_iterations=3)
            en.enact(Frontier.from_vertex(src))
        assert fallback_log() == []
        piles[mode] = en.pile.snapshot()
    assert len(piles["pooled"]["far"]) > 0
    assert piles["fused"]["level"] == piles["pooled"]["level"]
    for side in ("near", "far"):
        assert np.array_equal(piles["fused"][side], piles["pooled"][side])


# -- the selector ---------------------------------------------------------------


def test_engine_context_restores():
    """A scoped ``engine()`` selects inside and restores the previous
    mode on exit; the retired name ``unpooled`` selects pooled."""
    before = engine_mode()
    with engine("fused"):
        with engine("unpooled"):
            assert engine_mode() == "pooled"
        assert engine_mode() == "fused"
    assert engine_mode() == before


def test_set_engine_returns_previous_and_scopes_nest():
    """``engine()`` nests inside ``set_engine``: leaving the scope puts
    back the process-wide choice, not the default."""
    import repro.core.engine as E

    saved, before = E._ENGINE, engine_mode()
    try:
        assert set_engine("la") == before
        with engine("fused"):
            assert engine_mode() == "fused"
        assert engine_mode() == "la"
        assert set_engine("unpooled") == "la"
        assert engine_mode() == "pooled"
    finally:
        E._ENGINE = saved


# -- the default: no engine chosen ---------------------------------------------


def _dispatch_samples(ob):
    return {k: v for k, v in ob.metrics.as_dict().items()
            if "_dispatch_total" in k}


def _assert_arrays_equal(got, want):
    assert set(got) == set(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def _kron():
    from repro.graph.generators import kronecker

    return kronecker(8, seed=3)


#: primitive -> run(graph, machine) -> the result's output arrays
FUSABLE = {
    "bfs": lambda g, m: bfs(g, 0, machine=m).arrays,
    "sssp": lambda g, m: sssp(with_random_weights(g, seed=5), 0,
                              machine=m).arrays,
    "pagerank": lambda g, m: pagerank(g, machine=m).arrays,
    "ppr": lambda g, m: ppr(g, [0, 1], machine=m).arrays,
    "cc": lambda g, m: cc(g, machine=m).arrays,
    "bc": lambda g, m: bc(g, 0, machine=m).arrays,
}


@pytest.mark.parametrize("primitive", list(FUSABLE))
def test_default_takes_the_fused_runner(primitive, no_engine_chosen):
    """A fusable run that names no engine opens the ``fused:<prim>`` span
    and counts ``engine="fused"``, with outputs bitwise equal to pooled."""
    g = _kron()
    clear_fallbacks()
    with observe() as ob:
        got = FUSABLE[primitive](g, Machine())
    assert fallback_log() == []
    assert _dispatch_samples(ob) == {
        f'repro_fused_dispatch_total{{engine="fused",'
        f'primitive="{primitive}"}}': 1.0}
    assert [s.name for s in ob.tracer.spans if s.cat == CAT_FUSED] == \
        [f"fused:{primitive}"]
    with engine("pooled"):
        want = FUSABLE[primitive](g, Machine())
    _assert_arrays_equal(got, want)


def _refused_by_default(refusal, g):
    """Drive one run the fused engine refuses; returns (primitive, output
    arrays) — the primitive counted on the dispatch counter."""
    m = Machine()
    if refusal == "unknown_primitive":
        return "mis", mis(g, machine=m).arrays
    if refusal == "sanitizer_active":
        with sanitize(strict=True):
            return "bfs", bfs(g, 0, machine=m).arrays
    if refusal == "fault_injector":
        return "bfs", bfs(g, 0, machine=m, faults=FaultPlan()).arrays
    if refusal == "checkpointing":
        return "bfs", bfs(g, 0, machine=m, checkpoint_every=2).arrays
    if refusal == "non_idempotent_bfs":
        return "bfs", bfs(g, 0, machine=m, idempotent=False).arrays
    assert refusal == "alternating_cc"
    return "cc", cc(g, machine=m, alternate=True).arrays


DEFAULT_REFUSALS = ["unknown_primitive", "sanitizer_active", "fault_injector",
                    "checkpointing", "non_idempotent_bfs", "alternating_cc"]


@pytest.mark.parametrize("refusal", DEFAULT_REFUSALS)
def test_default_refusal_counts_pooled_and_logs_nothing(refusal,
                                                       no_engine_chosen):
    """Under the default nobody asked for fused: a refused run takes the
    library loop, counts ``engine="pooled"`` and leaves no fallback
    record."""
    g = _kron()
    clear_fallbacks()
    with observe() as ob:
        primitive, got = _refused_by_default(refusal, g)
    assert fallback_log() == []
    assert _dispatch_samples(ob) == {
        f'repro_fused_dispatch_total{{engine="pooled",'
        f'primitive="{primitive}"}}': 1.0}
    assert not [s for s in ob.tracer.spans if s.cat in (CAT_FUSED, CAT_LA)]
    with engine("pooled"):
        _, want = _refused_by_default(refusal, g)
    _assert_arrays_equal(got, want)


def test_default_run_of_every_primitive_logs_no_fallback(no_engine_chosen):
    """Every primitive the CLI runs — dispatched, refused, or hardwired
    (``kcore``, ``triangles``: no enactor, no dispatch) — leaves the
    fallback log empty when no engine is chosen."""
    from repro.cli import PRIMITIVES, _run_primitive

    g = _kron()
    clear_fallbacks()
    for primitive in PRIMITIVES:
        _run_primitive(primitive, g, 0, Machine())
        assert fallback_log() == [], primitive
