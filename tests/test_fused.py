"""The fused engine's identity contract, fallback behavior, and plan cache.

The tentpole invariant: for every fusable primitive, a fused run is
bitwise-identical to the pooled library loop — every output array
(values *and* dtype), every kernel record (name, cycles, items,
iteration), the total simulated cycles, and every aggregate counter.
Hypothesis drives random topologies through all four engines via the
shared differential harness (:mod:`engines`), which also asserts the
la backend's per-primitive contract; the remaining tests pin the
fallback contract (blocked primitives take the pooled path and surface
a reason; the refusals common to every engine are pinned in
``test_engine_dispatch.py``) and the per-graph plan cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engines import (ALL_ENGINES, assert_engine_identity,
                     counter_signature as _counter_signature, run_all_engines,
                     run_engines)
from repro.core import Frontier
from repro.core.engine import (clear_fallbacks, engine, engine_mode,
                               fallback_log, last_fallback, set_engine)
from repro.graph import from_edges
from repro.graph.build import with_random_weights
from repro.graph.generators import rmat
from repro.primitives.pagerank import PprEnactor, PprProblem, PprResult
from repro.simt import Machine


# -- strategies ---------------------------------------------------------------


@st.composite
def edge_lists(draw, max_n=24, max_m=90):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    return n, edges


# -- cross-engine identity, per primitive (shared harness) --------------------


@given(edge_lists(), st.integers(0, 23),
       st.sampled_from(["auto", "push"]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_bfs_cross_engine_identity(data, src, direction, record_preds):
    n, edges = data
    g = from_edges(edges, n=n, undirected=True)
    run_all_engines("bfs", g, src=src % n, direction=direction,
                    record_preds=record_preds)


@given(edge_lists(), st.integers(0, 23), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_sssp_cross_engine_identity(data, src, use_pq, weight_seed):
    n, edges = data
    g = with_random_weights(from_edges(edges, n=n, undirected=True),
                            seed=weight_seed)
    run_all_engines("sssp", g, src=src % n, use_priority_queue=use_pq)


@given(edge_lists(), st.integers(1, 40))
@settings(max_examples=20, deadline=None)
def test_pagerank_cross_engine_identity(data, iterations):
    n, edges = data
    g = from_edges(edges, n=n, undirected=True)
    run_all_engines("pagerank", g, max_iterations=iterations)


@given(edge_lists(), st.lists(st.integers(0, 23), min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_ppr_cross_engine_identity(data, seeds):
    n, edges = data
    g = from_edges(edges, n=n, undirected=True)
    run_all_engines("ppr", g, seeds=[s % n for s in seeds],
                    max_iterations=40)


@given(edge_lists())
@settings(max_examples=20, deadline=None)
def test_cc_cross_engine_identity(data):
    n, edges = data
    g = from_edges(edges, n=n, undirected=True)
    run_all_engines("cc", g)


@given(edge_lists(), st.integers(0, 23))
@settings(max_examples=20, deadline=None)
def test_bc_cross_engine_identity(data, src):
    # bc has no LA lowering: the harness asserts the la run falls back
    # to pooled (with a reason) and stays bitwise-identical
    n, edges = data
    g = from_edges(edges, n=n, undirected=True)
    run_all_engines("bc", g, src=src % n)


# -- rank loops from a frontier the transpose product refuses -----------------


@pytest.mark.parametrize("charged", [False, True])
@pytest.mark.parametrize("duplicates", [0, 50])
@pytest.mark.parametrize("trial", range(3))
def test_ppr_from_an_unsorted_or_repeating_frontier(charged, duplicates,
                                                    trial):
    """A start frontier out of order (or repeating vertices) delivers each
    cell's lanes out of CSC order: the shared transpose product refuses
    it, so fused takes its bincount and la its SpMSpV — fused bitwise
    equal to pooled, la within its rank tolerance."""
    g = rmat(10, seed=3)
    rng = np.random.default_rng(trial)
    start = rng.permutation(g.n)[:g.n // 2]
    if duplicates:
        start = np.concatenate([start, rng.choice(start, duplicates)])
        rng.shuffle(start)
    seeds = np.unique(start)  # np.unique ok: test input

    def run(machine):
        P = PprProblem(g, seeds, machine if charged else None)
        PprEnactor(P, max_iterations=3).enact(Frontier(start))
        return PprResult(arrays={"rank": P.rank})

    assert_engine_identity(run_engines(run, engines=ALL_ENGINES), "ppr")


# -- fallback contract --------------------------------------------------------


def _line_graph():
    return from_edges([(i, i + 1) for i in range(16)], n=17, undirected=True)


def test_non_idempotent_bfs_falls_back_with_reason():
    """The CAS-claim BFS path is not specialized: fused runs must take
    the pooled loop and record why."""
    from repro.primitives import bfs

    g = _line_graph()
    clear_fallbacks()
    with engine("fused"):
        mf = Machine()
        rf = bfs(g, 0, machine=mf, idempotent=False)
    prim, reason = last_fallback()
    assert prim == "bfs"
    assert "idempotent" in reason
    with engine("pooled"):
        mp = Machine()
        rp = bfs(g, 0, machine=mp, idempotent=False)
    assert np.array_equal(rf.labels, rp.labels)
    assert _counter_signature(mf) == _counter_signature(mp)


def test_alternating_cc_falls_back_with_reason():
    from repro.primitives import cc

    g = _line_graph()
    clear_fallbacks()
    with engine("fused"):
        r = cc(g, machine=Machine(), alternate=True)
    prim, reason = last_fallback()
    assert prim == "cc"
    assert "alternating" in reason
    assert r.num_components == 1


def test_fallback_log_accumulates_and_clears():
    from repro.primitives import bfs

    g = _line_graph()
    clear_fallbacks()
    with engine("fused"):
        bfs(g, 0, idempotent=False)
        bfs(g, 0, idempotent=False)
    assert len(fallback_log()) == 2
    clear_fallbacks()
    assert fallback_log() == []
    assert last_fallback() is None


# -- engine selection ---------------------------------------------------------


def test_engine_context_restores_mode():
    before = engine_mode()
    with engine("fused"):
        assert engine_mode() == "fused"
        with engine("unpooled"):
            assert engine_mode() == "unpooled"
        assert engine_mode() == "fused"
    assert engine_mode() == before


def test_engine_rejects_unknown_mode():
    import pytest

    with pytest.raises(ValueError):
        set_engine("warp-speed")


def test_fused_engine_implies_pooling():
    from repro.core.workspace import Workspace

    with engine("fused"):
        assert Workspace().pooled
    with engine("unpooled"):
        assert not Workspace().pooled


# -- plans and the per-graph cache --------------------------------------------


def test_plan_cache_reuses_compiled_plan():
    from repro.analysis.plan import plan_for

    g = _line_graph()
    first = plan_for("bfs", g)
    assert plan_for("bfs", g) is first
    # a different graph compiles its own regime table
    other = plan_for("bfs", _line_graph())
    assert other is not first
    assert other.static_dict() == first.static_dict()


def test_fused_run_attaches_plan_and_caches_it():
    from repro.primitives import bfs

    g = _line_graph()
    assert g._fused_plans is None or "bfs" not in g._fused_plans
    with engine("fused"):
        bfs(g, 0, machine=Machine())
    assert "bfs" in g._fused_plans
    plan = g._fused_plans["bfs"]
    assert plan.fusable
    assert plan.regimes is not None and plan.regimes.n == g.n


def test_blocked_plan_carries_reasons():
    from repro.analysis.plan import compile_plan

    plan = compile_plan(None, "nonesuch")
    assert not plan.fusable
    assert any("no analysis report" in r for r in plan.blocked)


def test_static_plans_cover_fusable_primitives():
    from repro.analysis.plan import static_plans

    plans = static_plans()
    for name in ("bfs", "sssp", "pagerank", "ppr", "cc", "bc"):
        assert name in plans, name
        assert plans[name].fusable, (name, plans[name].blocked)
    # hardwired primitives must be blocked, never silently planned
    assert not plans["triangles"].fusable


def test_plan_masks_and_lowerings_are_classified():
    from repro.analysis.plan import static_plans

    plans = static_plans()
    valid = {"known_true", "known_false", "dynamic"}
    for plan in plans.values():
        for stage in plan.stages:
            assert stage.cond_mask in valid
            assert stage.apply_mask in valid
    # sssp's relax has no cond_edge: every lane enters apply
    relax = next(s for s in plans["sssp"].stages if s.op == "advance")
    assert relax.cond_mask == "known_true"
    assert relax.apply_mask == "dynamic"
    assert plans["sssp"].atomic_lowerings["min"] == "winner_lane_fold"
    assert plans["pagerank"].atomic_lowerings["add"] == "segmented_sum"


def test_report_schema_v2_serializes_plans():
    from repro.analysis.fusion import analyze_paths
    from repro.analysis.report import (REPORT_SCHEMA_VERSION,
                                       report_to_dict, validate_report_dict)
    import os

    import repro

    assert REPORT_SCHEMA_VERSION == 2
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    report = analyze_paths([os.path.join(pkg, "primitives")])
    data = report_to_dict(report)
    assert validate_report_dict(data) == []
    assert data["fused_plans"]["bfs"]["fusable"]
    # ppr runs pagerank's two functors: same plan, stage for stage
    ppr, pr = data["fused_plans"]["ppr"], data["fused_plans"]["pagerank"]
    assert ppr["fusable"] and not ppr["blocked"]
    assert ppr["atomic_lowerings"] == {"add": "segmented_sum"}
    assert [s["name"] for s in ppr["stages"]] == ["advance:advance",
                                                  "filter:filter"]
    unlined = [[{k: v for k, v in s.items() if k != "line"}
                for s in plan["stages"]] for plan in (ppr, pr)]
    assert unlined[0] == unlined[1]


# -- observability ------------------------------------------------------------


def test_fused_span_and_dispatch_counter():
    from repro.obs import observe
    from repro.obs.spans import CAT_FUSED
    from repro.primitives import bfs

    g = _line_graph()
    with observe() as ob, engine("fused"):
        bfs(g, 0, machine=Machine())
        bfs(g, 0, machine=Machine(), idempotent=False)  # falls back
    fused_spans = [s for s in ob.tracer.spans if s.cat == CAT_FUSED]
    assert len(fused_spans) == 1
    assert fused_spans[0].args["primitive"] == "bfs"
    assert "advance" in fused_spans[0].args["fused_ops"]
    assert fused_spans[0].args["stage_count"] >= 1
    counts = ob.metrics.as_dict()
    assert counts[
        'repro_fused_dispatch_total{engine="fused",primitive="bfs"}'] == 1.0
    assert counts[
        'repro_fused_dispatch_total{engine="pooled",primitive="bfs"}'] == 1.0
