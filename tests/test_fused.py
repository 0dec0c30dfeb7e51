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
from repro.dynamic.delta import MutationBatch, apply
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


@given(edge_lists(), st.integers(0, 3),
       st.lists(st.tuples(st.integers(0, 26), st.integers(0, 26)),
                min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_cc_directed_loops_and_unsorted_rows(data, isolated, inserts):
    """The first hook's closed form where its shortcuts could go wrong:
    directed input with self-loops (which fail the hook's cond), parallel
    edges and isolated vertices; a version whose inserts land at row
    ends, so its CSR rows are out of order; and that version's reverse,
    whose CSC is the unsorted graph.

    Every round with survivors merges two components, so a correct run
    ends within ``n`` rounds; capping fused and pooled there turns a
    runner that never empties its frontier into a mismatch instead of a
    hang.  la refuses a capped run, so it is checked uncapped."""
    n, edges = data
    n += isolated
    g = from_edges(edges, n=n)
    batch = MutationBatch(inserts=[(u % n, v % n) for u, v in inserts])
    h = apply(g, batch)
    for graph in (g, h, h.csc):
        run_all_engines("cc", graph, engines=("pooled", "fused"),
                        max_iterations=n + 1)
        run_all_engines("cc", graph, engines=("pooled", "la"))


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
        with engine("la"):
            assert engine_mode() == "la"
        assert engine_mode() == "fused"
    assert engine_mode() == before


def test_engine_rejects_unknown_mode():
    import pytest

    with pytest.raises(ValueError):
        set_engine("warp-speed")


# -- plans and the per-graph cache --------------------------------------------


def test_plan_cache_reuses_compiled_plan():
    from repro.analysis.plan import plan_for

    g = _line_graph()
    first = plan_for("bfs", g)
    assert plan_for("bfs", g) is first
    # a different graph compiles its own regime table
    other = plan_for("bfs", _line_graph())
    assert other is not first
    assert (other.fusable, other.blocked, other.stages) == \
        (first.fusable, first.blocked, first.stages)


def test_fused_run_attaches_plan_and_caches_it():
    from repro.analysis.plan import RegimeTable
    from repro.primitives import bfs

    g = _line_graph()
    assert g._fused_plans is None or "bfs" not in g._fused_plans
    with engine("fused"):
        bfs(g, 0, machine=Machine())
    assert "bfs" in g._fused_plans
    plan = g._fused_plans["bfs"]
    assert plan.fusable
    assert plan.regimes == RegimeTable.learn(g)


def test_blocked_plan_carries_reasons():
    from repro.analysis.plan import compile_plan

    plan = compile_plan(None, "nonesuch")
    assert not plan.fusable
    assert any("no analysis report" in r for r in plan.blocked)


def test_static_plans_cover_fusable_primitives():
    from repro.analysis.plan import _report_index, compile_plan

    plans = {name: compile_plan(rep, name)
             for name, rep in _report_index().items()}
    for name in ("bfs", "sssp", "pagerank", "ppr", "cc", "bc"):
        assert name in plans, name
        assert plans[name].fusable, (name, plans[name].blocked)
    # hardwired primitives must be blocked, never silently planned
    assert not plans["triangles"].fusable
    assert len(plans["triangles"].blocked) == 1


def test_report_schema_v2_serializes_plans():
    """Schema v3 dropped v2's ``fused_plans``: each verdict is stated
    once, under ``primitives``."""
    from repro.analysis.fusion import analyze_paths
    from repro.analysis.report import (REPORT_SCHEMA_VERSION,
                                       report_to_dict, validate_report_dict)
    import os

    import repro

    assert REPORT_SCHEMA_VERSION == 3
    pkg = os.path.dirname(os.path.abspath(repro.__file__))
    report = analyze_paths([os.path.join(pkg, "primitives")])
    data = report_to_dict(report)
    assert validate_report_dict(data) == []
    assert "fused_plans" not in data
    prims = {p["name"]: p for p in data["primitives"]}
    assert prims["bfs"]["fusable"]
    # ppr runs pagerank's two functors: the same DAG, node for node
    ppr, pr = prims["ppr"], prims["pagerank"]
    assert ppr["fusable"] and not ppr["blocking"]
    assert [f"{n['op']}:{n['label']}" for n in ppr["dag"]] == \
        ["advance:advance", "filter:filter"]
    unlined = [[{k: v for k, v in n.items() if k != "line"}
                for n in p["dag"]] for p in (ppr, pr)]
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


def _traced_run(primitive, g, mode, machine):
    """One run under ``mode``: (trace events, spans without the fused
    span or the attributes kernel spans inherit from it)."""
    from repro.obs import observe
    from repro.obs.spans import CAT_FUSED
    from repro.primitives import bc, bfs, cc, pagerank, ppr, sssp

    src = int(np.flatnonzero(g.out_degrees)[0])
    runs = {
        "bfs": lambda m: bfs(g, src, machine=m),
        "bfs_push": lambda m: bfs(g, src, machine=m, direction="push"),
        "sssp": lambda m: sssp(with_random_weights(g, seed=1), src,
                               machine=m),
        "sssp_no_pile": lambda m: sssp(with_random_weights(g, seed=1), src,
                                       machine=m, use_priority_queue=False),
        "pagerank": lambda m: pagerank(g, machine=m),
        "ppr": lambda m: ppr(g, [src, src + 1], machine=m),
        "cc": lambda m: cc(g, machine=m),
        "bc": lambda m: bc(g, src, machine=m),
    }
    with observe() as ob, engine(mode):
        r = runs[primitive](Machine() if machine else None)
    trace = [(e.iteration, e.op, e.in_size, e.out_size)
             for e in r.enactor_stats.trace]
    spans = [(s.name, s.cat, s.device,
              {k: v for k, v in s.args.items()
               if k not in ("fused_ops", "stage_count")})
             + ((s.ts, s.dur) if machine else ())
             for s in ob.tracer.spans if s.cat != CAT_FUSED]
    return trace, spans


@pytest.mark.parametrize("machine", [True, False],
                         ids=["machine", "wallclock"])
@pytest.mark.parametrize("graph", ["kron", "road", "hub"])
@pytest.mark.parametrize("primitive", [
    "bfs", "bfs_push", "sssp", "sssp_no_pile", "pagerank", "ppr", "cc",
    "bc"])
def test_fused_run_leaves_the_library_trace(primitive, graph, machine):
    """A fused run is as observable as the library loop: the same
    ``enactor_stats.trace`` (the Figure 5 operator flow) and the same
    superstep, operator and kernel spans with the same attributes — and,
    with a machine attached, the same simulated timestamps — plus only
    its own ``fused:<primitive>`` span."""
    from repro.graph.generators import hub_graph, kronecker, road_grid

    g = {"kron": lambda: kronecker(9, seed=3),
         "road": lambda: road_grid(20, 14, seed=2),
         "hub": lambda: hub_graph(600, seed=4)}[graph]()
    clear_fallbacks()
    fused = _traced_run(primitive, g, "fused", machine)
    assert fallback_log() == []
    pooled = _traced_run(primitive, g, "pooled", machine)
    assert fused[0], "no operator traced"
    assert fused[0] == pooled[0]
    assert fused[1] == pooled[1]


# -- BC's dependency pass -----------------------------------------------------


def _bc_graph(name):
    from repro.graph.generators import hub_graph, road_grid

    return {"road": lambda: road_grid(20, 14, seed=2),
            "rmat": lambda: rmat(8, seed=1),
            "hub": lambda: hub_graph(400, seed=4),
            # a triangle, a path and two isolated vertices
            "disconnected": lambda: from_edges(
                [(0, 1), (1, 2), (2, 0), (5, 6), (6, 7)], n=10,
                undirected=True),
            # vertex 0 has no out-edges
            "sink": lambda: from_edges([(1, 2), (2, 3), (3, 0)], n=4)}[name]()


@pytest.fixture
def library_advances(monkeypatch):
    """The functor class of every library ``advance`` call, in order."""
    import repro.core.enactor as enactor_mod

    calls = []
    library_advance = enactor_mod._advance

    def counting(problem, frontier, functor, **kw):
        calls.append(type(functor).__name__)
        return library_advance(problem, frontier, functor, **kw)

    monkeypatch.setattr(enactor_mod, "_advance", counting)
    return calls


@pytest.mark.parametrize("graph,sources,kw", [
    ("road", 0, {}),
    ("road", [0, 57, 211], {}),
    ("rmat", [0, 3, 9], {}),
    ("hub", [0, 1, 2], {}),
    ("road", [0, 57], {"max_iterations": 3}),
    ("hub", 0, {"max_iterations": 1}),
    ("disconnected", None, {}),
    ("disconnected", [5, 9], {}),
    ("sink", None, {}),
    ("sink", 0, {}),
], ids=["road", "road-3src", "rmat-3src", "hub-3src", "road-maxit3",
        "hub-maxit1", "disconnected-all", "disconnected-2src", "sink-all",
        "sink-src"])
def test_default_bc_is_pooled_bc_bitwise(graph, sources, kw,
                                         no_engine_chosen, library_advances):
    """The default BC (fused forward, replayed dependency pass) leaves
    what explicit pooled leaves: every array's bits and dtype, the
    kernel record, the aggregate counters, simulated time, iterations
    and the operator trace — also when ``max_iterations`` stops the
    forward before its last level was expanded."""
    from repro.primitives import bc

    g = _bc_graph(graph)
    md = Machine()
    rd = bc(g, sources, machine=md, **kw)
    assert library_advances == [], "the default BC left the fused path"
    with engine("pooled"):
        mp = Machine()
        rp = bc(g, sources, machine=mp, **kw)
    for key, a in rp.arrays.items():
        b = rd.arrays[key]
        assert a.dtype == b.dtype, key
        assert a.tobytes() == b.tobytes(), key
    assert _counter_signature(md) == _counter_signature(mp)
    assert md.counters.as_dict() == mp.counters.as_dict()
    assert rd.elapsed_ms == rp.elapsed_ms
    assert rd.iterations == rp.iterations
    assert rd.enactor_stats.trace == rp.enactor_stats.trace


def test_default_bc_runs_no_library_advance(no_engine_chosen,
                                           library_advances):
    """The default BC reaches the library ``advance`` operator zero
    times; explicit pooled runs it once per forward step and once per
    replayed level."""
    from repro.primitives import bc

    calls = library_advances
    g = _bc_graph("road")
    r = bc(g, 0, machine=Machine())
    assert calls == []
    with engine("pooled"):
        rp = bc(g, 0, machine=Machine())
    levels = int(rp.labels.max())
    assert calls.count("_ForwardFunctor") == rp.iterations == levels + 1
    assert calls.count("_BackwardFunctor") == levels
    assert r.bc_values.tobytes() == rp.bc_values.tobytes()


@pytest.mark.parametrize("mode", ["fused", "pooled"])
def test_bc_source_dependency_is_positive_zero(mode):
    """The dependency pass never replays the source's level, so
    ``delta[src]`` stays +0.0 and ``bc()``'s unmasked add equals the
    Brandes sum over every vertex but the source, bitwise."""
    from repro.primitives import bc
    from repro.primitives.bc import BcEnactor, BcProblem

    g = _bc_graph("road")
    sources = (0, 57, 211)
    P = BcProblem(g)
    en = BcEnactor(P)
    expected = np.zeros(g.n)
    with engine(mode):
        for src in sources:
            P.reset_source(src)
            en.level_frontiers = []
            en.enact(Frontier.from_vertex(src))
            en.backward()
            assert P.delta[src] == 0.0 and not np.signbit(P.delta[src])
            others = np.arange(g.n) != src
            expected[others] += P.delta[others]
        got = bc(g, list(sources)).bc_values
    assert got.tobytes() == expected.tobytes()
