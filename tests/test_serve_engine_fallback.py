"""Serve-tier engine fallback contract: a batch dispatched with an
engine that has no lowering for its primitive must fall back to pooled
with a recorded reason, and the reply must stay bitwise-equal to a
pooled run.  Batches the engine *can* lower must dispatch it.
"""

import numpy as np

from repro.graph import generators
from repro.obs import observe
from repro.serve.batcher import plan_batches
from repro.serve.service import GraphService, ShardedGraphService
from repro.serve.shard import ShardTier
from repro.simt import Machine


def _graph():
    return generators.kronecker(8, seed=3)


def _run_service(engine, requests):
    svc = GraphService(engine=engine)
    svc.load_graph(_graph())
    replies = {}
    for prim, params in requests:
        for batch in plan_batches(prim, [(0, params)]):
            replies.update(svc.run_batch("default", batch, Machine()))
    return svc, replies


def _assert_replies_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        assert set(a[key].arrays) == set(b[key].arrays)
        for name in a[key].arrays:
            assert np.array_equal(a[key].arrays[name], b[key].arrays[name]), \
                (key, name)


def test_solo_batch_without_lowering_falls_back_with_reason():
    g = _graph()
    user = int(g.out_degrees.argmax())
    svc_la, r_la = _run_service("la", [("wtf", {"user": user})])
    svc_p, r_p = _run_service(None, [("wtf", {"user": user})])
    assert svc_la.engine_fallbacks, "fallback not recorded on the service"
    assert any("no linear-algebra lowering" in reason
               for _, reason in svc_la.engine_fallbacks)
    assert not svc_p.engine_fallbacks
    _assert_replies_equal(r_la, r_p)


def test_coalesced_batch_dispatches_la_and_matches_pooled():
    req = [("pagerank", {"max_iterations": 25})]
    with observe() as ob:
        svc_la, r_la = _run_service("la", req)
    _, r_p = _run_service(None, req)
    assert not [f for f in svc_la.engine_fallbacks if f[0] == "pagerank"]
    counts = ob.metrics.as_dict()
    assert counts.get(
        'repro_la_dispatch_total{engine="la",primitive="pagerank"}',
        0.0) >= 1.0
    # the la pagerank loop replays the pooled residual schedule: the
    # served rank vector matches bitwise (contract is allclose)
    _assert_replies_equal(r_la, r_p)


def test_fused_engine_fallbacks_are_recorded_too():
    g = _graph()
    user = int(g.out_degrees.argmax())
    svc, _ = _run_service("fused", [("wtf", {"user": user})])
    assert any("no fused runner" in reason
               for _, reason in svc.engine_fallbacks)


def test_laned_batches_stay_pooled_and_record_nothing():
    """A laned batch ignores the service's engine: it runs under the
    process default (fused where a runner exists; laned BFS is refused
    and takes the library loop), so the service records no fallback."""
    svc, replies = _run_service("la", [("bfs", {"src": 0})])
    assert not svc.engine_fallbacks
    assert replies


def test_sharded_service_runs_the_same_engine_dispatch():
    """One ``execute`` for both tiers: the sharded service dispatches its
    ``engine`` (and records fallbacks) exactly as the single pool does."""
    g = _graph()
    user = int(g.out_degrees.argmax())
    svc = ShardedGraphService(ShardTier(2, 1))
    svc.engine = "la"
    svc.load_graph(g)
    batch = plan_batches("wtf", [(0, {"user": user})])[0]
    results, version = svc.execute("default", batch, Machine())
    assert version == 0
    assert any("no linear-algebra lowering" in reason
               for _, reason in svc.engine_fallbacks)
    _, r_p = _run_service(None, [("wtf", {"user": user})])
    _assert_replies_equal(results, r_p)


def test_fallbacks_survive_the_log_trim():
    """The engine fallback log keeps the newest 128-256 entries; the
    service must not lose the records of the call on which it trims.
    Every solo ``wtf`` under ``la`` falls back, so after N executes the
    service's list must agree with the dispatch counter."""
    from repro.core.engine import _FALLBACK_LIMIT

    g = generators.kronecker(5, seed=3)
    svc = GraphService(engine="la")
    svc.load_graph(g)
    batch = plan_batches("wtf", [(0, {"user": int(g.out_degrees.argmax())})])[0]
    with observe() as ob:
        svc.execute("default", batch, Machine())
        per_call = len(svc.engine_fallbacks)
        assert per_call >= 1
        calls = _FALLBACK_LIMIT // per_call + 40
        for _ in range(calls - 1):
            svc.execute("default", batch, Machine())
    assert calls * per_call > _FALLBACK_LIMIT
    assert len(svc.engine_fallbacks) == calls * per_call
    pooled = sum(v for k, v in ob.metrics.as_dict().items()
                 if k.startswith("repro_la_dispatch_total")
                 and 'engine="pooled"' in k)
    assert pooled == len(svc.engine_fallbacks)
