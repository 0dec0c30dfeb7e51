"""Sharded serving tier: routing, replica equivalence, failover,
hedging, breaker health, kill/repair, and report determinism."""

import json

import numpy as np
import pytest

from repro.graph import generators
from repro.multi import InterconnectSpec
from repro.primitives import bfs, pagerank
from repro.resilience import RetryPolicy
from repro.serve import (BreakerPolicy, FANOUT, Request, ShardScheduler,
                         ShardTier, ShardedGraphService, WorkloadSpec,
                         build_shard_map, parse_kill_schedule,
                         run_sharded_serving, run_serving,
                         shard_hotspot_popularity)
from repro.serve.batcher import batched_bfs, query_key
from repro.serve.shard import H_CLOSED, H_HALF_OPEN, H_OPEN, Replica
from repro.simt import Machine


@pytest.fixture(scope="module")
def g():
    return generators.kronecker(9, seed=3)


def _tier(shards=4, replicas=2, **kw):
    return ShardTier(shards, replicas, **kw)


def _service(graph, shards=4, replicas=2, **kw):
    service = ShardedGraphService(_tier(shards, replicas), **kw)
    service.load_graph(graph)
    return service


def _bfs_requests(sources, deadline=float("inf"), spacing=0.1):
    return [Request(rid=i, primitive="bfs", params={"src": int(s)},
                    arrival_ms=i * spacing, deadline_ms=deadline)
            for i, s in enumerate(sources)]


# -- kill schedules ----------------------------------------------------------


def test_parse_kill_schedule():
    evs = parse_kill_schedule("12:2:*,5:0:1", shards=4, replicas=2)
    assert [(e.at_ms, e.shard, e.replica) for e in evs] == \
        [(5.0, 0, 1), (12.0, 2, None)]
    assert parse_kill_schedule("", 4, 2) == []


@pytest.mark.parametrize("text", ["5:9:0", "5:0:7", "-1:0:0", "5:0", "x:0:0"])
def test_parse_kill_schedule_rejects(text):
    with pytest.raises(ValueError):
        parse_kill_schedule(text, shards=4, replicas=2)


# -- replica health state machine --------------------------------------------


def test_breaker_policy_validation():
    with pytest.raises(ValueError):
        BreakerPolicy(failure_threshold=0)
    with pytest.raises(ValueError):
        BreakerPolicy(cooldown_ms=-1.0)


def test_breaker_opens_after_threshold_and_half_open_probes():
    rep = Replica(0, 0, 0, Machine(),
                  breaker=BreakerPolicy(failure_threshold=3, cooldown_ms=10.0))
    rep.on_failure(1.0)
    rep.on_failure(2.0)
    assert rep.state == H_CLOSED
    rep.on_failure(3.0)
    assert rep.state == H_OPEN
    assert rep.breaker_opens == 1
    # the open cooldown is charged to the simulated clock
    assert rep.available_at(4.0) == 13.0
    rep.begin_dispatch(13.0)
    assert rep.state == H_HALF_OPEN
    # a successful probe closes the breaker and resets the count
    rep.on_success(14.0)
    assert rep.state == H_CLOSED
    assert rep.consecutive_failures == 0


def test_breaker_half_open_failure_reopens_immediately():
    rep = Replica(0, 0, 0, Machine(),
                  breaker=BreakerPolicy(failure_threshold=3, cooldown_ms=10.0))
    for t in (1.0, 2.0, 3.0):
        rep.on_failure(t)
    rep.begin_dispatch(13.0)
    assert rep.state == H_HALF_OPEN
    rep.on_failure(14.0)  # one probe failure re-opens, no threshold needed
    assert rep.state == H_OPEN
    assert rep.open_until_ms == 24.0


def test_group_pick_balances_and_demotes():
    tier = _tier(1, 3)
    group = tier.groups[0]
    group.replicas[0].busy_until_ms = 5.0
    rep, at = group.pick(0.0)
    assert (rep.index, at) == (1, 0.0)
    # prefer_not demotes a sibling without excluding it
    rep, _ = group.pick(0.0, prefer_not=group.replicas[1])
    assert rep.index == 2
    group.replicas[2].kill()
    rep, _ = group.pick(0.0, prefer_not=group.replicas[1])
    assert rep.index == 1  # only candidate left, demotion notwithstanding
    for r in group.replicas:
        r.kill()
    assert group.pick(0.0) is None and group.down


# -- ownership maps ----------------------------------------------------------


def test_shard_map_cascade_conserves_ownership(g):
    sm = build_shard_map(g, 4, "contiguous", dead_order=[1, 3])
    assert not np.any(sm.owner == 1)
    assert not np.any(sm.owner == 3)
    assert sm.pg.parts[1].n_local == 0 and sm.pg.parts[3].n_local == 0
    assert sum(p.n_local for p in sm.pg.parts) == g.n
    assert sum(p.m_local for p in sm.pg.parts) == g.m
    # the cascade is a pure function of the death order
    again = build_shard_map(g, 4, "contiguous", dead_order=[1, 3])
    assert np.array_equal(sm.owner, again.owner)


def test_route_by_primitive(g):
    service = _service(g)
    owner = service.shard_map().owner
    req = Request(0, "bfs", {"src": 7})
    assert service.route(req) == owner[7]
    assert service.route(Request(1, "sssp", {"src": 300})) == owner[300]
    assert service.route(Request(2, "ppr", {"seeds": (9, 4)})) == owner[4]
    assert service.route(Request(3, "wtf", {"user": 11, "k": 5})) == owner[11]
    assert service.route(Request(4, "pagerank", {})) == FANOUT
    with pytest.raises(ValueError):
        service.route(Request(5, "bfs", {"src": g.n + 1}))


def test_cache_keys_are_shard_scoped(g):
    service = _service(g)
    req = Request(0, "bfs", {"src": 3})
    sid = service.route(req)
    from repro.serve.batcher import plan_batches
    batch = plan_batches("bfs", [(0, req.params)], 8)[0]
    results, version = service.execute("default", batch, Machine())
    assert service.lookup(req, sid) is None  # executed, not yet committed
    service.commit("default", version, results, sid)
    assert service.lookup(req, sid) is not None
    assert service.lookup(req, sid + 1) is None  # other shard: miss
    assert service.lookup(req) is None  # nor under the unprefixed key


# -- replica-served results == single-node results ---------------------------


def _cached_labels(service, src):
    req = Request(0, "bfs", {"src": src})
    sid = service.route(req)
    hit = service.lookup(req, sid)
    assert hit is not None, f"bfs src={src} not cached"
    return hit.arrays["labels"]


def test_replica_served_bfs_bitwise_equals_single_node(g):
    sources = [3, 97, 200, 411]
    service = _service(g)
    sched = ShardScheduler(service, seed=0)
    sched.replay(_bfs_requests(sources))
    for src in sources:
        want = batched_bfs(g, [src])[0].arrays["labels"]
        assert np.array_equal(_cached_labels(service, src), want)
        # depth labels equal the default single-query primitive too
        assert np.array_equal(_cached_labels(service, src),
                              bfs(g, src).labels)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_results_invariant_under_shard_count(g, shards):
    sources = [3, 97, 200]
    service = _service(g, shards=shards, replicas=2)
    sched = ShardScheduler(service, seed=0)
    sched.replay(_bfs_requests(sources))
    for src in sources:
        assert np.array_equal(_cached_labels(service, src),
                              batched_bfs(g, [src])[0].arrays["labels"])


def test_results_invariant_under_replica_choice(g):
    # same queries, kills forcing the sibling replica: same bytes
    sources = [3, 97, 200]
    plain = _service(g)
    ShardScheduler(plain, seed=0).replay(_bfs_requests(sources))
    forced = _service(g)
    sched = ShardScheduler(forced, seed=0)
    kills = parse_kill_schedule("0:0:0,0:1:0,0:2:0,0:3:0", 4, 2)
    sched.replay(_bfs_requests(sources, spacing=1.0), kills=kills)
    for src in sources:
        assert np.array_equal(_cached_labels(plain, src),
                              _cached_labels(forced, src))


def test_fanout_pagerank_matches_single_and_shard_invariant(g):
    key = query_key("pagerank", {})
    ranks = {}
    for shards in (2, 4):
        service = _service(g, shards=shards)
        sched = ShardScheduler(service, seed=0)
        sched.replay([Request(0, "pagerank", {}, arrival_ms=0.0)])
        vg = service.graph_version()
        hit = service.cache.get("default", vg.version,
                                (("shard", FANOUT),) + key)
        assert hit is not None
        ranks[shards] = hit.arrays["rank"]
    assert np.array_equal(ranks[2], ranks[4])
    np.testing.assert_allclose(ranks[4], pagerank(g).rank, atol=1e-12)


# -- failover and health under faults ----------------------------------------


def test_transient_fault_fails_over_to_sibling(g):
    service = _service(g, shards=2, replicas=2)
    sched = ShardScheduler(service, seed=3, fault_rate=0.4,
                           retry=RetryPolicy(max_retries=3))
    done = sched.replay(_bfs_requests([3, 97, 200, 411, 30, 77], spacing=8.0))
    assert sched.failovers > 0
    assert all(c.served for c in done)
    for src in (3, 97, 200):
        assert np.array_equal(_cached_labels(service, src),
                              batched_bfs(g, [src])[0].arrays["labels"])


def test_retries_exhausted_is_typed_failed(g):
    service = _service(g, shards=1, replicas=2)
    sched = ShardScheduler(service, seed=1, fault_rate=0.97,
                           retry=RetryPolicy(max_retries=1))
    done = sched.replay(_bfs_requests([3, 97, 200, 411], spacing=30.0))
    failed = [c for c in done if c.outcome == "failed"]
    assert failed and all(c.reason == "retries_exhausted" for c in failed)


def test_sustained_faults_open_breakers(g):
    service = _service(
        g, shards=1, replicas=2)
    service.tier.breaker = BreakerPolicy(failure_threshold=2,
                                         cooldown_ms=5.0)
    for rep in service.tier.all_replicas():
        rep.breaker = service.tier.breaker
    sched = ShardScheduler(service, seed=5, fault_rate=0.9,
                           retry=RetryPolicy(max_retries=6))
    sched.replay(_bfs_requests(list(range(3, 43)), spacing=4.0))
    assert sched.shard_summary()["breaker_opens"] > 0


# -- kills, repair, degradation ----------------------------------------------


def test_kill_one_replica_fails_over_in_flight(g):
    service = _service(g, shards=1, replicas=2)
    sched = ShardScheduler(service, seed=0, batch_window_ms=0.0)
    # the lone request dispatches at t=0 on replica 0; kill it mid-flight
    kills = parse_kill_schedule("0.01:0:0", 1, 2)
    done = sched.replay(_bfs_requests([3], spacing=0.0), kills=kills)
    assert sched.failovers == 1
    assert len(done) == 1 and done[0].outcome == "ok"
    assert np.array_equal(_cached_labels(service, 3),
                          batched_bfs(g, [3])[0].arrays["labels"])


def test_whole_group_death_repairs_and_reroutes(g):
    service = _service(g, shards=4, replicas=2)
    owner = service.shard_map().owner.copy()
    dead_vertex = int(np.flatnonzero(owner == 1)[0])
    sched = ShardScheduler(service, seed=0)
    kills = parse_kill_schedule("1:1:*", 4, 2)
    reqs = [Request(0, "bfs", {"src": dead_vertex}, arrival_ms=5.0,
                    deadline_ms=1000.0)]
    done = sched.replay(reqs, kills=kills)
    # repair re-homed the vertex onto a survivor and the query ran there
    assert sched.repairs == 1
    assert service.shard_map().shard_of(dead_vertex) != 1
    assert len(done) == 1 and done[0].outcome == "ok"
    assert np.array_equal(_cached_labels(service, dead_vertex),
                          batched_bfs(g, [dead_vertex])[0].arrays["labels"])


def test_shard_down_shed_is_typed(g):
    # a slow interconnect keeps the repair pending long past the deadline
    tier = ShardTier(4, 2, interconnect=InterconnectSpec(latency_us=1e6))
    service = ShardedGraphService(tier)
    service.load_graph(g)
    owner = service.shard_map().owner.copy()
    dead_vertex = int(np.flatnonzero(owner == 1)[0])
    sched = ShardScheduler(service, seed=0)
    kills = parse_kill_schedule("1:1:*", 4, 2)
    reqs = [Request(0, "bfs", {"src": dead_vertex}, arrival_ms=5.0,
                    deadline_ms=0.05)]
    done = sched.replay(reqs, kills=kills)
    assert len(done) == 1
    assert done[0].outcome == "shed" and done[0].reason == "shard_down"
    assert sched.shard_down_shed == 1


def test_fanout_degrades_to_partial_when_group_down(g):
    tier = ShardTier(2, 1, interconnect=InterconnectSpec(latency_us=1e6))
    service = ShardedGraphService(tier)
    service.load_graph(g)
    sched = ShardScheduler(service, seed=0)
    kills = parse_kill_schedule("0.5:1:*", 2, 1)
    done = sched.replay(
        [Request(0, "pagerank", {}, arrival_ms=1.0, deadline_ms=2.0)],
        kills=kills)
    assert len(done) == 1
    assert done[0].outcome == "partial" and done[0].reason == "degraded"
    # degraded ranks are never cached: a later ask recomputes fully
    vg = service.graph_version()
    assert service.cache.get("default", vg.version,
                             (("shard", FANOUT),) + query_key(
                                 "pagerank", {})) is None
    assert service.cache.stats.stale_rejections == 0


def test_per_shard_queue_bound_isolates_hotspots(g):
    service = _service(g, shards=4, replicas=1)
    owner = service.shard_map().owner.copy()
    hot = [int(v) for v in np.flatnonzero(owner == 0)[:6]]
    cold = int(np.flatnonzero(owner == 2)[0])
    sched = ShardScheduler(service, seed=0, max_queue=2,
                           batch_window_ms=50.0, max_lanes=32)
    reqs = _bfs_requests(hot, spacing=0.0)
    reqs.append(Request(len(hot), "bfs", {"src": cold}, arrival_ms=0.0))
    done = sched.replay(reqs)
    by_outcome = {}
    for c in done:
        by_outcome.setdefault(c.outcome, []).append(c.rid)
    # the hot shard shed its overflow, the cold shard's request survived
    shed = [c for c in done if c.outcome == "shed"]
    assert shed and all(c.reason == "queue_full" for c in shed)
    assert all(c.rid != len(hot) for c in shed)


# -- hedging -----------------------------------------------------------------


def _hedge_run(g, hedging):
    # three replicas + a short breaker cooldown keep a sibling free at
    # the hedge instant even while faults are bouncing executions around
    spec = WorkloadSpec(requests=150, seed=11, arrival_rate_rps=4000.0)
    return run_sharded_serving(g, spec, shards=2, replicas=3,
                               fault_rate=0.25, hedging=hedging,
                               breaker=BreakerPolicy(cooldown_ms=1.0),
                               retry=RetryPolicy(max_retries=4))


def test_hedging_launches_and_never_changes_outcomes(g):
    hedged = _hedge_run(g, True)
    plain = _hedge_run(g, False)
    assert hedged.shard["hedges_launched"] > 0
    assert hedged.shard["hedges_won"] > 0
    assert plain.shard["hedges_launched"] == 0
    # hedging trades duplicate work for tail latency, never correctness
    assert hedged.served == plain.served
    assert hedged.failed == plain.failed
    assert hedged.shard["hedge_waste_ms"] >= 0.0


# -- reports -----------------------------------------------------------------


def test_sharded_report_is_byte_deterministic(g):
    spec = WorkloadSpec(requests=100, seed=7, arrival_rate_rps=8000.0)
    kw = dict(shards=4, replicas=2, fault_rate=0.1,
              kill_schedule="3:1:0,6:2:*")
    a = run_sharded_serving(g, spec, **kw)
    b = run_sharded_serving(g, spec, **kw)
    assert json.dumps(a.as_dict(), sort_keys=True) \
        == json.dumps(b.as_dict(), sort_keys=True)


def test_legacy_report_gains_reason_breakdowns(g):
    spec = WorkloadSpec(requests=60, seed=7, arrival_rate_rps=50000.0)
    r = run_serving(g, spec, devices=1, max_queue=4)
    d = r.as_dict()
    assert d["shard"] == {}
    assert d["served"] + d["shed"] + d["deadline_drops"] == d["requests"]
    reasons = set()
    for per_prim in d["shed_reasons"].values():
        reasons |= set(per_prim)
    assert reasons <= {"queue_full", "deadline_passed"}
    if d["shed"]:
        assert "queue_full" in reasons


def test_hotspot_popularity_targets_one_shard(g):
    service = _service(g)
    owner = service.shard_map().owner
    p = shard_hotspot_popularity(g, owner, sid=2, boost=50.0)
    assert p.sum() == pytest.approx(1.0)
    assert p[owner == 2].sum() > 0.8
    with pytest.raises(ValueError):
        shard_hotspot_popularity(g, owner, sid=2, boost=0.0)
