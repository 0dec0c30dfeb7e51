"""Scheduler + service + workload: admission, deadlines, determinism."""

from __future__ import annotations

import pytest

from repro.resilience import RetryPolicy
from repro.serve import (Completion, DeadlineScheduler, GraphService,
                         Overloaded, Request,
                         ServeReport, ShardScheduler, ShardTier,
                         ShardedGraphService, WorkloadSpec, build_workload,
                         parse_kill_schedule, run_serving, zipf_popularity)


def _service(graph):
    s = GraphService()
    s.load_graph(graph)
    return s


# -- admission control --------------------------------------------------------


def test_bounded_queue_sheds_with_typed_error(kron_graph):
    sched = DeadlineScheduler(_service(kron_graph), max_queue=2)
    for rid in range(2):
        assert sched.enqueue(
            Request(rid=rid, primitive="bfs", params={"src": rid}), 0.0) is None
    with pytest.raises(Overloaded) as exc:
        sched.enqueue(Request(rid=2, primitive="bfs", params={"src": 2}), 0.0)
    assert exc.value.rid == 2
    assert exc.value.queue_depth == 2
    assert exc.value.limit == 2


def test_unknown_primitive_rejected(kron_graph):
    sched = DeadlineScheduler(_service(kron_graph))
    with pytest.raises(ValueError, match="served primitives"):
        sched.enqueue(Request(rid=0, primitive="mst", params={}), 0.0)


def test_unknown_graph_rejected(kron_graph):
    sched = DeadlineScheduler(_service(kron_graph))
    with pytest.raises(KeyError):
        sched.enqueue(Request(rid=0, primitive="bfs", params={"src": 0},
                              graph="absent"), 0.0)


def test_scheduler_knob_validation(kron_graph):
    svc = _service(kron_graph)
    with pytest.raises(ValueError):
        DeadlineScheduler(svc, devices=0)
    with pytest.raises(ValueError):
        DeadlineScheduler(svc, max_queue=0)
    with pytest.raises(ValueError):
        DeadlineScheduler(svc, fault_rate=1.5)


def test_a_request_without_a_reply_must_say_why(kron_graph):
    sched = DeadlineScheduler(_service(kron_graph))
    with pytest.raises(ValueError, match="without a reason"):
        sched._complete(Completion(0, "bfs", 0.0, 1.0, "shed"))
    sched._complete(Completion(1, "bfs", 0.0, 1.0, "shed",
                               reason="queue_full"))
    sched._complete(Completion(2, "bfs", 0.0, 1.0, "ok"))
    assert [c.rid for c in sched.completions] == [1, 2]


# -- replay semantics ---------------------------------------------------------


def test_coinciding_arrivals_share_a_batch(kron_graph):
    sched = DeadlineScheduler(_service(kron_graph), batch_window_ms=1.0)
    reqs = [Request(rid=i, primitive="bfs", params={"src": i},
                    arrival_ms=0.0, deadline_ms=100.0) for i in range(3)]
    completions = sched.replay(reqs)
    ok = [c for c in completions if c.outcome == "ok"]
    assert len(ok) == 3
    assert all(c.batch_lanes == 3 for c in ok)


def test_duplicate_requests_one_executes_rest_hit_cache(kron_graph):
    sched = DeadlineScheduler(_service(kron_graph), batch_window_ms=1.0)
    reqs = [Request(rid=0, primitive="bfs", params={"src": 7},
                    arrival_ms=0.0, deadline_ms=100.0),
            Request(rid=1, primitive="bfs", params={"src": 7},
                    arrival_ms=50.0, deadline_ms=100.0)]
    completions = sched.replay(reqs)
    outcomes = {c.rid: c.outcome for c in completions}
    assert outcomes[0] == "ok"
    assert outcomes[1] == "cache_hit"


def test_expired_requests_are_dropped_not_run(kron_graph):
    sched = DeadlineScheduler(_service(kron_graph), batch_window_ms=5.0)
    reqs = [Request(rid=0, primitive="bfs", params={"src": 0},
                    arrival_ms=0.0, deadline_ms=1.0)]
    (done,) = sched.replay(reqs)
    assert done.outcome == "deadline_drop"
    assert not done.deadline_met
    assert sched.service.executed_batches == []


def test_edf_prefers_tighter_deadline(kron_graph):
    # one device, both groups ready at the same instant: the group whose
    # deadline is tighter must run first
    sched = DeadlineScheduler(_service(kron_graph), devices=1,
                              batch_window_ms=0.5)
    reqs = [Request(rid=0, primitive="ppr", params={"seeds": (3,)},
                    arrival_ms=0.0, deadline_ms=100.0),
            Request(rid=1, primitive="bfs", params={"src": 3},
                    arrival_ms=0.0, deadline_ms=5.0)]
    completions = {c.rid: c for c in sched.replay(reqs)}
    assert completions[1].finish_ms < completions[0].finish_ms


def test_multiple_devices_run_concurrently(kron_graph):
    reqs = [Request(rid=0, primitive="bfs", params={"src": 0},
                    arrival_ms=0.0, deadline_ms=100.0),
            Request(rid=1, primitive="sssp", params={"src": 0},
                    arrival_ms=0.0, deadline_ms=100.0)]
    sched = DeadlineScheduler(_service(kron_graph), devices=2,
                              batch_window_ms=0.1)
    done = {c.rid: c for c in sched.replay(reqs)}
    assert {done[0].device, done[1].device} == {0, 1}


def test_fault_injection_recovers_and_charges_backoff(kron_graph):
    spec = WorkloadSpec(requests=80, seed=5)
    report = run_serving(kron_graph, spec,
                         retry=RetryPolicy(max_retries=2, base_ms=3.0),
                         fault_rate=0.5)
    assert report.recovered_faults > 0
    assert report.retry_backoff_ms >= 3.0 * report.recovered_faults
    assert report.served + report.shed + report.deadline_drops == \
        report.requests


# -- workload generation ------------------------------------------------------


def test_zipf_popularity_is_a_distribution(kron_graph):
    p = zipf_popularity(kron_graph, 1.1)
    assert p.shape == (kron_graph.n,)
    assert abs(p.sum() - 1.0) < 1e-12
    hub = int(kron_graph.out_degrees.argmax())
    assert p[hub] == p.max()


def test_workload_is_seed_deterministic(kron_graph):
    spec = WorkloadSpec(requests=50, seed=21)
    w1 = build_workload(kron_graph, spec)
    w2 = build_workload(kron_graph, spec)
    for a, b in zip(w1.requests, w2.requests):
        assert (a.rid, a.primitive, a.params, a.arrival_ms) == \
            (b.rid, b.primitive, b.params, b.arrival_ms)


def test_workload_spec_validation(kron_graph):
    with pytest.raises(ValueError):
        WorkloadSpec(requests=0)
    with pytest.raises(ValueError):
        WorkloadSpec(mode="burst")
    with pytest.raises(ValueError):
        WorkloadSpec(mix={"mst": 1.0})


def test_closed_loop_respects_client_population(kron_graph):
    spec = WorkloadSpec(requests=40, seed=9, mode="closed", clients=4,
                        think_ms=0.2)
    report = run_serving(kron_graph, spec)
    assert report.requests == 40
    assert report.shed == 0  # closed loop self-paces: nothing sheds


# -- the report ---------------------------------------------------------------


def test_report_is_byte_identical_across_runs(kron_graph):
    spec = WorkloadSpec(requests=120, seed=7)
    r1 = run_serving(kron_graph, spec, devices=2)
    r2 = run_serving(kron_graph, spec, devices=2)
    assert r1.format() == r2.format()
    assert r1.as_dict() == r2.as_dict()


def _replay_single(graph, spec, **kw):
    service = GraphService()
    service.load_graph(graph)
    sched = DeadlineScheduler(service, seed=spec.seed, **kw)
    w = build_workload(graph, spec)
    done = sched.replay(w.initial_requests, updates=w.updates,
                        on_complete=w.driver)
    return w, sched, ServeReport.from_replay(
        done, service, recovered_faults=sched.recovered_faults,
        metrics=sched.metrics, dynamic=sched.dynamic_summary())


def _replay_sharded(graph, spec, **kw):
    service = ShardedGraphService(ShardTier(4, 2))
    service.load_graph(graph)
    sched = ShardScheduler(service, seed=spec.seed, max_queue=4, **kw)
    w = build_workload(graph, spec)
    done = sched.replay(w.initial_requests, updates=w.updates,
                        kills=parse_kill_schedule("2:0:1,4:3:*", 4, 2),
                        on_complete=w.driver)
    return w, sched, ServeReport.from_replay(
        done, service, recovered_faults=sched.recovered_faults,
        metrics=sched.metrics, shard=sched.shard_summary(),
        dynamic=sched.dynamic_summary())


#: tier -> (replay, WorkloadSpec kwargs); the sharded rows run a bursty
#: stream into 4-slot queues under a kill schedule that takes out one
#: replica and one whole group, so every non-served outcome shows up
_TIERS = {
    "single": (_replay_single, dict(requests=100, seed=3)),
    "sharded": (_replay_sharded,
                dict(requests=120, seed=7, arrival_rate_rps=20000.0)),
}
_SCENARIOS = {
    "no_faults": (dict(), dict()),
    "faults": (dict(), dict(fault_rate=0.3)),
    "incremental": (dict(updates=3, update_interval_ms=2.0,
                         update_kind="edges", delta_frac=0.01),
                    dict(incremental=True)),
}


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
@pytest.mark.parametrize("tier", sorted(_TIERS))
def test_report_accounts_for_every_request(tier, scenario, kron_weighted):
    replay, spec_kw = _TIERS[tier]
    more_spec, sched_kw = _SCENARIOS[scenario]
    w, sched, r = replay(kron_weighted,
                         WorkloadSpec(**spec_kw, **more_spec), **sched_kw)
    done = sched.completions
    offered = [req.rid for req in w.initial_requests]
    # every offered rid completes exactly once ...
    assert sorted(c.rid for c in done) == sorted(offered)
    assert r.requests == len(offered) == spec_kw["requests"]
    # ... under exactly one outcome ("served" here = executed, outcome ok)
    outcomes = {o: sum(1 for c in done if c.outcome == o)
                for o in ("ok", "cache_hit", "shed", "deadline_drop",
                          "failed", "partial")}
    assert sum(outcomes.values()) == len(offered)
    assert (outcomes["cache_hit"], outcomes["shed"],
            outcomes["deadline_drop"], outcomes["failed"],
            outcomes["partial"]) == (r.cache_hits, r.shed, r.deadline_drops,
                                     r.failed, r.partials)
    d = r.as_dict()
    assert d["served"] + d["shed"] + d["deadline_drops"] + d["failed"] \
        == d["requests"]
    assert d["served"] == outcomes["ok"] + outcomes["cache_hit"] \
        + outcomes["partial"]
    assert sum(sum(h.values()) for h in d["by_primitive"].values()) \
        == d["requests"]
    non_served = d["shed"] + d["deadline_drops"] + d["failed"]
    assert sum(sum(h.values()) for h in d["shed_reasons"].values()) \
        == non_served
    legal = {"queue_full", "deadline_passed"} if tier == "single" else \
        {"queue_full", "deadline_passed", "shard_down", "retries_exhausted"}
    for reasons in d["shed_reasons"].values():
        assert set(reasons) <= legal
    assert r.hit_rate > 0.0
    assert r.stale_hits == 0
    assert r.executed_batches == sum(
        c for hist in r.batch_histogram.values() for c in hist.values())
    if tier == "single":
        assert d["failed"] == 0 and d["shard"] == {}
    else:
        assert d["shard"]["killed_replicas"] == 3
    assert (r.recovered_faults > 0) == (scenario == "faults")
    if scenario == "incremental":
        assert d["dynamic"]["updates_incremental"] == 3
        assert d["dynamic"]["repairs_incremental"] > 0


@pytest.mark.parametrize("tier", sorted(_TIERS))
def test_wake_dedup_set_is_forgotten_tick_by_tick(tier, kron_weighted):
    """A wake time leaves the dedup set once its tick has run (the set
    used to keep one float per distinct wake for the life of a replay)."""
    replay, spec_kw = _TIERS[tier]
    _, sched, _ = replay(kron_weighted, WorkloadSpec(**spec_kw))
    assert not sched._heap
    assert not sched._wakes


def test_overload_sheds_under_burst(kron_graph):
    spec = WorkloadSpec(requests=250, seed=3, arrival_rate_rps=50000.0)
    r = run_serving(kron_graph, spec, devices=1, max_queue=8)
    assert r.shed > 0
    assert r.served + r.shed + r.deadline_drops == 250


def test_batching_actually_happens(kron_graph):
    spec = WorkloadSpec(requests=200, seed=7)
    r = run_serving(kron_graph, spec)
    laned = [lanes for prim in ("bfs", "sssp", "ppr")
             for lanes in r.batch_histogram.get(prim, {})]
    assert any(lanes > 1 for lanes in laned)
    assert all(lanes == 1 for lanes in r.batch_histogram.get("wtf", {}))


def test_report_round_trips_outcomes(kron_graph):
    spec = WorkloadSpec(requests=60, seed=17)
    service = GraphService()
    service.load_graph(kron_graph)
    sched = DeadlineScheduler(service, seed=spec.seed)
    w = build_workload(kron_graph, spec)
    completions = sched.replay(w.initial_requests, updates=w.updates,
                               on_complete=w.driver)
    report = ServeReport.from_replay(completions, service)
    assert report.requests == len(completions) == 60
    d = report.as_dict()
    assert set(d["batch_histogram"]) == set(report.batch_histogram)
