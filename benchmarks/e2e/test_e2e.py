"""Self-tests of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (tier-1
``testpaths`` is ``tests/`` only, so these never run in the gate).  Every
benchmark run here uses ``--quick``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
sys.modules.pop("trace", None)  # the stdlib module of the same name, if loaded

import check  # noqa: E402
import measure  # noqa: E402
import metrics  # noqa: E402
import run as cli  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

_RUNS = {}


def quick_run(workload: str, traced: int, seed: int = 11) -> dict:
    """One ``--quick`` run in a fresh process; its record, cached."""
    key = (workload, traced, seed)
    if key not in _RUNS:
        path = os.path.join(HERE, "out", f"test-{workload}-t{traced}-{seed}.json")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--trace", str(traced), "--quick",
             "--record", path],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        os.remove(path)
        record["last_line"] = last
        _RUNS[key] = record
    return _RUNS[key]


# -- BENCHMARK.json against the catalogue and the runs ---------------------------------


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_benchmark_json_is_the_catalogue():
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS]
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]


@pytest.mark.parametrize("workload", ["engine-matrix", "serve-churn"])
def test_a_run_prints_exactly_the_names(workload):
    for traced, section in ((0, "end_to_end"), (1, "per_layer")):
        last = quick_run(workload, traced)["last_line"]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == want
        assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())
    end_to_end = quick_run(workload, 0)["last_line"]["metrics"]
    assert all(v["value"] > 0 for v in end_to_end.values())


def test_the_traced_run_adds_the_unpooled_cells():
    extra = quick_run("engine-matrix", 1)["extra"]
    cells = {k for k in extra if k.startswith("cell.")}
    assert {c.split(".")[1] for c in cells} == \
        {"unpooled", "pooled", "fused", "la"}
    assert len(cells) == 32


# -- the schedule ---------------------------------------------------------------------------


class _FourRounds:
    name, rounds = "four-rounds", 4


def _rounds_run(seconds: float, quick: bool = False) -> int:
    run = measure.Run(argparse.Namespace(quick=quick, seconds=seconds), 0.0)
    calls = []
    run.timed_rounds(_FourRounds, lambda: calls.append(1))
    assert run.extra["rounds"] == len(calls)
    return len(calls)


def test_rounds_are_fixed_and_seconds_only_caps():
    assert _rounds_run(seconds=3600.0) == 4
    assert _rounds_run(seconds=0.0) == 1          # the cap cuts, never adds
    assert _rounds_run(seconds=3600.0, quick=True) == 1


def test_host_metrics_are_the_median_round_with_the_raw_best_beside():
    run = measure.Run(argparse.Namespace(quick=False, seconds=1.0), 0.0)
    run.over_rounds(
        [{"queries_per_s": 10.0, "query_ms_p50": 5.0, "x_ms": 3.0},
         {"queries_per_s": 12.0, "query_ms_p50": 4.0, "x_ms": 2.0},
         {"queries_per_s": 11.0, "query_ms_p50": 6.0, "x_ms": 4.0}],
        [{"queries_per_s": 9.0, "query_ms_p50": 7.0},
         {"queries_per_s": 8.0, "query_ms_p50": 6.5},
         {"queries_per_s": 9.5, "query_ms_p50": 8.0}])
    assert run.metrics == {"queries_per_s": 11.0, "query_ms_p50": 5.0}
    assert run.extra["x_ms"] == 3.0               # not a catalogue name
    assert run.extra["query_ms_p50.rounds"] == {"q1": 4.0, "q3": 6.0, "n": 3}
    assert run.extra["queries_per_s.raw_best_round"] == 9.5
    assert run.extra["query_ms_p50.raw_best_round"] == 6.5


def test_serve_steady_cache_is_sized_to_evict():
    w = workloads.BY_NAME["serve-steady"]
    counts = quick_run("serve-steady", 0)["counts"]
    assert counts["serve.cache_bytes"] == \
        int(counts["serve.unbounded_inserted_bytes"] * w.cache_share)
    assert counts["serve.evictions"] > 0 and counts["sim_p50_ms"] > 0


def test_a_ladder_that_does_not_bound_capacity_fails():
    # on the --quick graph every rung passes: the device is never saturated
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "serve-steady", "--seed", "11", "--ladder", "--quick"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 1
    assert "not capacity-bound: 5 of 5 rungs pass" in done.stderr


def test_a_moved_sim_value_is_reported():
    first = {"road-traverse/t0": {"exact": {"sim_ms": 1.0, "simt.cycles": 7}}}
    assert cli.exact_differences(first, first, "then") == []
    moved = {"road-traverse/t0": {"exact": {"sim_ms": math.nextafter(1.0, 2.0),
                                            "simt.cycles": 7}}}
    problems = cli.exact_differences(first, moved, "then")
    assert len(problems) == 1 and "road-traverse/t0 sim_ms" in problems[0]


# -- seeds ------------------------------------------------------------------------------


def test_same_seed_same_digest():
    a = quick_run("road-traverse", 0)
    _RUNS.pop(("road-traverse", 0, 11))
    b = quick_run("road-traverse", 0)
    assert a["digest"] == b["digest"] and a["exact"] == b["exact"]
    assert a["metrics"]["queries_per_s"] != b["metrics"]["queries_per_s"]


def test_other_seed_other_inputs():
    w = workloads.BY_NAME["scalefree-traverse"]
    first = [q.source for q in w.build(11, True).queries]
    again = [q.source for q in w.build(11, True).queries]
    other = [q.source for q in w.build(12, True).queries]
    assert first == again != other
    assert quick_run("road-traverse", 0)["digest"] != \
        quick_run("road-traverse", 0, seed=12)["digest"]


def test_road_sources_come_in_torus_opposite_pairs():
    spec = workloads.ROAD300
    g = spec.generate(3, quick=True)
    side = spec.quick
    a, b = workloads.pick_sources(spec, g, True, 2, np.random.default_rng(5))
    assert ((a % side + side // 2) % side, (a // side + side // 2) % side) == \
        (b % side, b // side)


# -- the trace -----------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["engine-matrix", "serve-churn"])
def test_spans_nest_and_self_time_is_bounded(workload):
    record = quick_run(workload, 1)
    with open(os.path.join(HERE, "out", f"trace-{workload}.json"),
              encoding="utf-8") as fh:
        spans = [[s["name"], s["layer"], s["start_s"], s["end_s"],
                  s["parent"], s["query"]] for s in json.load(fh)]
    assert len(spans) == record["metrics"]["trace.spans"]
    assert trace.check_spans(spans) is None
    assert spans[0][0] == "pass" and spans[0][4] == -1
    assert all(s[4] >= 0 for s in spans[1:])
    own = trace.self_seconds(spans)
    assert sum(own) == pytest.approx(spans[0][3] - spans[0][2], rel=1e-6)
    # the layers account for the pass; the benchmark's own share is small
    assert 0.95 <= record["extra"]["trace.layer_self_sum_share"] <= 1.0 + 1e-9


def test_uninstall_restores_every_callable():
    before = [trace.resolve(module, path)[2]
              for _layer, _name, module, path in trace.TARGETS]
    import repro.primitives
    import repro.serve
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert repro.primitives.bfs is not before[0]
        assert repro.primitives.bfs.__wrapped__ is before[0]
        assert repro.serve.execute_batch.__wrapped__ is \
            repro.serve.batcher.execute_batch.__wrapped__
        g = workloads.RMAT12.generate(1, quick=True)
        root = tracer.begin("pass", "bench")
        repro.primitives.bfs(g, int(np.flatnonzero(g.out_degrees)[0]))
        tracer.end(root)
    finally:
        tracer.uninstall()
    after = [trace.resolve(module, path)[2]
             for _layer, _name, module, path in trace.TARGETS]
    assert all(a is b for a, b in zip(before, after))
    assert repro.primitives.bfs is before[0]
    names = {s[0] for s in tracer.spans}
    assert {"pass", "bfs", "enact", "advance", "filter"} <= names
    assert tracer.supersteps > 0


# -- the certificates ------------------------------------------------------------------------


def _solved(primitive):
    import repro.primitives as P
    g = workloads.RMAT12.generate(7, quick=True)
    gw = workloads.with_random_weights(g, seed=3)
    src = int(np.flatnonzero(g.out_degrees)[0])
    if primitive == "bfs":
        return check.GraphOracle(g), src, dict(P.bfs(g, src).arrays)
    if primitive == "sssp":
        return check.GraphOracle(gw), src, dict(P.sssp(gw, src).arrays)
    if primitive == "cc":
        return check.GraphOracle(g), src, dict(P.cc(g).arrays)
    return check.GraphOracle(g), src, dict(P.pagerank(g).arrays)


def test_certificates_accept_the_program_and_reject_corruption():
    oracle, src, arrays = _solved("bfs")
    assert check.certify_bfs(oracle, src, arrays) is None
    bad = dict(arrays, labels=arrays["labels"].copy())
    reached = np.flatnonzero(bad["labels"] > 0)
    bad["labels"][reached[0]] += 1
    assert "depths differ" in check.certify_bfs(oracle, src, bad)
    bad = dict(arrays, preds=arrays["preds"].copy())
    bad["preds"][reached[0]] = reached[0]
    assert check.certify_bfs(oracle, src, bad) is not None

    oracle, src, arrays = _solved("sssp")
    assert check.certify_sssp(oracle, src, arrays) is None
    bad = dict(arrays, labels=arrays["labels"].copy())
    bad["labels"][np.flatnonzero(np.isfinite(bad["labels"]))[-1]] += 1.0
    assert "distances differ" in check.certify_sssp(oracle, src, bad)

    oracle, _, arrays = _solved("cc")
    assert check.certify_cc(oracle, arrays) is None
    bad = {"component_ids": arrays["component_ids"].copy()}
    inside = int(np.flatnonzero(oracle.graph.out_degrees)[0])
    bad["component_ids"][inside] = oracle.n + 1
    assert "an edge joins two labels" == check.certify_cc(oracle, bad)

    oracle, _, arrays = _solved("pagerank")
    assert check.certify_pagerank(oracle, arrays) is None
    assert check.certify_pagerank(oracle, {"rank": arrays["rank"] * 1.5}) \
        is not None


def test_a_failed_certificate_names_the_cell():
    w = workloads.BY_NAME["global-rank"]
    inputs = w.build(11, True)
    samples = workloads.run_pass(inputs.queries)
    assert workloads.certify_first_queries(inputs, samples) == []
    samples[1].result.arrays["component_ids"][:] = 0
    problems = workloads.certify_first_queries(inputs, samples)
    assert len(problems) == 1 and problems[0].startswith("pooled.cc.rmat10")


def test_digest_covers_every_digit():
    assert check.digest({"a": 0.1}) != \
        check.digest({"a": math.nextafter(0.1, 1.0)})
    assert check.digest({"a": 1, "b": 2}) == check.digest({"b": 2, "a": 1})
    assert metrics.nearest_rank(list(range(1, 101)), 0.99) == 99
    assert metrics.nearest_rank([3.0, 1.0, 2.0], 0.99) == 3.0
