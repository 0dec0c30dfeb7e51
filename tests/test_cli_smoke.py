"""What the CLI's outputs must show, run in-process through
``repro.cli.main`` with the command lines CI's determinism matrix runs
twice in fresh processes (``.github/workflows/ci.yml``).  Each test reads
one output; whether it is byte-identical across runs is the matrix's
question, not this file's."""

from __future__ import annotations

import json

import pytest

from repro.analysis import REPORT_SCHEMA_VERSION, validate_report_dict
from repro.cli import main
from repro.obs import validate_chrome_trace

KILLS = "5:0:1,6:1:1,7:2:1,8:3:1,11:0:0"
SERVE = ("serve", "--generate", "kron:10", "--json")
UPDATES = ("--requests", "200", "--seed", "11", "--updates", "3",
           "--update-interval", "15")


def _json(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_run_trace_is_valid_and_counts_every_launch(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    run = _json(capsys, "run", "bfs", "--generate", "kron:10", "--seed", "7",
                "--trace", str(trace), "--metrics", str(tmp_path / "m.txt"),
                "--json")
    doc = json.loads(trace.read_text())
    assert validate_chrome_trace(doc) == []
    launches = run["counters"]["kernel_launches"]
    kernels = [e for e in doc["traceEvents"] if e.get("cat") == "kernel"]
    assert len(kernels) == launches == doc["otherData"]["kernel_spans"]


def test_serve_metrics_dump_has_latency_buckets(tmp_path, capsys):
    metrics = tmp_path / "metrics.txt"
    assert main(["serve", "--generate", "kron:9", "--requests", "120",
                 "--seed", "3", "--metrics", str(metrics)]) == 0
    assert "repro_serve_latency_ms_bucket" in metrics.read_text()


def test_analyze_json_is_schema_valid(capsys):
    doc = _json(capsys, "analyze", "--json")
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    assert validate_report_dict(doc) == []
    verdicts = {p["name"]: p["fusable"] for p in doc["primitives"]}
    assert all(verdicts[p] for p in ("bfs", "sssp", "pagerank")), verdicts


@pytest.mark.parametrize("primitive,faults", [
    ("bfs", "device-loss,exchange-timeout"),
    ("sssp", "transient-kernel,corruption,straggler")])
def test_chaos_recovers_to_the_fault_free_result(primitive, faults, capsys):
    assert main(["chaos", "--primitive", primitive, "--faults", faults,
                 "--seed", "0"]) == 0
    assert "chaos: PASS" in capsys.readouterr().out


def _accounted(r, *outcomes):
    return sum(r[k] for k in ("served", "shed", "deadline_drops") + outcomes) \
        == r["requests"]


def test_serve_cache_hits_and_accounts_for_every_request(capsys):
    r = _json(capsys, *SERVE, "--requests", "300", "--seed", "7",
              "--devices", "2")
    assert r["hit_rate"] > 0 and r["stale_hits"] == 0
    assert _accounted(r)


def test_version_bumps_sweep_the_cache_and_serve_nothing_stale(capsys):
    r = _json(capsys, *SERVE, *UPDATES)
    assert r["stale_hits"] == 0
    assert r["cache"]["invalidated"] > 0


def test_sharded_tier_survives_the_kill_schedule(capsys):
    r = _json(capsys, *SERVE, "--requests", "300", "--seed", "7",
              "--shards", "4", "--replicas", "2", "--fault-rate", "0.02",
              "--kill-schedule", KILLS)
    assert r["shard"]["killed_replicas"] == 5 and r["shard"]["repairs"] >= 1
    assert r["stale_hits"] == 0 and _accounted(r, "failed")
    assert r["served"] / r["requests"] >= 0.9


def test_incremental_updates_land_and_repair(capsys):
    r = _json(capsys, *SERVE, *UPDATES, "--update-kind", "edges",
              "--incremental")
    d = r["dynamic"]
    assert d["updates"] == d["updates_incremental"] == 3
    assert d["repairs_incremental"] > 0
    assert d["pending_repairs"] == d["stale_repairs"] == r["stale_hits"] == 0


def test_weight_only_updates_carry_insensitive_entries(capsys):
    r = _json(capsys, *SERVE, *UPDATES, "--update-kind", "weights",
              "--incremental")
    assert r["dynamic"]["cache_carried"] > 0 and r["stale_hits"] == 0


LOWERED = [("fused", p) for p in ("bfs", "sssp", "bc", "cc", "pagerank")] \
    + [("la", p) for p in ("bfs", "sssp", "cc", "pagerank")]


@pytest.mark.parametrize("eng,primitive", LOWERED)
def test_lowered_primitive_dispatches_its_engine(eng, primitive, capsys):
    r = _json(capsys, "run", primitive, "--generate", "kron:10", "--seed",
              "7", "--engine", eng, "--json")
    assert r["engine"] == eng and r["engine_fallbacks"] == []


@pytest.mark.parametrize("eng,refusal", [
    ("fused", "no fused runner"), ("la", "no linear-algebra lowering")])
def test_unlowered_primitive_falls_back_with_its_reason(eng, refusal, capsys):
    assert main(["run", "mst", "--generate", "kron:10", "--seed", "7",
                 "--engine", eng]) == 0
    err = capsys.readouterr().err
    assert "fell back to pooled" in err and refusal in err


#: la's contract pins these bitwise (preds are any shortest-path witness);
#: cc on a road grid is the many-round path of the whole-matrix product
@pytest.mark.parametrize("primitive,key,spec", [
    ("bfs", "labels", "kron:10"), ("sssp", "labels", "kron:10"),
    ("cc", "component_ids", "kron:10"), ("cc", "component_ids", "road:40x40")])
def test_la_matches_pooled_bitwise(primitive, key, spec, capsys):
    runs = {eng: _json(capsys, "run", primitive, "--generate", spec,
                       "--seed", "7", "--engine", eng, "--json")
            for eng in ("pooled", "la")}
    assert runs["la"]["engine_fallbacks"] == []
    assert runs["la"]["arrays"][key] == runs["pooled"]["arrays"][key]


@pytest.mark.parametrize("primitive", ["bfs", "sssp", "pagerank", "cc", "bc"])
def test_default_engine_prints_what_pooled_prints(primitive, capsys,
                                                  no_engine_chosen):
    """No ``--engine`` (and no ``REPRO_ENGINE``) runs fused where a runner
    exists; the JSON — every checksum, counter and simulated value — is
    what ``--engine pooled`` prints, less the engine's own two keys."""
    argv = ("run", primitive, "--generate", "kron:9", "--json")
    default = _json(capsys, *argv)
    pooled = _json(capsys, *argv, "--engine", "pooled")
    assert pooled.pop("engine") == "pooled"
    assert pooled.pop("engine_fallbacks") == []
    assert default == pooled
