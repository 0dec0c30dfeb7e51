"""Characterisation of both serving schedulers: full reports, pinned.

``tests/data/serve_characterisation.json`` holds ``ServeReport.as_dict()``
for a matrix of small replays, recorded before the two event loops were
folded into one scheduler core.  Every row is pure simulated-time output
from fixed seeds, so any change in when a request is admitted, batched,
dispatched, retried, hedged, repaired or cached shows up here as a moved
field.  Re-record (``python tests/test_serve_characterisation.py``) only
in a PR that means to change serving behaviour.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.graph import generators, with_random_weights
from repro.serve import WorkloadSpec, run_serving, run_sharded_serving

DATA_PATH = Path(__file__).parent / "data" / "serve_characterisation.json"

CI_KILLS = "5:0:1,6:1:1,7:2:1,8:3:1,11:0:0"
_EDGES = dict(updates=3, update_interval_ms=8.0, update_kind="edges",
              delta_frac=0.01)

#: row -> (runner, WorkloadSpec kwargs, runner kwargs)
ROWS = {
    "single-steady-2dev": (
        run_serving, dict(requests=160, seed=7), dict(devices=2)),
    "single-burst-q8": (
        run_serving, dict(requests=160, seed=7, arrival_rate_rps=50000.0),
        dict(max_queue=8)),
    "single-faults": (
        run_serving, dict(requests=160, seed=5), dict(fault_rate=0.05)),
    "single-incremental-edges": (
        run_serving, dict(requests=150, seed=11, **_EDGES),
        dict(devices=2, incremental=True)),
    "single-closed-loop": (
        run_serving, dict(requests=120, seed=9, mode="closed", clients=6),
        dict()),
    "shard-steady": (
        run_sharded_serving, dict(requests=160, seed=7),
        dict(shards=4, replicas=2)),
    "shard-faults-kills": (
        run_sharded_serving, dict(requests=160, seed=7),
        dict(shards=4, replicas=2, fault_rate=0.02, kill_schedule=CI_KILLS)),
    "shard-incremental-edges": (
        run_sharded_serving, dict(requests=120, seed=11, **_EDGES),
        dict(shards=4, replicas=2, incremental=True)),
    "shard-hedging-faults": (
        run_sharded_serving,
        dict(requests=200, seed=3, arrival_rate_rps=6000.0),
        dict(shards=4, replicas=2, fault_rate=0.3, hedging=True)),
}


def _graph():
    return with_random_weights(generators.kronecker(9, seed=3), seed=5)


def _run(row: str, graph) -> dict:
    runner, spec_kw, run_kw = ROWS[row]
    report = runner(graph, WorkloadSpec(**spec_kw), **run_kw).as_dict()
    return json.loads(json.dumps(report, sort_keys=True))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA_PATH.read_text(encoding="utf-8"))


def test_recorded_matrix_matches_rows(recorded):
    assert sorted(recorded) == sorted(ROWS)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_report_matches_recording(row, recorded, kron_weighted):
    got, want = _run(row, kron_weighted), recorded[row]
    moved = {k: (want.get(k), got.get(k))
             for k in sorted(set(want) | set(got))
             if want.get(k) != got.get(k)}
    assert not moved, f"{row}: (recorded, now) differ in {moved}"


def test_recording_exercises_every_path(recorded):
    """The pinned rows are only worth pinning if each one actually takes
    the path it is named for."""
    assert recorded["single-burst-q8"]["shed"] > 0
    assert recorded["single-faults"]["recovered_faults"] > 0
    dyn = recorded["single-incremental-edges"]["dynamic"]
    assert dyn["updates_incremental"] == 3 and dyn["repairs_incremental"] > 0
    kills = recorded["shard-faults-kills"]["shard"]
    assert kills["killed_replicas"] == 5 and kills["repairs"] >= 1
    assert kills["failovers"] > 0
    sdyn = recorded["shard-incremental-edges"]["dynamic"]
    assert sdyn["repairs_incremental"] + sdyn["repair_fallbacks"] > 0
    assert recorded["shard-hedging-faults"]["shard"]["hedges_launched"] > 0


if __name__ == "__main__":
    g = _graph()
    DATA_PATH.parent.mkdir(exist_ok=True)
    DATA_PATH.write_text(
        json.dumps({row: _run(row, g) for row in sorted(ROWS)}, indent=1,
                   sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DATA_PATH}")
