"""Golden regression for partitioned execution: multi-GPU BFS, multi-GPU
PageRank, the serving tier's fan-out PageRank and two sharded serving
replays, each cell pinned as one sha256 digest.

A cell hashes everything a run can observe: the output array, the
iteration count, the elapsed / compute / comm milliseconds, the recovery
summary, every device's ``(name, cycles, items, iteration)`` kernel
stream and counters, and the interconnect totals.  The grid covers a
Kronecker graph and a road grid, ``k`` = 1–4, both partition methods,
and no fault, a straggler, an exchange timeout, a device loss at the
first or second super-step, and two device losses.

``tests/data/multi_golden.json`` was recorded before partitioned BFS,
PageRank and the fan-out were folded into one super-step loop over the
shared CSR.  Re-record (``PYTHONPATH=src python tests/test_multi_golden.py``)
only in a PR that means to change what partitioned execution computes or
charges.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph import generators
from repro.multi import MultiMachine, multi_gpu_bfs, multi_gpu_pagerank, \
    partition_1d
from repro.resilience import FaultKind, FaultSpec
from repro.serve import WorkloadSpec, fanout_pagerank, run_sharded_serving
from repro.simt import Machine

DATA_PATH = Path(__file__).parent / "data" / "multi_golden.json"

GRAPHS = {
    "kron9": lambda: generators.kronecker(9, seed=4),
    "road": lambda: generators.road_grid(16, 12, seed=2),
}
METHODS = ("contiguous", "hash")


def _scenarios(k: int) -> dict:
    """Fault schedules for ``k`` devices; a loss always leaves a survivor."""
    out = {
        "none": None,
        "straggler": [FaultSpec(FaultKind.STRAGGLER, step=2, device=0,
                                magnitude=6.0)],
        "timeout": [FaultSpec(FaultKind.EXCHANGE_TIMEOUT, step=2,
                              site="exchange", count=2)],
    }
    if k >= 2:
        out["loss-first"] = [FaultSpec(FaultKind.DEVICE_LOSS, step=1,
                                       device=0)]
        out["loss"] = [FaultSpec(FaultKind.DEVICE_LOSS, step=2, device=1)]
    if k >= 3:
        out["loss2"] = [FaultSpec(FaultKind.DEVICE_LOSS, step=2, device=1),
                        FaultSpec(FaultKind.DEVICE_LOSS, step=3,
                                  device=k - 1)]
    return out


def _h_array(h, a) -> None:
    a = np.asarray(a)
    h.update(str(a.dtype).encode() + a.tobytes())


def _h_machine(h, m: Machine) -> None:
    h.update(repr([(r.name, r.cycles, r.items, r.iteration)
                   for r in m.counters.kernels]).encode())
    h.update(repr(sorted(m.counters.as_dict().items())).encode())


def _multi_cell(prim: str, graph: str, k: int, method: str,
                scenario: str) -> str:
    g = GRAPHS[graph]()
    mm = MultiMachine(k=k)
    faults = _scenarios(k)[scenario]
    h = hashlib.sha256()
    if prim == "bfs":
        r = multi_gpu_bfs(g, int(np.argmax(g.out_degrees)), k=k,
                          method=method, machine=mm, faults=faults)
        _h_array(h, r.labels)
        h.update(repr(r.remote_fraction).encode())
    else:
        r = multi_gpu_pagerank(g, k=k, method=method, machine=mm,
                               faults=faults)
        _h_array(h, r.rank)
    h.update(repr((r.iterations, r.elapsed_ms, r.compute_ms,
                   r.comm_ms)).encode())
    h.update(json.dumps(r.recovery, sort_keys=True).encode())
    h.update(repr((mm.exchanges, mm.comm_bytes, mm.reshard_ms,
                   mm.reshard_bytes, mm.alive)).encode())
    for dev in mm.devices:
        _h_machine(h, dev)
    return h.hexdigest()


def _fanout_cell(graph: str, k: int, method: str, live: str) -> str:
    g = GRAPHS[graph]()
    pg = partition_1d(g, k, method=method)
    down = 1 if live == "down1" else None
    machines = {sid: Machine(device_index=2 * sid) for sid in range(k)
                if sid != down}
    fr = fanout_pagerank(g, pg, machines)
    h = hashlib.sha256()
    _h_array(h, fr.rank)
    h.update(repr((fr.iterations, fr.elapsed_ms, fr.partial,
                   fr.dead_vertices)).encode())
    for sid in sorted(machines):
        _h_machine(h, machines[sid])
    return h.hexdigest()


def _serve_cell(kills: str) -> str:
    g = GRAPHS["kron9"]()
    # pagerank-heavy, and shard 1 dies early: five fan-outs run degraded
    spec = WorkloadSpec(requests=120, seed=5, arrival_rate_rps=6000.0,
                        mix={"bfs": 0.3, "pagerank": 0.4, "ppr": 0.3})
    report = run_sharded_serving(g, spec, shards=3, replicas=2,
                                 fault_rate=0.05,
                                 kill_schedule="" if kills == "nokill"
                                 else "1:1:0,3:1:1")
    text = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _cells() -> dict:
    cells = {}
    for prim in ("bfs", "pagerank"):
        for graph in GRAPHS:
            for k in (1, 2, 3, 4):
                for method in METHODS:
                    for scenario in _scenarios(k):
                        cells[f"{prim}/{graph}/k{k}/{method}/{scenario}"] = (
                            _multi_cell, (prim, graph, k, method, scenario))
    for graph in GRAPHS:
        for method in METHODS:
            for k, live in ((1, "live"), (2, "live"), (3, "live"),
                            (2, "down1"), (3, "down1")):
                cells[f"fanout/{graph}/k{k}/{method}/{live}"] = (
                    _fanout_cell, (graph, k, method, live))
    for kills in ("nokill", "kill"):
        cells[f"serve/3x2/{kills}"] = (_serve_cell, (kills,))
    return cells


CELLS = _cells()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA_PATH.read_text())


def test_golden_names_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_partitioned_run_matches_golden(golden, cell):
    fn, args = CELLS[cell]
    assert fn(*args) == golden[cell]


if __name__ == "__main__":
    DATA_PATH.write_text(json.dumps(
        {name: fn(*args) for name, (fn, args) in sorted(CELLS.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CELLS)} cells -> {DATA_PATH}")
