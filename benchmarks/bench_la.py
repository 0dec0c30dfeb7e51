"""Wall-clock benchmark: linear-algebra backend vs the pooled library loop.

Measures real elapsed time (``machine=None`` — no simulated-cost
accounting) for BFS / SSSP / PageRank / CC on an RMAT graph and a road grid,
with the la engine (masked SpMV/SpMSpV over frozen CSR/CSC) vs pooled
operator execution, and writes ``benchmarks/BENCH_la.json``.

The measurement protocol is the one ``bench_wallclock.py`` established:
every cell × engine measurement runs in its own fresh subprocess (modes
never share a heap), subprocess rounds are interleaved ABBA so
machine-level drift cancels, and each engine takes the minimum across
rounds of each subprocess's own min — the least-noise estimator of a
deterministic workload's true cost.

Identity is verified once per cell in the driver under the backend's
documented equivalence contract (DESIGN §16): BFS labels, SSSP distances
and CC component ids must be bitwise-equal to pooled; PageRank ranks must
agree to allclose(rtol=1e-9, atol=1e-12).  Kernel counters are *not* compared —
the la backend charges semiring products, not operator launches.  A la
run that fell back to the library loop would pass identity trivially,
so the driver also asserts the la dispatch actually happened (no
fallback recorded).

Unlike the fused engine, the la backend makes no speedup promise: it is
an executable cross-check of the masked-linear-algebra formulation
(Gunrock §2 ≙ GraphBLAS), so the report carries a ``ratio`` per cell
(pooled_ms / la_ms) without a floor.

Usage::

    PYTHONPATH=src python benchmarks/bench_la.py           # full
    PYTHONPATH=src python benchmarks/bench_la.py --quick   # CI
    ... --out /tmp/bench.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_PATH = HERE / "BENCH_la.json"

WEIGHT_SEED = 7
PR_ITERATIONS = 50
RANK_RTOL = 1e-9
RANK_ATOL = 1e-12

GRAPHS = {
    False: {  # full
        "rmat14": {"kind": "rmat", "scale": 14, "edge_factor": 16, "seed": 1},
        "road300": {"kind": "road", "width": 300, "height": 300, "seed": 1},
    },
    True: {  # --quick
        "rmat11": {"kind": "rmat", "scale": 11, "edge_factor": 16, "seed": 1},
        "road80": {"kind": "road", "width": 80, "height": 80, "seed": 1},
    },
}
PRIMITIVES = ("bfs", "sssp", "pagerank", "cc")

# which output arrays the contract pins bitwise vs to tolerance
BITWISE_ARRAYS = {"bfs": ("labels",), "sssp": ("labels",),
                  "cc": ("component_ids",)}
TOLERANCE_ARRAYS = {"pagerank": ("rank",)}


def build_graph(spec: dict):
    from repro.graph import generators

    if spec["kind"] == "rmat":
        return generators.rmat(spec["scale"], edge_factor=spec["edge_factor"],
                               seed=spec["seed"])
    return generators.road_grid(spec["width"], spec["height"],
                                seed=spec["seed"])


def make_runner(primitive: str, graph, machine_factory=lambda: None):
    """A zero-arg callable running one full primitive invocation."""
    from repro.graph.build import with_random_weights
    from repro.primitives import bfs, cc, pagerank, sssp

    if primitive == "bfs":
        return lambda: bfs(graph, 0, machine=machine_factory(),
                           direction="auto")
    if primitive == "sssp":
        gw = with_random_weights(graph, seed=WEIGHT_SEED)
        return lambda: sssp(gw, 0, machine=machine_factory())
    if primitive == "pagerank":
        return lambda: pagerank(graph, machine=machine_factory(),
                                max_iterations=PR_ITERATIONS)
    if primitive == "cc":
        return lambda: cc(graph, machine=machine_factory())
    raise ValueError(f"unknown primitive {primitive!r}")


# --------------------------------------------------------------------------
# child mode: one (graph, primitive, engine) measurement per process
# --------------------------------------------------------------------------

def run_cell_child(spec: dict) -> None:
    from repro.core.engine import fallback_log, set_engine

    set_engine(spec["engine"])
    graph = build_graph(spec["graph"])
    run = make_runner(spec["primitive"], graph)
    run()  # warmup: artifact caches (CSC, transpose), allocator state
    if spec["engine"] == "la" and fallback_log():
        raise SystemExit(f"la run fell back: {fallback_log()}")
    times = []
    for _ in range(spec["reps"]):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    json.dump({"min_ms": min(times) * 1e3,
               "all_ms": [t * 1e3 for t in times]}, sys.stdout)


def spawn_cell(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--cell",
         json.dumps(spec)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def verify_identity(primitive: str, graph_spec: dict) -> dict:
    """Equivalence-contract check, la vs pooled, with a simulated machine
    attached; also asserts the la dispatch happened (a silent fallback
    would be a vacuous pass)."""
    import numpy as np

    from repro.core.engine import clear_fallbacks, engine, last_fallback

    from repro.simt.machine import Machine

    graph = build_graph(graph_spec)
    results = {}
    for mode in ("pooled", "la"):
        clear_fallbacks()
        with engine(mode):
            res = make_runner(primitive, graph,
                              machine_factory=Machine)()
            results[mode] = res
        if mode == "la" and last_fallback() is not None:
            raise SystemExit(
                f"{primitive}: la fell back: {last_fallback()}")
    rp, rl = results["pooled"], results["la"]
    bitwise_ok = all(
        rp.arrays[k].dtype == rl.arrays[k].dtype
        and np.array_equal(rp.arrays[k], rl.arrays[k])
        for k in BITWISE_ARRAYS.get(primitive, ()))
    tol_ok = all(
        np.allclose(rl.arrays[k], rp.arrays[k],
                    rtol=RANK_RTOL, atol=RANK_ATOL)
        for k in TOLERANCE_ARRAYS.get(primitive, ()))
    return {"contract_bitwise": bool(bitwise_ok),
            "contract_tolerance": bool(tol_ok)}


def run_benchmark(quick: bool, out_path: Path, pairs: int, reps: int) -> dict:
    graphs = GRAPHS[quick]
    cells = []
    for gname, gspec in graphs.items():
        graph = build_graph(gspec)
        n, m = int(graph.n), int(graph.m)
        for primitive in PRIMITIVES:
            print(f"[cell] {primitive}/{gname} ...", flush=True)
            identity = verify_identity(primitive, gspec)
            mins = {"la": [], "pooled": []}
            for rnd in range(pairs):
                # alternate which engine goes first so slow drift cancels
                order = ("la", "pooled") if rnd % 2 == 0 \
                    else ("pooled", "la")
                for eng in order:
                    child = spawn_cell({"primitive": primitive,
                                        "graph": gspec, "engine": eng,
                                        "reps": reps})
                    mins[eng].append(child["min_ms"])
            la_ms = min(mins["la"])
            pooled_ms = min(mins["pooled"])
            cell = {
                "primitive": primitive, "graph": gname, "n": n, "m": m,
                "la_ms": round(la_ms, 3),
                "pooled_ms": round(pooled_ms, 3),
                "ratio": round(pooled_ms / la_ms, 4),
                **identity,
            }
            print(f"       la {la_ms:8.1f} ms   "
                  f"pooled {pooled_ms:8.1f} ms   "
                  f"ratio {cell['ratio']:.2f}x   "
                  f"bitwise={identity['contract_bitwise']} "
                  f"tolerance={identity['contract_tolerance']}", flush=True)
            cells.append(cell)
    geomean = math.exp(sum(math.log(c["ratio"]) for c in cells) / len(cells))
    report = {
        "schema_version": 1,
        "config": {
            "quick": quick, "pairs": pairs, "reps": reps,
            "pr_iterations": PR_ITERATIONS, "weight_seed": WEIGHT_SEED,
            "rank_rtol": RANK_RTOL, "rank_atol": RANK_ATOL,
            "python": platform.python_version(),
            "protocol": "fresh subprocess per cell*engine, interleaved "
                        "rounds, min across rounds of per-process min",
        },
        "cells": cells,
        "geomean_ratio": round(geomean, 4),
    }
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"\ngeomean ratio (pooled/la, >1 means la faster): {geomean:.3f}x")
    print(f"wrote {out_path}")
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true",
                    help="small graphs / fewer rounds (CI perf-smoke)")
    ap.add_argument("--out", type=Path, default=OUT_PATH)
    ap.add_argument("--pairs", type=int, default=None,
                    help="interleaved subprocess rounds per cell")
    ap.add_argument("--reps", type=int, default=None,
                    help="timed runs inside each subprocess")
    ap.add_argument("--cell", help="(internal) run one measurement cell")
    args = ap.parse_args()
    if args.cell:
        run_cell_child(json.loads(args.cell))
        return 0
    pairs = args.pairs if args.pairs is not None else (2 if args.quick else 4)
    reps = args.reps if args.reps is not None else (3 if args.quick else 5)
    run_benchmark(args.quick, args.out, pairs, reps)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    raise SystemExit(main())
