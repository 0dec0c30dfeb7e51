"""Wall-clock benchmark: pooled vs unpooled operator hot paths.

Measures real elapsed time (``machine=None`` — no simulated-cost
accounting) for BFS / SSSP / PageRank on an RMAT graph and a road grid,
with workspace pooling ON vs OFF, and writes
``benchmarks/BENCH_wallclock.json``.

Measurement protocol
--------------------
Wall-clock on a shared box is noisy in two distinct ways, and the
protocol answers both:

* **Allocator/heap state contamination.**  Timings measured inside one
  process depend on what ran before them (glibc's heap grows, its mmap
  threshold adapts, fragmentation accumulates) — enough to flip a
  pooled-vs-unpooled comparison.  So *every cell × mode measurement runs
  in its own fresh subprocess*; modes never share a heap.
* **Machine-level drift.**  Background load moves all timings over a
  scale of minutes.  So subprocesses for the two modes are *interleaved*
  (pooled/unpooled pairs, order alternating per round) and each mode
  takes the **minimum** across rounds — the min is the least-noise
  estimator of the true cost of a deterministic workload.

Each subprocess warms up once (populating artifact caches and numpy
internals), then times ``reps`` runs and reports its own min.  A separate
traced run records tracemalloc peak memory and live allocation blocks.

Output identity (pooled results bitwise-equal to unpooled, identical
simulated cycle counters) is verified once per cell in the driver with a
machine attached, and recorded in the JSON.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # full
    PYTHONPATH=src python benchmarks/bench_wallclock.py --quick   # CI
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
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_PATH = HERE / "BENCH_wallclock.json"

WEIGHT_SEED = 7
PR_ITERATIONS = 50

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
PRIMITIVES = ("bfs", "sssp", "pagerank")


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
    from repro.primitives import bfs, pagerank, sssp

    if primitive == "bfs":
        return lambda: bfs(graph, 0, machine=machine_factory(),
                           direction="auto")
    if primitive == "sssp":
        gw = with_random_weights(graph, seed=WEIGHT_SEED)
        return lambda: sssp(gw, 0, machine=machine_factory())
    if primitive == "pagerank":
        return lambda: pagerank(graph, machine=machine_factory(),
                                max_iterations=PR_ITERATIONS)
    raise ValueError(f"unknown primitive {primitive!r}")


# --------------------------------------------------------------------------
# child mode: one (graph, primitive, pooling-mode) measurement per process
# --------------------------------------------------------------------------

def run_cell_child(spec: dict) -> None:
    from repro.core.engine import set_engine

    set_engine("pooled" if spec["pooled"] else "unpooled")
    graph = build_graph(spec["graph"])
    run = make_runner(spec["primitive"], graph)
    run()  # warmup: artifact caches, numpy setup, allocator steady state
    times = []
    for _ in range(spec["reps"]):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    run()
    _, peak = tracemalloc.get_traced_memory()
    blocks = sum(s.count for s in tracemalloc.take_snapshot().statistics("filename"))
    tracemalloc.stop()
    json.dump({"min_ms": min(times) * 1e3,
               "all_ms": [t * 1e3 for t in times],
               "alloc_peak_kb": peak / 1024.0,
               "alloc_blocks": blocks}, sys.stdout)


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
    """Bitwise output + simulated-counter identity, pooled vs unpooled."""
    import numpy as np

    from repro.core.engine import engine
    from repro.simt.machine import Machine

    graph = build_graph(graph_spec)
    results = {}
    for mode in (True, False):
        with engine("pooled" if mode else "unpooled"):
            machine = Machine()
            res = make_runner(primitive, graph,
                              machine_factory=lambda: machine)()
            results[mode] = (res, machine)
    (rp, mp), (ru, mu) = results[True], results[False]
    arrays_ok = all(
        rp.arrays[k].dtype == ru.arrays[k].dtype
        and np.array_equal(rp.arrays[k], ru.arrays[k])
        for k in rp.arrays)
    sig = lambda m: [(k.name, k.cycles, k.items, k.iteration)
                     for k in m.counters.kernels]
    counters_ok = (sig(mp) == sig(mu)
                   and mp.counters.cycles == mu.counters.cycles)
    return {"identical_outputs": bool(arrays_ok),
            "identical_cycles": bool(counters_ok)}


def run_benchmark(quick: bool, out_path: Path, pairs: int, reps: int) -> dict:
    graphs = GRAPHS[quick]
    cells = []
    for gname, gspec in graphs.items():
        graph = build_graph(gspec)
        n, m = int(graph.n), int(graph.m)
        for primitive in PRIMITIVES:
            print(f"[cell] {primitive}/{gname} ...", flush=True)
            identity = verify_identity(primitive, gspec)
            mins = {True: [], False: []}
            allocs = {}
            for rnd in range(pairs):
                # alternate which mode goes first so slow drift cancels
                order = (True, False) if rnd % 2 == 0 else (False, True)
                for pooled in order:
                    child = spawn_cell({"primitive": primitive,
                                        "graph": gspec, "pooled": pooled,
                                        "reps": reps})
                    mins[pooled].append(child["min_ms"])
                    allocs[pooled] = {
                        "peak_kb": round(child["alloc_peak_kb"], 1),
                        "blocks": child["alloc_blocks"]}
            pooled_ms = min(mins[True])
            unpooled_ms = min(mins[False])
            cell = {
                "primitive": primitive, "graph": gname, "n": n, "m": m,
                "pooled_ms": round(pooled_ms, 3),
                "unpooled_ms": round(unpooled_ms, 3),
                "speedup": round(unpooled_ms / pooled_ms, 4),
                "pooled_alloc": allocs[True],
                "unpooled_alloc": allocs[False],
                **identity,
            }
            print(f"       pooled {pooled_ms:8.1f} ms   "
                  f"unpooled {unpooled_ms:8.1f} ms   "
                  f"speedup {cell['speedup']:.2f}x   "
                  f"identical={identity['identical_outputs']}", flush=True)
            cells.append(cell)
    geomean = math.exp(sum(math.log(c["speedup"]) for c in cells) / len(cells))
    report = {
        "schema_version": 1,
        "config": {
            "quick": quick, "pairs": pairs, "reps": reps,
            "pr_iterations": PR_ITERATIONS, "weight_seed": WEIGHT_SEED,
            "python": platform.python_version(),
            "protocol": "fresh subprocess per cell*mode, interleaved "
                        "rounds, min across rounds of per-process min",
        },
        "cells": cells,
        "geomean_speedup": round(geomean, 4),
    }
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"\ngeomean speedup (pooled vs unpooled): {geomean:.3f}x")
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
