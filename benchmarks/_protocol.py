"""The fresh-subprocess ABBA wall-clock protocol, once.

``bench_fused.py`` (fused vs pooled) and ``bench_la.py`` (la vs pooled)
each name an engine pair, an identity check and a cell schema;
everything else is here:

* the graph table and builders, and ``make_runner``;
* the child (this file run as a script): select the engine, warm up once,
  time ``reps`` runs, report its own min — optionally a tracemalloc pass;
* the driver: per cell, identity first, then ``pairs`` rounds of one fresh
  subprocess per engine with the order alternating per round, and the
  minimum across rounds of each subprocess's own min;
* the geomean, the report skeleton and the command line.
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
# child: one (graph, primitive, engine) measurement per process
# --------------------------------------------------------------------------

def run_cell_child(spec: dict) -> None:
    from repro.core.engine import fallback_log, set_engine

    set_engine(spec["engine"])
    graph = build_graph(spec["graph"])
    run = make_runner(spec["primitive"], graph)
    run()  # warmup: plans, artifact caches, numpy setup, allocator state
    if fallback_log():
        raise SystemExit(f"{spec['engine']} run fell back: {fallback_log()}")
    times = []
    for _ in range(spec["reps"]):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    out = {"min_ms": min(times) * 1e3, "all_ms": [t * 1e3 for t in times]}
    if spec["alloc"]:
        tracemalloc.start()
        run()
        _, peak = tracemalloc.get_traced_memory()
        blocks = sum(s.count for s in
                     tracemalloc.take_snapshot().statistics("filename"))
        tracemalloc.stop()
        out["alloc"] = {"peak_kb": round(peak / 1024.0, 1), "blocks": blocks}
    json.dump(out, sys.stdout)


def spawn_cell(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), json.dumps(spec)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def run_engines(primitive: str, graph_spec: dict, engines) -> dict:
    """One run per engine with a simulated machine attached:
    ``{engine: (result, machine)}``.  A run that fell back to the library
    loop would pass any identity check vacuously, so it is refused."""
    from repro.core.engine import clear_fallbacks, engine, last_fallback
    from repro.simt.machine import Machine

    graph = build_graph(graph_spec)
    results = {}
    for mode in engines:
        clear_fallbacks()
        with engine(mode):
            machine = Machine()
            res = make_runner(primitive, graph,
                              machine_factory=lambda: machine)()
        if last_fallback() is not None:
            raise SystemExit(f"{primitive}: {mode} fell back: "
                             f"{last_fallback()}")
        results[mode] = (res, machine)
    return results


def same_arrays(ra, rb, keys=None) -> bool:
    import numpy as np

    return all(ra.arrays[k].dtype == rb.arrays[k].dtype
               and np.array_equal(ra.arrays[k], rb.arrays[k])
               for k in (ra.arrays if keys is None else keys))


def same_counters(ma, mb) -> bool:
    """Kernel-counter signature (name, cycles, items, iteration per
    launch) plus total cycles."""
    def sig(m):
        return [(k.name, k.cycles, k.items, k.iteration)
                for k in m.counters.kernels]
    return sig(ma) == sig(mb) and ma.counters.cycles == mb.counters.cycles


def run_benchmark(engines, verify_identity, *, quick: bool, out_path: Path,
                  pairs: int, reps: int, ratio_key: str = "speedup",
                  primitives=PRIMITIVES, alloc: bool = False,
                  unit: str = "engine", extra_config=None) -> dict:
    """``engines = (subject, baseline)``; a cell's ``ratio_key`` is
    ``baseline_ms / subject_ms``."""
    subject, baseline = engines
    cells = []
    for gname, gspec in GRAPHS[quick].items():
        graph = build_graph(gspec)
        n, m = int(graph.n), int(graph.m)
        for primitive in primitives:
            print(f"[cell] {primitive}/{gname} ...", flush=True)
            identity = verify_identity(primitive, gspec)
            mins = {eng: [] for eng in engines}
            allocs = {}
            for rnd in range(pairs):
                # alternate which engine goes first so slow drift cancels
                for eng in engines if rnd % 2 == 0 else engines[::-1]:
                    child = spawn_cell({"primitive": primitive,
                                        "graph": gspec, "engine": eng,
                                        "reps": reps, "alloc": alloc})
                    mins[eng].append(child["min_ms"])
                    if alloc:
                        allocs[f"{eng}_alloc"] = child["alloc"]
            ms = {eng: min(mins[eng]) for eng in engines}
            cell = {
                "primitive": primitive, "graph": gname, "n": n, "m": m,
                **{f"{eng}_ms": round(ms[eng], 3) for eng in engines},
                ratio_key: round(ms[baseline] / ms[subject], 4),
                **allocs, **identity,
            }
            flags = " ".join(f"{k}={v}" for k, v in identity.items())
            print(f"       {subject} {ms[subject]:8.1f} ms   "
                  f"{baseline} {ms[baseline]:8.1f} ms   "
                  f"{ratio_key} {cell[ratio_key]:.2f}x   {flags}", flush=True)
            cells.append(cell)
    geomean = math.exp(sum(math.log(c[ratio_key]) for c in cells) / len(cells))
    report = {
        "schema_version": 1,
        "config": {
            "quick": quick, "pairs": pairs, "reps": reps,
            "pr_iterations": PR_ITERATIONS, "weight_seed": WEIGHT_SEED,
            **(extra_config or {}),
            "python": platform.python_version(),
            "protocol": f"fresh subprocess per cell*{unit}, interleaved "
                        "rounds, min across rounds of per-process min",
        },
        "cells": cells,
        f"geomean_{ratio_key}": round(geomean, 4),
    }
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"\ngeomean {ratio_key} ({baseline}_ms / {subject}_ms, >1 means "
          f"{subject} faster): {geomean:.3f}x")
    print(f"wrote {out_path}")
    return report


def main(doc: str, out_path: Path, engines, verify_identity, **bench) -> int:
    sys.path.insert(0, str(SRC))
    ap = argparse.ArgumentParser(
        description=doc, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true",
                    help="small graphs / fewer rounds (CI perf-smoke)")
    ap.add_argument("--out", type=Path, default=out_path)
    ap.add_argument("--pairs", type=int, default=None,
                    help="interleaved subprocess rounds per cell")
    ap.add_argument("--reps", type=int, default=None,
                    help="timed runs inside each subprocess")
    args = ap.parse_args()
    pairs = args.pairs if args.pairs is not None else (2 if args.quick else 4)
    reps = args.reps if args.reps is not None else (3 if args.quick else 5)
    run_benchmark(engines, verify_identity, quick=args.quick,
                  out_path=args.out, pairs=pairs, reps=reps, **bench)
    return 0


if __name__ == "__main__":
    run_cell_child(json.loads(sys.argv[1]))
