"""Wall-clock benchmark: the workspace's cached constants and expansion
memo vs none.

Measures real elapsed time (``machine=None`` — no simulated-cost
accounting) for BFS / SSSP / PageRank on an RMAT graph and a road grid,
under the pooled engine (cached iota / mask constants and the per-graph
expansion memo) vs the unpooled one (neither), and writes
``benchmarks/BENCH_wallclock.json``.  Scratch is allocated by both.

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

from _protocol import HERE, main, run_engines, same_arrays, same_counters

OUT_PATH = HERE / "BENCH_wallclock.json"
ENGINES = ("pooled", "unpooled")


def verify_identity(primitive: str, graph_spec: dict) -> dict:
    """Bitwise output + simulated-counter identity, pooled vs unpooled."""
    runs = run_engines(primitive, graph_spec, ENGINES)
    (rp, mp), (ru, mu) = runs["pooled"], runs["unpooled"]
    return {"identical_outputs": same_arrays(rp, ru),
            "identical_cycles": same_counters(mp, mu)}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, OUT_PATH, ENGINES, verify_identity,
                          alloc=True, unit="mode"))
