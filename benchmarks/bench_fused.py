"""Wall-clock benchmark: fused specializer vs the pooled library loop.

Measures real elapsed time (``machine=None`` — no simulated-cost
accounting) for BFS / SSSP / PageRank on an RMAT graph and a road grid,
with the fused engine vs pooled operator execution, and writes
``benchmarks/BENCH_fused.json``.

The measurement protocol is the one ``bench_wallclock.py`` established:
every cell × engine measurement runs in its own fresh subprocess (modes
never share a heap), subprocess rounds are interleaved ABBA so
machine-level drift cancels, and each engine takes the minimum across
rounds of each subprocess's own min — the least-noise estimator of a
deterministic workload's true cost.

Identity is verified once per cell in the driver *with a machine
attached*: fused output arrays must be bitwise-equal to pooled and the
kernel-counter signatures (name, cycles, items, iteration per launch,
plus total cycles) must match exactly.  A fused run that fell back to
the library loop would produce identical counters trivially, so the
driver also asserts the fused dispatch actually happened (no fallback
recorded).

Usage::

    PYTHONPATH=src python benchmarks/bench_fused.py           # full
    PYTHONPATH=src python benchmarks/bench_fused.py --quick   # CI
    ... --out /tmp/bench.json
"""

from __future__ import annotations

from _protocol import HERE, main, run_engines, same_arrays, same_counters

OUT_PATH = HERE / "BENCH_fused.json"
ENGINES = ("fused", "pooled")


def verify_identity(primitive: str, graph_spec: dict) -> dict:
    """Bitwise output + kernel-counter-signature identity, fused vs
    pooled, with a simulated machine attached."""
    runs = run_engines(primitive, graph_spec, ENGINES)
    (rf, mf), (rp, mp) = runs["fused"], runs["pooled"]
    return {"identical_outputs": same_arrays(rp, rf),
            "identical_counters": same_counters(mp, mf)}


if __name__ == "__main__":
    raise SystemExit(main(__doc__, OUT_PATH, ENGINES, verify_identity))
