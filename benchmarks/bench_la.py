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

from _protocol import HERE, PRIMITIVES, main, run_engines, same_arrays

OUT_PATH = HERE / "BENCH_la.json"
ENGINES = ("la", "pooled")

RANK_RTOL = 1e-9
RANK_ATOL = 1e-12

# which output arrays the contract pins bitwise vs to tolerance
BITWISE_ARRAYS = {"bfs": ("labels",), "sssp": ("labels",),
                  "cc": ("component_ids",)}
TOLERANCE_ARRAYS = {"pagerank": ("rank",)}


def verify_identity(primitive: str, graph_spec: dict) -> dict:
    """Equivalence-contract check, la vs pooled, with a simulated machine
    attached."""
    import numpy as np

    runs = run_engines(primitive, graph_spec, ENGINES)
    rl, rp = runs["la"][0], runs["pooled"][0]
    tol_ok = all(
        np.allclose(rl.arrays[k], rp.arrays[k],
                    rtol=RANK_RTOL, atol=RANK_ATOL)
        for k in TOLERANCE_ARRAYS.get(primitive, ()))
    return {"contract_bitwise": same_arrays(
                rp, rl, BITWISE_ARRAYS.get(primitive, ())),
            "contract_tolerance": bool(tol_ok)}


if __name__ == "__main__":
    raise SystemExit(main(
        __doc__, OUT_PATH, ENGINES, verify_identity, ratio_key="ratio",
        primitives=PRIMITIVES + ("cc",),
        extra_config={"rank_rtol": RANK_RTOL, "rank_atol": RANK_ATOL}))
