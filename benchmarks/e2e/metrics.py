"""The metric catalogue: every name the benchmark prints, with its unit, its
clock and its direction.  ``BENCHMARK.json`` at the repo root lists the same
names (a self-test pins the two together); the clock lives only here.

Clocks: ``host`` is what this Python program takes on this machine (noisy;
scaled by ``hostclock`` to the speed of an idle box);
``sim`` is what the modelled K40c of ``repro.simt`` takes, a pure function of
inputs and seed; ``count`` is a tally.  ``sim`` and ``count`` values must
repeat exactly, and the digest line covers all of them.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, NamedTuple, Sequence

from trace import LAYERS


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str          # "host" | "sim" | "count"
    better: str         # "lower" | "higher"
    bound: float = 0.0  # end-to-end only: share of the median it may worsen


#: what a user of the system sees; every workload reports every one.
#:
#: ``bound`` is the share of the median by which a later change may worsen
#: the metric.  Whoever gates on it compares medians over runs of *different
#: seeds* and needs the quartile spread of those runs inside the bound, so it
#: cannot be tighter than the inputs and the box move the metric.  Over ten
#: seeds a workload, twice (``spread.py``, ``baseline/spread-*.json``; README,
#: "What sets the bounds"), the widest spread was 19.8 % on the three host
#: timings (``road-traverse`` while a neighbour came and went; 12.4 % with
#: the box idle), 7.5 % on ``peak_rss_mb``, 7.7 % on ``sim_ms`` and 16 % on
#: ``sim_p99_ms`` (a p99 of 1000 draws; sim values repeat exactly for one
#: seed and move with the draw).  A bound is 1.5 times the widest spread,
#: rounded up to 0.05 and capped at the 0.25 the contract allows;
#: ``setup_s`` takes the largest.  For one seed the gate is tight: see
#: :data:`REPEAT_BOUND`.
END_TO_END: Sequence[Metric] = (
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("queries_per_s", "1/s", "host", "higher", 0.25),
    Metric("query_ms_p50", "ms", "host", "lower", 0.25),
    Metric("solve_geomean_ms", "ms", "host", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.15),
    Metric("sim_ms", "ms", "sim", "lower", 0.15),
    Metric("sim_p99_ms", "ms", "sim", "lower", 0.25),
)

#: two sets of runs of one seed and one code (``--check-repeat``) may differ
#: by this share on a host-clock end-to-end metric, and not at all on a
#: ``sim`` or count value; against ``baseline/`` the same holds for the
#: ``sim`` and count values of a later commit.  ``setup_s`` keeps its own
#: bound there: it is one import and the median of three short set-ups, and
#: the import alone took 0.39-0.59 s in back-to-back runs of one seed.
REPEAT_BOUND = 0.10

_LAYERS = LAYERS[1:]  # every traced layer but the benchmark's own
_PRIMITIVES = ("bfs", "sssp", "bc", "pagerank", "cc", "ppr", "wtf")


def _m(name: str, unit: str, clock: str = "host",
       better: str = "lower") -> Metric:
    return Metric(name, unit, clock, better)


#: single layers (layer = module under ``src/repro``), from the traced run
PER_LAYER: Sequence[Metric] = (
    # graph: probes on the workload's first graph
    _m("graph.generate_ms", "ms"), _m("graph.weights_ms", "ms"),
    _m("graph.artifacts_ms", "ms"), _m("graph.block_diagonal_ms", "ms"),
    _m("graph.nbytes", "B", "count"),
    # core: operators driven directly with a pass-through functor
    _m("core.advance_push_full_ms", "ms"), _m("core.advance_pull_full_ms", "ms"),
    _m("core.filter_full_ms", "ms"), _m("core.compute_full_ms", "ms"),
    _m("core.advance_small_us", "us"), _m("core.filter_small_us", "us"),
    _m("core.probe_pooled_ms", "ms"), _m("core.probe_unpooled_ms", "ms"),
    # core: the workload's own pass
    _m("core.supersteps", "count", "count"), _m("core.us_per_superstep", "us"),
    _m("core.ns_per_edge", "ns"), _m("core.fallbacks", "count", "count"),
    # trace: self time and calls per layer, time inside each primitive
    *(_m(f"{layer}.self_ms", "ms") for layer in _LAYERS),
    *(_m(f"{layer}.calls", "count", "count") for layer in _LAYERS),
    *(_m(f"primitives.{p}_ms", "ms") for p in _PRIMITIVES),
    _m("trace.spans", "count", "count"), _m("trace.overhead_ratio", "ratio"),
    # la / analysis probes
    _m("la.spmspv_minplus_ms", "ms"), _m("la.spmspv_boolor_ms", "ms"),
    _m("la.spmv_plustimes_ms", "ms"),
    _m("analysis.plan_compile_ms", "ms"), _m("analysis.plan_cached_us", "us"),
    # simt: the modelled machine's counters, and what the model costs the host
    _m("simt.cycles", "cycles", "sim"),
    _m("simt.kernel_launches", "count", "count"),
    _m("simt.edges_visited", "count", "count"),
    _m("simt.vertices_processed", "count", "count"),
    _m("simt.atomics_issued", "count", "count"),
    _m("simt.atomic_conflicts", "count", "count"),
    _m("simt.conflict_ratio", "ratio", "count"),
    _m("simt.compact_elements", "count", "count"),
    _m("simt.frontier_peak", "count", "count"),
    _m("simt.advance_cycles", "cycles", "sim"),
    _m("simt.filter_cycles", "cycles", "sim"),
    _m("simt.other_cycles", "cycles", "sim"),
    _m("simt.latency_p50_ms", "ms", "sim"),
    _m("simt.machine_overhead_ratio", "ratio"),
    _m("simt.host_ns_per_cycle", "ns"),
    # serve: probes, the trace, and the replay's report
    _m("serve.build_workload_ms", "ms"), _m("serve.plan_batches_us", "us"),
    _m("serve.execute_batch_ms", "ms"), _m("serve.solo8_ms", "ms"),
    _m("serve.lane_amortisation", "ratio", better="higher"),
    _m("serve.cache_get_us", "us"), _m("serve.cache_put_us", "us"),
    _m("serve.replay_self_ms", "ms"),
    _m("serve.execute_share", "ratio"),
    _m("serve.host_ms_per_request", "ms"),
    _m("serve.hit_rate", "ratio", "count", "higher"),
    _m("serve.evictions", "count", "count"),
    _m("serve.executed_batches", "count", "count"),
    _m("serve.mean_lanes", "count", "count", "higher"),
    _m("serve.shed", "count", "count"),
    _m("serve.deadline_drops", "count", "count"),
    _m("serve.deadline_misses", "count", "count"),
    _m("serve.stale_hits", "count", "count"),
    _m("serve.sim_goodput_rps", "1/s", "sim", "higher"),
    _m("serve.failovers", "count", "count"),
    _m("serve.hedges_launched", "count", "count"),
    _m("serve.hedges_won", "count", "count", "higher"),
    _m("serve.hedge_waste_ms", "ms", "sim"),
    _m("serve.breaker_opens", "count", "count"),
    _m("serve.killed_replicas", "count", "count"),
    # dynamic: probes, and the replay's streaming-update summary
    _m("dynamic.apply_ms", "ms"), _m("dynamic.compact_ms", "ms"),
    _m("dynamic.delta_bfs_ms", "ms"), _m("dynamic.delta_sssp_ms", "ms"),
    _m("dynamic.incremental_pagerank_ms", "ms"),
    _m("dynamic.recompute_ms", "ms"),
    _m("dynamic.repairs_incremental", "count", "count"),
    _m("dynamic.repair_fallbacks", "count", "count"),
    _m("dynamic.cache_carried", "count", "count", "higher"),
    _m("dynamic.compactions", "count", "count"),
    _m("dynamic.sim_repair_ms", "ms", "sim"),
    _m("cli.import_ms", "ms"),
)

CATALOGUE: Dict[str, Metric] = {m.name: m for m in (*END_TO_END, *PER_LAYER)}


def exact(values: Dict[str, float]) -> Dict[str, float]:
    """The ``sim`` and ``count`` values of a run: what the digest covers."""
    return {name: value for name, value in values.items()
            if name in CATALOGUE and CATALOGUE[name].clock != "host"}


# -- the few statistics the benchmark reports ----------------------------------


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


def nearest_rank(values: List[float], share: float) -> float:
    """Exact sample percentile: the smallest value with at least ``share``
    of the sample at or below it (for fewer than 100 samples and
    ``share=0.99`` this is the maximum)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
