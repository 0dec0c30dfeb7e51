"""The six workloads: inputs from a seed, one pass, its checks.

A *batch* workload is a fixed list of queries (graph x primitive x engine x
source) run back to back with ``machine=None``; a *serve* workload is a
request stream replayed through a scheduler, which always runs
machine-attached.  Everything a workload feeds the program derives from the
seed; the program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import csgraph

import check
import hostclock
from repro.analysis.plan import reset_report_cache
from repro.core.engine import clear_fallbacks, engine, fallback_log
from repro.graph import generators
from repro.graph.build import with_random_weights
from repro.graph.csr import Csr
from repro import primitives
from repro.serve import (DEFAULT_MAX_LANES, BreakerPolicy, DeadlineScheduler,
                         GraphService, ServeReport, ShardedGraphService,
                         ShardScheduler, ShardTier, WorkloadSpec,
                         build_workload, parse_kill_schedule)
from repro.simt.counters import Counters
from repro.simt.machine import Machine


@dataclass(frozen=True)
class GraphSpec:
    kind: str    # "rmat" | "road" | "kron"
    size: int    # scale, or grid side
    quick: int   # the same for --quick

    def name(self, quick: bool) -> str:
        return f"{self.kind}{self.quick if quick else self.size}"

    def generate(self, seed: int, quick: bool) -> Csr:
        size = self.quick if quick else self.size
        if self.kind == "rmat":
            return generators.rmat(size, edge_factor=16, seed=seed)
        if self.kind == "kron":
            return generators.kronecker(size, seed=seed)
        return generators.road_grid(size, size, seed=seed)


def pick_sources(spec: GraphSpec, g: Csr, quick: bool, count: int,
                 rng: np.random.Generator) -> List[int]:
    """``count`` seeded sources whose total work barely depends on the draw.

    Scale-free: vertices of the largest component (an isolated or
    two-vertex component would make a query trivial).  Road grid: half the
    sources are drawn, the other half are their torus opposites
    ``(x + W/2, y + H/2)``; on a grid the BFS depth from ``(x, y)`` is
    ``max(x, W-1-x) + max(y, H-1-y)``, so each pair's depths sum to about
    ``1.5 (W + H)`` wherever the seed puts it.  Without that, a pass from
    four drawn sources spans 1500-1850 super-steps across seeds.
    """
    if spec.kind == "road":
        side = spec.quick if quick else spec.size
        drawn = rng.integers(0, g.n, size=(count + 1) // 2)
        x, y = drawn % side, drawn // side
        opposite = ((y + side // 2) % side) * side + (x + side // 2) % side
        return [int(v) for pair in zip(drawn, opposite) for v in pair][:count]
    matrix = check.GraphOracle(g).matrix
    _, label = csgraph.connected_components(matrix, directed=False)
    giant = np.flatnonzero(label == np.bincount(label).argmax())
    return [int(v) for v in rng.choice(giant, size=count, replace=False)]


# -- batch workloads ---------------------------------------------------------------


@dataclass
class Query:
    cell: str                        # "<engine>.<primitive>.<graph>"
    engine: Optional[str]            # None = the process default (pooled)
    primitive: str
    graph: str
    source: Optional[int]
    call: Callable[[Optional[Machine]], object]


@dataclass
class BatchInputs:
    graphs: Dict[str, Csr]
    weighted: Dict[str, Csr]
    queries: List[Query]
    #: for the probes: the first graph, how to make it again, one source
    first: Csr = None
    regenerate: Callable[[], Csr] = None
    source: int = 0


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    why: str
    graphs: Tuple[GraphSpec, ...]
    primitives: Tuple[str, ...]
    sources: int                      # per graph, for bfs / sssp / bc
    rounds: int                       # the timed section: rounds x passes,
    passes: int                       # the same on every commit
    engines: Tuple[Optional[str], ...] = (None,)
    kind: str = "batch"

    def build(self, seed: int, quick: bool) -> BatchInputs:
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        reset_report_cache()  # a set-up pays plan compilation, like a fresh process
        inputs = BatchInputs({}, {}, [])
        for spec in self.graphs:
            graph_seed, weight_seed = (int(s) for s in rng.integers(1 << 31, size=2))
            name = spec.name(quick)
            g = spec.generate(graph_seed, quick)
            gw = with_random_weights(g, low=1, high=64, seed=weight_seed)
            for graph in (g, gw):  # first touch of the derived structures
                graph.csc, graph.edge_sources, graph.out_degrees
            inputs.graphs[name], inputs.weighted[name] = g, gw
            sources = pick_sources(spec, g, quick, self.sources, rng)
            if inputs.first is None:
                inputs.first = g
                inputs.source = sources[0] if sources else \
                    int(np.flatnonzero(g.out_degrees > 0)[0])
                inputs.regenerate = (lambda s=spec, gs=graph_seed:
                                     s.generate(gs, quick))
            for eng in self.engines:
                for prim in self.primitives:
                    for src in (sources if prim in SOURCED else [None]):
                        inputs.queries.append(Query(
                            f"{eng or 'pooled'}.{prim}.{name}", eng, prim,
                            name, src, _call(prim, g, gw, src)))
        return inputs


SOURCED = ("bfs", "sssp", "bc")


def _call(prim: str, g: Csr, gw: Csr, src: Optional[int]):
    # looked up in the package at call time, so a traced run's wrappers apply
    if prim == "bfs":
        return lambda m: primitives.bfs(g, src, direction="auto", machine=m)
    if prim == "sssp":
        return lambda m: primitives.sssp(gw, src, machine=m)
    if prim == "bc":
        return lambda m: primitives.bc(g, src, machine=m)
    if prim == "pagerank":
        return lambda m: primitives.pagerank(g, max_iterations=50, machine=m)
    if prim == "cc":
        return lambda m: primitives.cc(g, machine=m)
    raise ValueError(f"no batch query for {prim!r}")


@dataclass
class Sample:
    """One executed query: host seconds (speed-normalised, see
    ``hostclock``, and raw), and its result or why it failed."""
    host_s: float = 0.0
    raw_s: float = 0.0
    result: object = None
    error: Optional[str] = None


def run_pass(queries: List[Query], machine: bool = False,
             tracer=None) -> List[Sample]:
    """Run every query once, timing each call on the host clock; the
    calibration kernel runs before and after the pass, and every sample of
    the pass is scaled by the mean of the two.

    A query that raises, or that a ``fused``/``la`` cell answers through
    the pooled fallback, is recorded as failed; the pass goes on.
    """
    out = []
    before = hostclock.slowdown()
    root = None if tracer is None else tracer.begin("pass", "bench")
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query_id = i
        m = Machine() if machine else None
        scope = engine(q.engine) if q.engine else contextlib.nullcontext()
        with scope:
            clear_fallbacks()
            t0 = time.perf_counter()
            try:
                sample = Sample(result=q.call(m))
            except Exception:  # the benchmark must report, not die
                sample = Sample(error=traceback.format_exc(limit=3))
            sample.raw_s = time.perf_counter() - t0
            if q.engine in ("fused", "la") and fallback_log():
                sample.error = f"fell back to pooled: {fallback_log()[-1][1]}"
        out.append(sample)
    if tracer is not None:
        tracer.end(root)
    after = hostclock.slowdown()
    for sample in out:
        sample.host_s = hostclock.normalised(sample.raw_s, before, after)
    return out


def certify_first_queries(inputs: BatchInputs, samples: List[Sample]
                          ) -> List[str]:
    """Certify the first query of every cell against the oracles."""
    oracles: Dict[Tuple[str, bool], check.GraphOracle] = {}
    problems, seen = [], set()
    for q, s in zip(inputs.queries, samples):
        if q.cell in seen:
            continue
        seen.add(q.cell)
        if s.error:
            problems.append(f"{q.cell}: {s.error}")
            continue
        weighted = q.primitive == "sssp"
        graph = (inputs.weighted if weighted else inputs.graphs)[q.graph]
        oracle = oracles.get((q.graph, weighted))
        if oracle is None:
            oracle = oracles[(q.graph, weighted)] = check.GraphOracle(graph)
        arrays = s.result.arrays
        if q.primitive == "bfs":
            why = check.certify_bfs(oracle, q.source, arrays)
        elif q.primitive == "sssp":
            why = check.certify_sssp(oracle, q.source, arrays)
        elif q.primitive == "cc":
            why = check.certify_cc(oracle, arrays)
        elif q.primitive == "pagerank":
            why = check.certify_pagerank(oracle, arrays)
        else:  # bc: the unpooled engine is the repo's oracle path
            with engine("unpooled"):
                want = primitives.bc(graph, q.source).arrays
            why = check.certify_equal(arrays, want,
                                      "the unpooled oracle engine")
        if why:
            problems.append(f"{q.cell} (source {q.source}): {why}")
    return problems


# -- serve workloads -----------------------------------------------------------------


@dataclass
class Replay:
    """One finished replay and everything the checks and metrics read."""
    host_s: float                    # speed-normalised, see ``hostclock``
    raw_s: float
    segment_ms: List[float]          # normalised ms per request, per segment
    report: ServeReport
    completions: list
    service: GraphService
    machines: List[Machine]

    def counters(self) -> Counters:
        total = Counters()
        for m in self.machines:
            total.merge(m.counters)
        return total


class _SegmentClock:
    """``on_complete`` hook: every ``every`` completions it closes a host
    clock segment, runs the calibration kernel (outside every segment) and
    opens the next; then whatever the closed-loop driver wants to send."""

    def __init__(self, every: int, driver):
        self.every, self.driver = every, driver
        self.count = 0
        self.slowdowns = [hostclock.slowdown()]
        self.segments = []          # raw seconds of each closed segment
        self._opened = time.perf_counter()

    def close(self) -> None:
        self.segments.append(time.perf_counter() - self._opened)
        self.slowdowns.append(hostclock.slowdown())
        self._opened = time.perf_counter()

    def __call__(self, request, completion):
        self.count += 1
        if self.count % self.every == 0:
            self.close()
        return self.driver(request, completion) if self.driver else None

    def normalised(self) -> List[float]:
        return [hostclock.normalised(raw, before, after) for raw, before, after
                in zip(self.segments, self.slowdowns, self.slowdowns[1:])]


#: ``GraphService``'s default result-cache budget
DEFAULT_CACHE_BYTES = 64 << 20
#: a budget no replay here reaches: every insertion stays resident
UNBOUNDED_CACHE_BYTES = 1 << 40


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    graph: GraphSpec
    rate_rps: float                   # the reference rate
    spec: Dict[str, object]           # WorkloadSpec fields beyond seed/rate
    rounds: int                       # timed replays, the same on every commit
    #: the cache holds this share of the bytes an unbounded-cache replay of
    #: the stream inserts (measured in set-up); None = the service's default
    cache_share: Optional[float] = None
    sharded: bool = False
    kill_schedule: str = ""
    kind: str = "serve"
    requests: int = 1000
    quick_requests: int = 300
    warmup_requests: int = 100
    segments: int = 10

    def build(self, seed: int, quick: bool) -> "ServeInputs":
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        graph_seed, spec_seed = (int(s) for s in rng.integers(1 << 31, size=2))
        g = self.graph.generate(graph_seed, quick)
        g.csc, g.edge_sources, g.out_degrees
        return ServeInputs(
            g, spec_seed, self.quick_requests if quick else self.requests,
            lambda: self.graph.generate(graph_seed, quick))

    def workload_spec(self, inputs: "ServeInputs", requests: int,
                      **overrides) -> WorkloadSpec:
        fields = dict(self.spec, requests=requests, seed=inputs.spec_seed,
                      arrival_rate_rps=self.rate_rps)
        fields.update(overrides)
        if fields.get("updates"):
            # keep the update schedule inside the (shorter) replay
            span_ms = requests / fields["arrival_rate_rps"] * 1e3
            fields["update_interval_ms"] = min(
                fields["update_interval_ms"],
                span_ms / (fields["updates"] + 1))
        return WorkloadSpec(**fields)

    def replay(self, inputs: "ServeInputs", spec: WorkloadSpec,
               cache_bytes: Optional[int] = None) -> Replay:
        """``run_serving`` / ``run_sharded_serving`` spelled out, because
        they return only the report and the checks need the service (cache
        entries), the devices (counters) and the completions."""
        budget = inputs.cache_bytes if cache_bytes is None else cache_bytes
        g = inputs.graph
        if self.sharded:
            tier = ShardTier(2, 2, breaker=BreakerPolicy())
            service = ShardedGraphService(tier, cache_bytes=budget)
            service.load_graph(g)
            scheduler = ShardScheduler(
                service, max_queue=64, batch_window_ms=2.0,
                max_lanes=DEFAULT_MAX_LANES, seed=spec.seed, hedging=True,
                incremental=True)
            machines = [r.machine for r in tier.all_replicas()]
            extra = {"kills": parse_kill_schedule(self.kill_schedule, 2, 2)}
        else:
            service = GraphService(cache_bytes=budget)
            service.load_graph(g)
            scheduler = DeadlineScheduler(
                service, devices=1, max_queue=64, batch_window_ms=2.0,
                max_lanes=DEFAULT_MAX_LANES, seed=spec.seed)
            machines = [d.machine for d in scheduler.devices]
            extra = {}
        workload = build_workload(g, spec)
        clock = _SegmentClock(max(1, spec.requests // self.segments),
                              workload.driver)
        completions = scheduler.replay(
            workload.initial_requests, updates=workload.updates,
            on_complete=clock, **extra)
        clock.close()  # the tail after the last full segment
        summaries = {"dynamic": scheduler.dynamic_summary()}
        if self.sharded:
            summaries["shard"] = scheduler.shard_summary()
        report = ServeReport.from_replay(
            completions, service,
            recovered_faults=scheduler.recovered_faults,
            retry_backoff_ms=scheduler.retry_backoff_ms,
            metrics=scheduler.metrics, **summaries)
        seconds = clock.normalised()
        full = spec.requests // clock.every  # segments of exactly `every`
        return Replay(sum(seconds), sum(clock.segments),
                      [s / clock.every * 1e3 for s in seconds[:full]],
                      report, completions, service, machines)


@dataclass
class ServeInputs:
    graph: Csr
    spec_seed: int
    requests: int
    regenerate: Callable[[], Csr]
    cache_bytes: int = DEFAULT_CACHE_BYTES

    @property
    def first(self) -> Csr:
        return self.graph

    @property
    def source(self) -> int:
        return int(np.flatnonzero(self.graph.out_degrees > 0)[0])


def certify_serve(w: ServeWorkload, replay: Replay, seed: int,
                   sample: int = 6) -> List[str]:
    problems = check.certify_replay(replay.report, len(replay.completions))
    vg = replay.service.graph_version()
    problems += check.certify_cache_sample(
        replay.service.cache.entries_for(vg.name, vg.version), vg.csr,
        np.random.default_rng([seed, 99]), sample, repairs=vg.version)
    return [f"{w.name}: {p}" for p in problems]


def failed_requests(report: ServeReport) -> int:
    """Offered requests that got no reply: shed, dropped or failed."""
    return report.shed + report.deadline_drops + report.failed


# -- the six ----------------------------------------------------------------------------

RMAT14, ROAD300 = GraphSpec("rmat", 14, 10), GraphSpec("road", 300, 40)
RMAT12, ROAD100 = GraphSpec("rmat", 12, 8), GraphSpec("road", 100, 20)
KRON11 = GraphSpec("kron", 11, 9)

#: the open-loop ladder of ``serve-steady`` (requests per simulated second)
LADDER_RPS = (1000, 1400, 2000, 2800, 4000)
#: a rung passes when p99 latency and the failed share stay within these
LADDER_P99_MS, LADDER_FAILED_SHARE = 10.0, 0.01

WORKLOADS = (
    BatchWorkload(
        "scalefree-traverse",
        "5-13 super-steps over frontiers of 1e4-1e5 edges: operator bodies "
        "(expand, mask, compact) do the work, per-super-step overhead none",
        (RMAT14,), ("bfs", "sssp", "bc"), sources=8, rounds=6, passes=2),
    BatchWorkload(
        "road-traverse",
        "the same code the opposite way: hundreds of super-steps over "
        "frontiers of a few hundred vertices, so per-call fixed cost dominates",
        (ROAD300,), ("bfs", "sssp", "bc"), sources=4, rounds=6, passes=1),
    BatchWorkload(
        "global-rank",
        "full-frontier iterations with scatter/atomic accumulation and almost "
        "no filter work: an advance change shows here, a filter change does not",
        (RMAT14, ROAD300), ("pagerank", "cc"), sources=0, rounds=6, passes=8),
    BatchWorkload(
        "engine-matrix",
        "the only workload that runs core/fused.py and la/: every primitive "
        "under pooled, fused and la, gated by an equal-weight geomean over cells",
        (RMAT12, ROAD100), ("bfs", "sssp", "pagerank", "cc"), sources=2,
        rounds=6, passes=1, engines=("pooled", "fused", "la")),
    ServeWorkload(
        "serve-steady",
        "read-only Zipf-0.8 traffic through scheduler, batcher and a cache "
        "sized to evict: miss-path latency below the knee of the rate ladder",
        KRON11, rate_rps=1000.0,
        spec={"mode": "open", "zipf_s": 0.8, "deadline_scale": 2.0},
        rounds=2, cache_share=0.25),
    ServeWorkload(
        "serve-churn",
        "writes beside reads: 16 edge deltas, incremental repair, two shards "
        "x two replicas and one replica loss on the same cache and batcher",
        KRON11, rate_rps=1000.0,
        spec={"mode": "open", "deadline_scale": 2.0, "updates": 16,
              "update_interval_ms": 50.0, "update_kind": "edges",
              "delta_frac": 0.005},
        rounds=2, sharded=True, kill_schedule="300:0:1"),
)

WORKLOAD_NAMES = [w.name for w in WORKLOADS]
BY_NAME = {w.name: w for w in WORKLOADS}
