"""Per-layer probes: each layer's public functions timed from outside.

A probe calls one public function of one layer on the workload's own first
graph, so every per-layer metric exists for every workload and a change to
a layer shows in its probe whether or not a workload's trace reaches it.
All values are on the speed-normalised host clock (``hostclock``); each is
the median of ``REPS`` calls (one call when it takes over ``SLOW_S``) unless
the name says otherwise.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
from typing import Callable, Dict

import numpy as np

import hostclock
from repro.analysis.plan import plan_for, reset_report_cache
from repro.core.engine import engine
from repro.core.frontier import Frontier
from repro.core.functor import Functor
from repro.core.operators import advance, compute, filter_frontier
from repro.dynamic.delta import DeltaCsr, random_mutation_batch
from repro.dynamic.incremental import (delta_bfs, delta_sssp,
                                       incremental_pagerank)
from repro.graph.build import block_diagonal, with_random_weights
from repro.graph.csr import Csr
from repro.la.semiring import BOOL_OR_AND, MIN_PLUS, PLUS_TIMES, spmspv, spmv
from repro.primitives import BfsProblem, bfs, cc, pagerank, sssp
from repro.serve import (Batch, BatchedQuery, ResultCache, WorkloadSpec,
                         build_workload, execute_batch, plan_batches)
from repro.simt.machine import Machine

REPS = 3
SLOW_S = 0.3  # a call slower than this is sampled once, not REPS times
LANES = 8


class PassThrough(Functor):
    """A near-empty program in the paper's programming model: admits every
    unvisited endpoint (all but the source) and stores each label back onto
    itself.  The masks are computed, not the workspace's cached all-true
    view, so the operators do their mask, scatter and compaction work while
    the problem's state never changes."""

    def cond_edge(self, problem, src, dst, edge_id):
        return problem.labels[dst] < 0

    def cond_vertex(self, problem, v):
        return problem.labels[v] < 0

    def apply_vertex(self, problem, v):
        problem.labels[v] = problem.labels[v]


def seconds(fn: Callable[[], object]) -> float:
    return hostclock.timed(fn)[0]


def median_ms(fn: Callable[[], object]) -> float:
    samples = []
    for _ in range(REPS):
        samples.append(seconds(fn))
        if samples[-1] > SLOW_S:
            break
    return statistics.median(samples) * 1e3


def mean_us(fn: Callable[[], object], calls: int) -> float:
    def loop():
        for _ in range(calls):
            fn()
    return seconds(loop) / calls * 1e6


def cold_copy(g: Csr) -> Csr:
    """The same topology with no derived structure cached yet."""
    return Csr(g.indptr, g.indices, g.edge_values, n=g.n, validate=False)


def probe_pass(g: Csr, src: int, machine: bool = False) -> None:
    """One query of each batch primitive: the fixed mix the engine and
    machine-overhead probes time."""
    def m():
        return Machine() if machine else None
    bfs(g, src, machine=m())
    sssp(g, src, machine=m())
    pagerank(g, max_iterations=50, machine=m())
    cc(g, machine=m())


def graph_probes(generate: Callable[[], Csr], g: Csr, seed: int
                 ) -> Dict[str, float]:
    def first_touch():
        cold = cold_copy(g)
        return cold.csc, cold.edge_sources, cold.out_degrees

    return {
        "graph.generate_ms": median_ms(generate),
        "graph.weights_ms": median_ms(
            lambda: with_random_weights(g, seed=seed)),
        "graph.artifacts_ms": median_ms(first_touch),
        "graph.block_diagonal_ms": median_ms(
            lambda: block_diagonal(g, LANES)),
        "graph.nbytes": float(g.nbytes()),
    }


def core_probes(g: Csr, src: int) -> Dict[str, float]:
    problem = BfsProblem(g)
    problem.set_source(src)
    functor = PassThrough()

    def alternating(items: np.ndarray):
        """Two frontiers of the same vertices in turn: the workspace keeps
        the last expansion, and a repeated frontier would only time that."""
        swapped = items.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        pair = itertools.cycle((Frontier.from_vertices(items),
                                Frontier.from_vertices(swapped)))
        return lambda: next(pair)

    full = alternating(np.arange(g.n, dtype=np.int64))
    small = alternating(np.flatnonzero(g.out_degrees > 0)[:32])
    advance(problem, full(), functor, mode="push")  # size the pooled scratch
    out = {
        "core.advance_push_full_ms": median_ms(
            lambda: advance(problem, full(), functor, mode="push")),
        "core.advance_pull_full_ms": median_ms(
            lambda: advance(problem, full(), functor, mode="pull")),
        "core.filter_full_ms": median_ms(
            lambda: filter_frontier(problem, full(), functor)),
        "core.compute_full_ms": median_ms(
            lambda: compute(problem, full(), functor)),
        "core.advance_small_us": mean_us(
            lambda: advance(problem, small(), functor, mode="push"), 200),
        "core.filter_small_us": mean_us(
            lambda: filter_frontier(problem, small(), functor), 200),
        "core.probe_pooled_ms": median_ms(lambda: probe_pass(g, src)),
    }
    with engine("unpooled"):
        out["core.probe_unpooled_ms"] = median_ms(lambda: probe_pass(g, src))
    machine_ms = median_ms(lambda: probe_pass(g, src, machine=True))
    out["simt.machine_overhead_ratio"] = machine_ms / out["core.probe_pooled_ms"]
    return out


def la_probes(g: Csr) -> Dict[str, float]:
    ids = np.arange(g.n, dtype=np.int64)
    weights = g.artifacts.weights64
    return {
        "la.spmspv_minplus_ms": median_ms(lambda: spmspv(
            g, ids, np.zeros(g.n), MIN_PLUS, edge_values=weights)),
        "la.spmspv_boolor_ms": median_ms(lambda: spmspv(
            g, ids, np.ones(g.n, dtype=bool), BOOL_OR_AND)),
        "la.spmv_plustimes_ms": median_ms(lambda: spmv(
            g, np.full(g.n, 1.0 / max(1, g.n)), PLUS_TIMES)),
    }


def analysis_probes(g: Csr) -> Dict[str, float]:
    def compile_cold():
        reset_report_cache()
        plan_for("bfs", cold_copy(g))

    return {
        "analysis.plan_compile_ms": median_ms(compile_cold),
        "analysis.plan_cached_us": mean_us(lambda: plan_for("bfs", g), 1000),
    }


def serve_probes(g: Csr, seed: int) -> Dict[str, float]:
    sources = [int(s) for s in np.flatnonzero(g.out_degrees > 0)[:LANES]]
    batch = Batch("bfs", [BatchedQuery("bfs", {"src": s}) for s in sources])
    pending = [(i, {"src": s}) for i, s in enumerate(sources * 8)]
    batch_ms = median_ms(lambda: execute_batch(g, batch))
    solo_ms = median_ms(lambda: [
        bfs(g, s, idempotent=False, direction="push") for s in sources])

    cache = ResultCache(1 << 30)
    payload = object()
    keys = iter([("bfs", ("src", i)) for i in range(1000)] * 2)
    put_us = mean_us(lambda: cache.put("g", 0, next(keys), payload, 64), 1000)
    get_us = mean_us(lambda: cache.get("g", 0, next(keys)), 1000)

    return {
        "serve.build_workload_ms": median_ms(lambda: build_workload(
            g, WorkloadSpec(requests=1000, seed=seed))),
        "serve.plan_batches_us": mean_us(
            lambda: plan_batches("bfs", pending), 200),
        "serve.execute_batch_ms": batch_ms,
        "serve.solo8_ms": solo_ms,
        "serve.lane_amortisation": solo_ms / batch_ms,
        "serve.cache_get_us": get_us,
        "serve.cache_put_us": put_us,
    }


def dynamic_probes(g: Csr, src: int, seed: int) -> Dict[str, float]:
    batch = random_mutation_batch(g, seed, frac=0.005)
    old_bfs = bfs(g, src, idempotent=False, direction="push")
    old_sssp = sssp(g, src, use_priority_queue=False)
    old_rank = pagerank(g).rank

    def applied() -> DeltaCsr:
        delta = DeltaCsr(g)
        delta.apply(batch)
        return delta

    def timed_on_fresh(step: Callable[[DeltaCsr], object]) -> float:
        samples = []
        for _ in range(REPS):
            delta = applied()
            samples.append(seconds(lambda: step(delta)))
        return statistics.median(samples) * 1e3

    delta = applied()
    snapshot = delta.snapshot()

    def recompute():
        bfs(snapshot, src, idempotent=False, direction="push")
        sssp(snapshot, src, use_priority_queue=False)
        pagerank(snapshot)

    return {
        "dynamic.apply_ms": median_ms(applied),
        "dynamic.compact_ms": timed_on_fresh(lambda d: d.compact()),
        "dynamic.delta_bfs_ms": median_ms(lambda: delta_bfs(
            delta, src, old_bfs.labels, old_bfs.preds, batch)),
        "dynamic.delta_sssp_ms": median_ms(lambda: delta_sssp(
            delta, src, old_sssp.labels, old_sssp.preds, batch)),
        "dynamic.incremental_pagerank_ms": median_ms(
            lambda: incremental_pagerank(g, delta, old_rank, batch)),
        "dynamic.recompute_ms": median_ms(recompute),
    }


def cli_probes(src_dir: str) -> Dict[str, float]:
    """Cold ``import repro`` in a fresh interpreter, timed by the child."""
    code = ("import time; t = time.perf_counter(); import repro; "
            "print((time.perf_counter() - t) * 1e3)")
    env = dict(os.environ, PYTHONPATH=src_dir)
    samples = []
    for _ in range(REPS):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=60)
        samples.append(float(done.stdout.strip()))
    return {"cli.import_ms": statistics.median(samples)}


def all_probes(generate: Callable[[], Csr], g: Csr, src: int, seed: int,
               src_dir: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    out.update(graph_probes(generate, g, seed))
    out.update(core_probes(g, src))
    out.update(la_probes(g))
    out.update(analysis_probes(g))
    out.update(serve_probes(g, seed))
    out.update(dynamic_probes(g, src, seed))
    out.update(cli_probes(src_dir))
    return out
