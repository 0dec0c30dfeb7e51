"""One workload, measured in this process: set-up, checks, the timed
section, the traced pass and the probes.  ``run.py`` imports this module
under a timer (the import is part of ``setup_s``) and calls :func:`measure`.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace

import check
import hostclock
import probes
import trace
import workloads as W
from metrics import (CATALOGUE, END_TO_END, PER_LAYER, exact, geomean,
                     nearest_rank, quartiles)
from repro.core.engine import engine
from repro.simt.counters import Counters

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3        # set-ups per run; setup_s is their median


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def seconds_of(fn):
    """``(normalised host seconds, result)`` of one call."""
    seconds, _raw, result = hostclock.timed(fn)
    return seconds, result


class Run:
    """What one workload run accumulates."""

    def __init__(self, args, import_s):
        self.args = args
        self.import_s = import_s
        self.failures = []      # one line per failed query or check
        self.attempted = 0
        self.metrics = {}       # catalogue names -> value
        self.extra = {}         # ledger-only host-clock values
        self.counts = {}        # ledger-only sim and count values (exact)
        self.tables = []        # preformatted text blocks

    def fail(self, problems):
        self.failures.extend(problems)

    def timed_rounds(self, w, one_round):
        """The timed section: ``w.rounds`` rounds (one under --quick), the
        same on every commit, ``gc`` off inside a round and collected
        between.  ``--seconds`` only caps it: once it is up no further
        round starts, and the run says how many it cut."""
        rounds = 1 if self.args.quick else w.rounds
        start, done = time.perf_counter(), 0
        while done < rounds:
            if done and time.perf_counter() - start >= self.args.seconds:
                print(f"   CAPPED {w.name}: {done} of {rounds} rounds fit "
                      f"in --seconds {self.args.seconds:g}", file=sys.stderr)
                break
            gc.collect()
            gc.disable()
            try:
                one_round()
            finally:
                gc.enable()
            done += 1
        self.extra["rounds"] = done

    def over_rounds(self, per_round, per_round_raw):
        """Every host metric is computed per round, on both clocks.  What
        is reported is the median round on the normalised clock, with the
        quartiles over the rounds; the best round on the raw clock goes
        beside it (on the raw clock noise only adds time, so the best round
        is the one to read; a normalised value is a quotient of two noisy
        timings, and its minimum picks the rounds the kernel ran slow in)."""
        for name in per_round[0]:
            q1, med, q3 = quartiles([r[name] for r in per_round])
            (self.metrics if name in CATALOGUE else self.extra)[name] = med
            self.extra[f"{name}.rounds"] = {"q1": q1, "q3": q3,
                                            "n": len(per_round)}
        for name in per_round_raw[0]:
            values = [r[name] for r in per_round_raw]
            self.extra[f"{name}.raw_best_round"] = \
                max(values) if name == "queries_per_s" else min(values)

    def setup_metric(self, reps, once_s=0.0):
        """``setup_s``: import, the median of the set-up repetitions, and
        whatever set-up work ran once."""
        self.metrics["setup_s"] = \
            self.import_s + statistics.median(reps) + once_s
        self.extra["setup_s.import_s"] = self.import_s
        self.extra["setup_s.reps"] = len(reps)


# -- batch ------------------------------------------------------------------------


def batch_setup(w, run, reps):
    """Build the inputs and run the warm-up pass, ``reps`` times over."""
    seconds, inputs, warm = [], None, None

    def once():
        built = w.build(run.args.seed, run.args.quick)
        return built, W.run_pass(built.queries)

    for _ in range(reps):
        took, (inputs, warm) = seconds_of(once)
        seconds.append(took)
    reference = [None if s.error else check_crc(s) for s in warm]
    return seconds, inputs, warm, reference


def check_crc(sample):
    return check.crc_of(sample.result.arrays)


def batch_verify(run, inputs, samples, reference, what, keep=False):
    """Every repetition's outputs must be the first pass's, bit for bit;
    once checked they are dropped, so held results do not pad peak RSS."""
    run.attempted += len(samples)
    for q, s, want in zip(inputs.queries, samples, reference):
        if s.error:
            run.fail([f"{q.cell} ({what}): {s.error}"])
        elif want is not None and check_crc(s) != want:
            run.fail([f"{q.cell} ({what}): output differs from the first run"])
        if not keep:
            s.result = None
    return samples


def batch_certify(run, inputs, warm):
    """The first query of every cell against the oracles; any other
    warm-up query only has to have run."""
    run.attempted += len(warm)
    run.fail(W.certify_first_queries(inputs, warm))
    for q, s in zip(inputs.queries, warm):
        if s.error and not any(f.startswith(q.cell) for f in run.failures):
            run.fail([f"{q.cell} (warm-up): {s.error}"])


def batch_sim(run, inputs, reference):
    """The machine-attached pass: simulated time and counters."""
    samples = W.run_pass(inputs.queries, machine=True)
    batch_verify(run, inputs, samples, reference, "machine-attached",
                 keep=True)
    counters, latencies = Counters(), []
    for s in samples:
        if not s.error:
            counters.merge(s.result.machine.counters)
            latencies.append(s.result.elapsed_ms)
    return sum(s.host_s for s in samples), counters, latencies


def cell_samples(queries, passes, clock="host_s"):
    """Host ms of every sample of ``passes``, by cell, on the normalised
    clock (``host_s``) or the raw one (``raw_s``)."""
    by_cell = {}
    for samples in passes:
        for q, s in zip(queries, samples):
            by_cell.setdefault(q.cell, []).append(getattr(s, clock) * 1e3)
    return by_cell


def batch_round_metrics(w, queries, passes, clock):
    """The host metrics of one round, from its per-query samples: a cell's
    time is the median over its samples, and every cell weighs the same in
    a geomean, so a 20 ms cell cannot hide behind a 1 s one."""
    by_cell = cell_samples(queries, passes, clock)
    cell_ms = {cell: statistics.median(v) for cell, v in by_cell.items()}
    samples = [ms for v in by_cell.values() for ms in v]
    out = {"queries_per_s": len(samples) / (sum(samples) / 1e3),
           "query_ms_p50": statistics.median(samples),
           "solve_geomean_ms": geomean(list(cell_ms.values()))}
    if len(w.engines) > 1:
        for eng in w.engines:
            out[f"{eng}_geomean_ms"] = geomean(
                [ms for cell, ms in cell_ms.items()
                 if cell.startswith(f"{eng}.")])
    return out


def cell_table(run, by_cell):
    """Per cell: median over every sample of the run.  Host tails are
    printed with their counts but never gate anything: p95 moved
    108 -> 138 ms across three identical road runs."""
    lines = [f"  {'cell':<34}{'n':>5}{'median ms':>12}{'p95 ms':>12}"]
    for cell, values in by_cell.items():
        run.extra[f"cell.{cell}_ms"] = statistics.median(values)
        lines.append(f"  {cell:<34}{len(values):>5}"
                     f"{statistics.median(values):>12.3f}"
                     f"{nearest_rank(values, 0.95):>12.3f}")
    run.tables.append("\n".join(lines))


def run_batch_untraced(w, run):
    setup, inputs, warm, reference = batch_setup(
        w, run, 1 if run.args.quick else SETUP_REPS)
    run.setup_metric(setup)

    _, counters, latencies = batch_sim(run, inputs, reference)
    run.metrics["sim_ms"] = sum(latencies)
    run.metrics["sim_p99_ms"] = nearest_rank(latencies, 0.99)
    for name in ("cycles", "kernel_launches", "edges_visited"):
        run.counts[f"simt.{name}"] = getattr(counters, name)

    rounds = []

    def one_round():
        rounds.append([
            batch_verify(run, inputs, W.run_pass(inputs.queries), reference,
                         "timed")
            for _ in range(1 if run.args.quick else w.passes)])

    run.timed_rounds(w, one_round)
    run.over_rounds(*([batch_round_metrics(w, inputs.queries, passes, clock)
                       for passes in rounds] for clock in ("host_s", "raw_s")))
    run.extra["samples"] = sum(len(p) for passes in rounds for p in passes)
    cell_table(run, cell_samples(inputs.queries,
                                 [p for passes in rounds for p in passes]))
    # before the oracles below allocate: the program's peak, not scipy's
    run.metrics["peak_rss_mb"] = peak_rss_mb()
    batch_certify(run, inputs, warm)


def run_batch_traced(w, run):
    _, inputs, warm, reference = batch_setup(w, run, 1)
    untraced = [batch_verify(run, inputs, W.run_pass(inputs.queries),
                             reference, "untraced")
                for _ in range(1 if run.args.quick else 3)]
    pass_s = statistics.median(sum(s.host_s for s in samples)
                               for samples in untraced)
    fallbacks = sum(1 for s in untraced[-1]
                    if s.error and s.error.startswith("fell back"))
    sim_host_s, counters, latencies = batch_sim(run, inputs, reference)

    tracer = trace.Tracer()
    tracer.install()
    try:
        samples = W.run_pass(inputs.queries, tracer=tracer)
    finally:
        tracer.uninstall()
    batch_verify(run, inputs, samples, reference, "traced")
    traced_s = sum(s.host_s for s in samples)
    speed = traced_s / sum(s.raw_s for s in samples)

    # the oracle engine on the default-engine queries, beside the pooled
    # cells of the untraced passes of this same process
    default = [q for q in inputs.queries if q.engine in (None, "pooled")]
    with engine("unpooled"):  # a query's own engine would override this one
        unpooled = W.run_pass([replace(q, engine=None) for q in default])
    run.attempted += len(default)
    run.fail([f"{q.cell} (unpooled): {s.error}"
              for q, s in zip(default, unpooled) if s.error])
    for cell, values in cell_samples(inputs.queries, untraced).items():
        run.extra[f"cell.{cell}_ms"] = statistics.median(values)
    for cell, values in cell_samples(default, [unpooled]).items():
        run.extra[f"cell.{cell.replace('pooled', 'unpooled', 1)}_ms"] = \
            statistics.median(values)

    layer_metrics(run, tracer, speed=speed, pass_s=pass_s, traced_s=traced_s,
                  queries=len(inputs.queries), counters=counters,
                  latencies=latencies, sim_host_s=sim_host_s,
                  fallbacks=fallbacks)
    run.metrics.update(probes.all_probes(
        inputs.regenerate, inputs.first, inputs.source, run.args.seed, SRC))
    batch_certify(run, inputs, warm)
    finish_trace(w, run, tracer)


# -- serve ------------------------------------------------------------------------


def serve_setup(w, run, reps):
    """Build the graph and replay a short warm-up stream, ``reps`` times;
    then, once, size the cache: replay the whole stream into a cache that
    never evicts and keep ``w.cache_share`` of the bytes it inserted.

    Returns the repetitions' seconds, the sizing replay's, and the inputs.
    """
    seconds, inputs = [], None

    def once():
        built = w.build(run.args.seed, run.args.quick)
        w.replay(built, w.workload_spec(built, w.warmup_requests))
        return built

    for _ in range(reps):
        took, inputs = seconds_of(once)
        seconds.append(took)
    if w.cache_share is None:
        return seconds, 0.0, inputs
    unbounded = w.replay(inputs, w.workload_spec(inputs, inputs.requests),
                         cache_bytes=W.UNBOUNDED_CACHE_BYTES)
    if unbounded.report.cache["evictions"]:
        run.fail([f"{w.name}: the unbounded sizing replay evicted"])
    inserted = unbounded.service.cache.bytes_used
    inputs.cache_bytes = int(inserted * w.cache_share)
    run.counts["serve.unbounded_inserted_bytes"] = inserted
    run.counts["serve.cache_bytes"] = inputs.cache_bytes
    return seconds, unbounded.host_s, inputs


def sim_view(replay):
    """Every ``sim``/count value of one replay (also what must repeat)."""
    report = replay.report
    latencies = [c.latency_ms for c in replay.completions if c.served]
    on_time = report.served - report.deadline_misses
    return {
        "sim_ms": sum(m.elapsed_ms() for m in replay.machines),
        "sim_p50_ms": nearest_rank(latencies, 0.50),
        "sim_p99_ms": nearest_rank(latencies, 0.99),
        "sim_goodput_rps": on_time / report.makespan_ms * 1e3,
        "failed_share": W.failed_requests(report) / report.requests,
        "hit_rate": report.hit_rate,
        "evictions": report.cache["evictions"],
        "executed_batches": report.executed_batches,
    }


def certify_serve_shape(w, run, view):
    """What makes the workload measure what it is there for: a sized
    cache evicts, and the median request is a miss (its latency is not 0)."""
    if w.cache_share is not None and view["evictions"] == 0:
        run.fail([f"{w.name}: the sized cache "
                  f"({run.counts['serve.cache_bytes']} B) never evicted"])
    if not view["sim_p50_ms"] > 0:
        run.fail([f"{w.name}: sim_p50_ms is {view['sim_p50_ms']}: "
                  f"the median request is a cache hit"])


def run_serve_untraced(w, run):
    setup, sizing_s, inputs = serve_setup(
        w, run, 1 if run.args.quick else SETUP_REPS)
    run.setup_metric(setup, sizing_s)
    run.extra["setup_s.sizing_s"] = sizing_s
    spec = w.workload_spec(inputs, inputs.requests)

    replays = []
    run.timed_rounds(w, lambda: replays.append(w.replay(inputs, spec)))
    run.metrics["peak_rss_mb"] = peak_rss_mb()
    first = replays[0]
    view = sim_view(first)
    for later in replays[1:]:
        if sim_view(later) != view:
            run.fail([f"{w.name}: two replays of one stream disagree"])
    run.attempted += spec.requests
    run.fail(W.certify_serve(w, first, run.args.seed))
    certify_serve_shape(w, run, view)
    lost = W.failed_requests(first.report)
    if lost:
        run.fail([f"{w.name}: request shed, dropped or failed"] * lost)

    # a round is one replay, and a serve workload is one cell: the replay
    run.over_rounds(
        [{"queries_per_s": spec.requests / r.host_s,
          "query_ms_p50": statistics.median(r.segment_ms),
          "solve_geomean_ms": r.host_s * 1e3 / spec.requests}
         for r in replays],
        [{"queries_per_s": spec.requests / r.raw_s,
          "solve_geomean_ms": r.raw_s * 1e3 / spec.requests}
         for r in replays])
    run.extra["samples"] = len(replays) * spec.requests
    run.metrics["sim_ms"] = view["sim_ms"]
    run.metrics["sim_p99_ms"] = view["sim_p99_ms"]
    for name in ("sim_p50_ms", "sim_goodput_rps", "failed_share"):
        run.counts[name] = view[name]
    for name in ("hit_rate", "evictions", "executed_batches"):
        run.counts[f"serve.{name}"] = view[name]
    run.counts.update({f"serve.{k}": v for k, v in first.report.shard.items()
                       if k.startswith(("hedge", "failover", "killed"))})
    run.counts.update({f"dynamic.{k}": v
                       for k, v in first.report.dynamic.items()})


def run_ladder(w, run):
    """The open-loop rate ladder and the closed-loop capacity row: sim
    clock only, one replay each (they are deterministic)."""
    _, _, inputs = serve_setup(w, run, 1)
    lines = [f"  {'rate rps':>9}{'p99 ms':>10}{'failed':>9}{'goodput':>10}  rung"]
    passed = []
    for rate in W.LADDER_RPS:
        view = sim_view(w.replay(inputs, w.workload_spec(
            inputs, inputs.requests, arrival_rate_rps=float(rate))))
        ok = (view["sim_p99_ms"] <= W.LADDER_P99_MS
              and view["failed_share"] <= W.LADDER_FAILED_SHARE)
        passed.append(ok)
        run.counts[f"serve.rung.{rate}.p99_ms"] = view["sim_p99_ms"]
        run.counts[f"serve.rung.{rate}.failed_share"] = view["failed_share"]
        lines.append(f"  {rate:>9}{view['sim_p99_ms']:>10.3f}"
                     f"{view['failed_share']:>9.3f}"
                     f"{view['sim_goodput_rps']:>10.1f}  "
                     f"{'pass' if ok else 'FAIL'}")
    run.tables.append("\n".join(lines))
    run.attempted += len(passed)
    run.counts["sim_max_rate_rps"] = max(
        [rate for rate, ok in zip(W.LADDER_RPS, passed) if ok], default=0)
    if all(passed) or not any(passed):
        run.fail([f"{w.name}: the ladder is not capacity-bound: "
                  f"{sum(passed)} of {len(passed)} rungs pass"])
    closed = w.replay(inputs, w.workload_spec(
        inputs, inputs.requests, mode="closed", clients=32, think_ms=0.0))
    run.counts["serve.closed_capacity_rps"] = closed.report.throughput_rps


def run_serve_traced(w, run):
    _, _, inputs = serve_setup(w, run, 1)
    spec = w.workload_spec(inputs, inputs.requests)
    untraced = w.replay(inputs, spec)
    run.attempted += spec.requests

    tracer = trace.Tracer()
    tracer.install()
    try:
        root = tracer.begin("pass", "bench")
        traced = w.replay(inputs, spec)
        tracer.end(root)
    finally:
        tracer.uninstall()
    if sim_view(traced) != sim_view(untraced):
        run.fail([f"{w.name}: tracing changed a sim or count value"])
    certify_serve_shape(w, run, sim_view(untraced))

    latencies = [c.latency_ms for c in untraced.completions if c.served]
    layer_metrics(run, tracer, speed=traced.host_s / traced.raw_s,
                  pass_s=untraced.host_s,
                  traced_s=traced.host_s, queries=spec.requests,
                  counters=untraced.counters(), latencies=latencies,
                  sim_host_s=untraced.host_s,
                  fallbacks=len(untraced.service.engine_fallbacks),
                  replay=untraced)
    run.metrics.update(probes.all_probes(
        inputs.regenerate, inputs.first, inputs.source, run.args.seed, SRC))
    finish_trace(w, run, tracer)


# -- per-layer metrics from one traced pass -------------------------------------------


def layer_metrics(run, tracer, *, speed, pass_s, traced_s, queries, counters,
                  latencies, sim_host_s, fallbacks, replay=None):
    """``speed`` scales the spans' raw milliseconds to the normalised host
    clock (normalised / raw seconds of the traced pass); ``pass_s``,
    ``traced_s`` and ``sim_host_s`` already are normalised."""
    m = run.metrics
    m.update({metric.name: 0.0 for metric in PER_LAYER})
    table = trace.layer_table(tracer.spans)
    totals = trace.span_totals(tracer.spans)
    for row in (*table.values(), *totals.values()):
        row["inclusive_ms"] *= speed
        row["self_ms"] *= speed
    for layer, row in table.items():
        if layer != "bench":
            m[f"{layer}.self_ms"] = row["self_ms"]
            m[f"{layer}.calls"] = row["calls"]
    for name, row in totals.items():
        if name.startswith("primitives."):
            m[f"{name}_ms"] = row["inclusive_ms"]
    m["trace.spans"] = len(tracer.spans)
    m["trace.overhead_ratio"] = traced_s / pass_s
    m["core.supersteps"] = tracer.supersteps
    m["core.us_per_superstep"] = pass_s * 1e6 / max(1, tracer.supersteps)
    m["core.ns_per_edge"] = pass_s * 1e9 / max(1, counters.edges_visited)
    m["core.fallbacks"] = fallbacks

    groups = {"advance": 0.0, "filter": 0.0, "other": 0.0}
    for kernel, (_count, cycles) in counters.kernel_breakdown().items():
        head = kernel.split("[")[0].split("_")[0]
        groups[head if head in groups else "other"] += cycles
    for name in ("cycles", "kernel_launches", "edges_visited",
                 "vertices_processed", "atomics_issued", "atomic_conflicts",
                 "compact_elements", "frontier_peak"):
        m[f"simt.{name}"] = getattr(counters, name)
    m["simt.conflict_ratio"] = (counters.atomic_conflicts
                                / max(1, counters.atomics_issued))
    for group, cycles in groups.items():
        m[f"simt.{group}_cycles"] = cycles
    m["simt.latency_p50_ms"] = nearest_rank(latencies, 0.50)
    m["simt.host_ns_per_cycle"] = sim_host_s * 1e9 / max(1.0, counters.cycles)
    m["serve.host_ms_per_request"] = pass_s * 1e3 / queries

    traced_ms = table["bench"]["inclusive_ms"]  # the root span: build + pass
    run.tables.append(trace.format_layer_table(table, traced_ms))
    run.extra["trace.layer_self_sum_share"] = sum(
        row["self_ms"] for layer, row in table.items()
        if layer != "bench") / traced_ms
    if replay is None:
        return
    report = replay.report
    m["serve.replay_self_ms"] = totals["serve.replay"]["self_ms"]
    m["serve.execute_share"] = \
        (totals["serve.execute_batch"]["inclusive_ms"]
         / totals["serve.replay"]["inclusive_ms"])
    lanes = [n for _prim, n in replay.service.executed_batches]
    m["serve.mean_lanes"] = statistics.fmean(lanes) if lanes else 0.0
    m["serve.hit_rate"] = report.hit_rate
    m["serve.evictions"] = report.cache["evictions"]
    m["serve.sim_goodput_rps"] = \
        (report.served - report.deadline_misses) / report.makespan_ms * 1e3
    for name in ("executed_batches", "shed", "deadline_drops",
                 "deadline_misses", "stale_hits"):
        m[f"serve.{name}"] = getattr(report, name)
    for name in ("failovers", "hedges_launched", "hedges_won",
                 "hedge_waste_ms", "breaker_opens", "killed_replicas"):
        m[f"serve.{name}"] = report.shard.get(name, 0)
    for name in ("repairs_incremental", "repair_fallbacks", "cache_carried",
                 "compactions"):
        m[f"dynamic.{name}"] = report.dynamic.get(name, 0)
    m["dynamic.sim_repair_ms"] = report.dynamic.get("repair_ms", 0.0)


def finish_trace(w, run, tracer):
    problem = trace.check_spans(tracer.spans)
    if problem:
        run.fail([f"{w.name}: trace: {problem}"])
    for _layer, _name, module, path in trace.TARGETS:
        if hasattr(trace.resolve(module, path)[2], "__wrapped__"):
            run.fail([f"{w.name}: {module}.{path} is still wrapped"])
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{w.name}.json"))


# -- reporting --------------------------------------------------------------------------


def measure(args, import_s: float) -> int:
    """Run ``args.workload``; print the report and the JSON line; return
    the exit code (1 when anything failed a check)."""
    run = Run(args, import_s)
    w = W.BY_NAME.get(args.workload)
    if w is None:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(W.WORKLOAD_NAMES)}")
    if args.ladder:
        if w.kind != "serve":
            sys.exit(f"run.py: --ladder needs a serve workload, not {w.name}")
        run_ladder(w, run)
        section, wanted = "ladder", ()
    else:
        runner = {("batch", 0): run_batch_untraced,
                  ("batch", 1): run_batch_traced,
                  ("serve", 0): run_serve_untraced,
                  ("serve", 1): run_serve_traced}
        runner[(w.kind, args.trace)](w, run)
        section = f"trace {args.trace}"
        wanted = PER_LAYER if args.trace else END_TO_END

    missing = [m.name for m in wanted if m.name not in run.metrics]
    if missing:
        sys.exit(f"run.py: {w.name} did not measure {missing}")
    metrics = {m.name: float(run.metrics[m.name]) for m in wanted}
    exact_values = {**exact(metrics), **run.counts}
    failed = len(run.failures)

    run.extra["host.slowdown"] = statistics.median(hostclock.OBSERVED)
    size = "quick" if args.quick else "full"
    print(f"== {w.name}  seed {args.seed}  {size}  {section}")
    print(f"   why: {w.why}")
    for table in run.tables:
        print(table)
    for name, value in metrics.items():
        meta = CATALOGUE[name]
        rounds = run.extra.get(f"{name}.rounds")
        note = ("" if not rounds else
                f"   median of {rounds['n']} rounds "
                f"[{rounds['q1']:.6g}, {rounds['q3']:.6g}]")
        raw = run.extra.get(f"{name}.raw_best_round")
        if raw is not None:
            note += f"; raw clock, best round {raw:.6g}"
        print(f"   {name:<34}{value:>16.6g} {meta.unit:<7}{meta.clock:<6}{note}")
    for name, value in sorted({**run.extra, **run.counts}.items()):
        if isinstance(value, (int, float)):
            clock = "exact" if name in run.counts else "host"
            print(f"   + {name:<32}{value:>16.6g} {clock}")
    print(f"   failed_share {failed}/{max(1, run.attempted)}"
          f"   digest {check.digest(exact_values)}")
    for line in run.failures:
        print(f"   FAILED {line}", file=sys.stderr)

    record = {
        "workload": w.name, "seed": args.seed, "size": size,
        "section": section, "correct": failed == 0,
        "attempted": max(1, run.attempted), "failed": failed,
        "failures": run.failures, "metrics": metrics, "extra": run.extra,
        "counts": run.counts, "exact": exact_values,
        "digest": check.digest(exact_values),
    }
    if args.record:
        os.makedirs(os.path.dirname(os.path.abspath(args.record)),
                    exist_ok=True)
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": CATALOGUE[name].unit}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1
