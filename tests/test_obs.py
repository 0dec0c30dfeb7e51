"""Observability layer: metrics registry, spans, exporters, wiring.

The three contracts this file pins (DESIGN §11):

1. **Determinism** — same-seed runs produce byte-identical metric dumps
   and byte-identical Chrome-trace files.
2. **1:1 kernel spans** — the tracer records exactly one ``kernel`` span
   per simulated kernel launch (``counters.kernel_launches``).
3. **Zero simulated overhead** — total simulated cycles are identical
   with the observer installed, absent, or trace-disabled.
"""

import json

import numpy as np
import pytest

from repro.obs import (CAT_KERNEL, CAT_OPERATOR, CAT_PRIMITIVE, CAT_RECOVERY,
                       CAT_SUPERSTEP, Counter, Gauge, Histogram,
                       MetricsRegistry, NOOP_SPAN, Observer, chrome_trace,
                       current_observer, install, is_enabled, metrics_dump,
                       observe, span, validate_chrome_trace,
                       write_chrome_trace, write_metrics)
from repro.simt import Machine


# -- metrics registry --------------------------------------------------------


def test_counter_monotone():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_goes_anywhere():
    g = Gauge()
    g.set(5)
    g.dec(7)
    assert g.value == -2.0


def test_histogram_quantiles_deterministic():
    h = Histogram(bounds=(1.0, 2.0, 4.0, 8.0))
    for v in (0.5, 1.5, 1.5, 3.0, 5.0, 100.0):
        h.observe(v)
    assert h.count == 6
    assert h.sum == pytest.approx(111.5)
    # overflow quantile clamps to the largest finite bound
    assert h.quantile(1.0) == 8.0
    assert h.quantile(0.0) == 0.0
    p = h.percentiles()
    assert set(p) == {"p50", "p95", "p99"}
    assert p["p50"] <= p["p95"] <= p["p99"]


def test_histogram_empty_and_bad_bounds():
    assert Histogram().quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram().quantile(1.5)


def test_registry_get_or_create_and_type_conflict():
    r = MetricsRegistry()
    assert r.counter("x_total", a=1) is r.counter("x_total", a=1)
    assert r.counter("x_total", a=2) is not r.counter("x_total", a=1)
    with pytest.raises(TypeError):
        r.gauge("x_total")


def test_registry_dump_byte_identical_across_insertion_orders():
    def build(order):
        r = MetricsRegistry()
        for name, labels in order:
            r.counter(name, **labels).inc()
        r.histogram("h_ms").observe(3.0)
        return r

    seq = [("a_total", {"k": "x"}), ("a_total", {"k": "y"}),
           ("b_total", {})]
    d1 = metrics_dump(build(seq))
    d2 = metrics_dump(build(list(reversed(seq))))
    assert d1 == d2
    assert "# TYPE a_total counter" in d1
    assert 'a_total{k="x"} 1' in d1
    assert "h_ms_bucket" in d1 and "h_ms_count 1" in d1


# -- spans: disabled path ----------------------------------------------------


def test_disabled_path_returns_shared_noop_span():
    assert current_observer() is None
    assert not is_enabled()
    sp = span("advance", CAT_OPERATOR, frontier=10)
    assert sp is NOOP_SPAN
    assert not sp.enabled
    with sp:
        sp.set(anything=1)  # all no-ops


def test_observe_installs_and_restores():
    assert current_observer() is None
    with observe() as ob:
        assert current_observer() is ob
        inner = Observer()
        prev = install(inner)
        assert prev is ob
        install(prev)
    assert current_observer() is None


# -- spans: kernel 1:1, context inheritance ---------------------------------


def _run_bfs(machine, kron_graph):
    from repro.primitives import bfs

    return bfs(kron_graph, 0, machine=machine)


def test_kernel_spans_match_launch_counters(kron_graph):
    with observe() as ob:
        m = Machine()
        _run_bfs(m, kron_graph)
    kspans = ob.tracer.kernel_spans()
    assert len(kspans) == m.counters.kernel_launches
    launches = ob.metrics.samples("repro_kernel_launches_total")
    assert sum(c.value for _, c in launches) == m.counters.kernel_launches
    cycles = ob.metrics.samples("repro_kernel_cycles_total")
    assert sum(c.value for _, c in cycles) == pytest.approx(
        sum(k.cycles for k in m.counters.kernels))


def test_kernel_spans_inherit_operator_and_primitive_context(kron_graph):
    with observe() as ob:
        _run_bfs(Machine(), kron_graph)
    cats = {s.cat for s in ob.tracer.spans}
    assert {CAT_PRIMITIVE, CAT_SUPERSTEP, CAT_OPERATOR, CAT_KERNEL} <= cats
    prim = [s for s in ob.tracer.spans if s.cat == CAT_PRIMITIVE]
    assert [s.name for s in prim] == ["bfs"]
    assert prim[0].args["iterations"] >= 1
    for k in ob.tracer.kernel_spans():
        assert k.args["primitive"] == "bfs"
        assert "items" in k.args and "cycles" in k.args
    # operator spans carry frontier sizes and the lb strategy on advance
    adv = [s for s in ob.tracer.spans
           if s.cat == CAT_OPERATOR and s.name == "advance"]
    assert adv and all("lb" in s.args and "frontier" in s.args for s in adv)


def test_span_timestamps_are_simulated_cycles(kron_graph):
    with observe() as ob:
        m = Machine()
        _run_bfs(m, kron_graph)
    total = m.counters.cycles
    for s in ob.tracer.spans:
        assert 0 <= s.ts <= total
        assert s.ts + s.dur <= total + 1e-9


# -- the overhead contract ---------------------------------------------------


def test_simulated_cycles_identical_with_observer_on_off(kron_graph):
    m_off = Machine()
    r_off = _run_bfs(m_off, kron_graph)
    with observe():
        m_on = Machine()
        r_on = _run_bfs(m_on, kron_graph)
    with observe(Observer(trace=False)):
        m_nt = Machine()
        _run_bfs(m_nt, kron_graph)
    assert m_on.counters.cycles == m_off.counters.cycles
    assert m_nt.counters.cycles == m_off.counters.cycles
    assert m_on.counters.kernel_launches == m_off.counters.kernel_launches
    assert np.array_equal(r_on.labels, r_off.labels)


# -- exporters ---------------------------------------------------------------


def _trace_doc(kron_graph):
    with observe() as ob:
        _run_bfs(Machine(), kron_graph)
    return chrome_trace(ob), ob


def test_chrome_trace_is_valid_and_counts_kernels(kron_graph):
    doc, ob = _trace_doc(kron_graph)
    assert validate_chrome_trace(doc) == []
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == len(ob.tracer.spans)
    kernels = [e for e in xs if e["cat"] == CAT_KERNEL]
    assert len(kernels) == doc["otherData"]["kernel_spans"]
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert {"process_name", "thread_name"} <= names


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad = {"traceEvents": [
        {"name": "x", "cat": "k", "ph": "X", "ts": -1, "dur": "no",
         "pid": 0, "tid": 0},
        {"name": "i", "cat": "k", "ph": "i", "ts": 0, "pid": 0, "tid": 0},
        {"ph": "Z"}, 7]}
    problems = validate_chrome_trace(bad)
    assert any("bad dur" in p for p in problems)
    assert any("bad ts" in p for p in problems)
    assert any("instant missing scope" in p for p in problems)
    assert any("unknown phase" in p for p in problems)
    assert any("not an object" in p for p in problems)


def test_same_seed_exports_byte_identical(tmp_path, kron_graph):
    paths = []
    for run in (1, 2):
        with observe() as ob:
            _run_bfs(Machine(), kron_graph)
        tp = tmp_path / f"trace{run}.json"
        mp = tmp_path / f"metrics{run}.txt"
        write_chrome_trace(ob, str(tp))
        write_metrics(ob.metrics, str(mp))
        paths.append((tp.read_bytes(), mp.read_bytes()))
    assert paths[0] == paths[1]
    # and the file parses back to a valid document
    doc = json.loads(paths[0][0])
    assert validate_chrome_trace(doc) == []


def test_chrome_trace_requires_tracer():
    with pytest.raises(ValueError):
        chrome_trace(Observer(trace=False))


# -- recovery instants -------------------------------------------------------


def test_recovery_emits_instants_and_fault_counters(kron_graph):
    from repro.primitives import bfs
    from repro.resilience import FaultKind, FaultPlan

    plan = FaultPlan.random(7, [FaultKind.TRANSIENT_KERNEL], steps=2)
    with observe() as ob:
        bfs(kron_graph, 0, machine=Machine(), checkpoint_every=1,
            faults=plan)
    recov = [i for i in ob.tracer.instants if i.cat == CAT_RECOVERY]
    assert any(i.name == "recovery.fault" for i in recov)
    assert any(i.name in ("recovery.replay_in_place", "recovery.rollback")
               for i in recov)
    faults = ob.metrics.samples("repro_faults_total")
    assert sum(c.value for _, c in faults) >= 1


# -- serving histograms ------------------------------------------------------


def _serve_report(seed=11):
    from repro.graph import generators
    from repro.serve import WorkloadSpec, run_serving

    g = generators.kronecker(8, seed=3)
    return run_serving(g, WorkloadSpec(requests=60, seed=seed))


def test_serve_report_latency_histogram_populated():
    report = _serve_report()
    assert report.served > 0
    assert report.latency_histogram  # at least one primitive recorded
    for qs in report.latency_histogram.values():
        assert qs["p50"] <= qs["p95"] <= qs["p99"]
    assert 0.0 <= report.p50_ms <= report.p95_ms <= report.p99_ms
    d = report.as_dict()
    assert d["p95_ms"] == round(report.p95_ms, 6)
    assert d["latency_histogram"] == {
        p: {q: round(v, 6) for q, v in sorted(qs.items())}
        for p, qs in sorted(report.latency_histogram.items())}
    assert "latency p95" in report.format()


def test_scheduler_reports_into_installed_observer():
    with observe() as ob:
        _serve_report()
    outcomes = ob.metrics.samples("repro_serve_requests_total")
    assert sum(c.value for _, c in outcomes) > 0
    lat = ob.metrics.samples("repro_serve_latency_ms")
    assert lat and all(h.count > 0 for _, h in lat)
    serve_spans = [s for s in ob.tracer.spans if s.name == "serve.batch"]
    assert serve_spans
    assert all("primitive" in s.args and "lanes" in s.args
               for s in serve_spans)


def test_each_report_reads_only_its_own_replay():
    """Two replays under one observer: the second report's latency
    quantiles are its own, while the observer's registry holds both."""
    from repro.graph import generators
    from repro.serve import WorkloadSpec, run_serving

    g = generators.kronecker(9, seed=1)
    second = WorkloadSpec(requests=80, seed=2, arrival_rate_rps=6000.0)
    alone = run_serving(g, second)
    with observe() as ob:
        first = run_serving(g, WorkloadSpec(requests=60, seed=1))
        shared = run_serving(g, second)
    assert shared.as_dict() == alone.as_dict()
    lat = ob.metrics.samples("repro_serve_latency_ms")
    assert sum(h.count for _, h in lat) == first.served + shared.served


def test_serve_reports_byte_identical_across_same_seed_runs():
    a = json.dumps(_serve_report(seed=5).as_dict(), sort_keys=True)
    b = json.dumps(_serve_report(seed=5).as_dict(), sort_keys=True)
    assert a == b
