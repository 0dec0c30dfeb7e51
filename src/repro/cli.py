"""Command-line interface: ``python -m repro <command>``.

Mirrors the original Gunrock's test drivers (``bfs market graph.mtx``):

* ``info``      — Table 1-style structural statistics for a graph
* ``generate``  — build a synthetic graph and write it to a file
* ``run``       — run one primitive on a graph, print outputs + counters
* ``compare``   — run one primitive across all frameworks (a Table 2 row)
* ``datasets``  — list the built-in dataset twins
* ``lint``      — static BSP-contract linter over functor/problem sources
* ``analyze``   — static effect analysis + per-primitive fusion-safety
  verdicts over the recovered operator DAGs (``--json``, ``--dot``,
  ``--strict``)
* ``chaos``     — inject faults into a primitive and verify recovery
* ``serve``     — replay a query-serving workload (batching + cache +
  deadline scheduling), report throughput/latency/hit-rate

``run`` and ``compare`` accept ``--sanitize`` to execute every fused
kernel under the dynamic race detector (see ``repro.analysis``).
Unreadable or malformed graph files exit with status 2
(:class:`repro.graph.io.GraphIOError` names the file and line).

Graphs come from ``--dataset NAME`` (a built-in twin), ``--generate SPEC``
(e.g. ``kron:12``, ``road:100x80``, ``hub:20000``, ``powerlaw:10000``), or
a file path (`.mtx`, `.gr`, or an edge list).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from .graph import datasets, generators, io, properties
from .graph.build import with_random_weights
from .graph.csr import Csr
from .simt import Machine

PRIMITIVES = ("bfs", "sssp", "bc", "pagerank", "cc", "mst", "mis", "color",
              "triangles", "kcore", "labelprop")


def load_graph(args) -> Csr:
    """Resolve the graph source options shared by most subcommands."""
    if getattr(args, "dataset", None):
        g = datasets.load(args.dataset, scale=args.scale, seed=args.seed)
    elif getattr(args, "generate", None):
        g = _generate(args.generate, args.seed)
    elif getattr(args, "graph", None):
        g = _read_file(args.graph)
    else:
        raise SystemExit("provide --dataset, --generate, or a graph file")
    if getattr(args, "weighted", False) and g.edge_values is None:
        g = with_random_weights(g, low=1, high=64, seed=args.seed)
    return g


def _generate(spec: str, seed: int) -> Csr:
    kind, _, param = spec.partition(":")
    if kind == "kron":
        return generators.kronecker(int(param or 12), seed=seed)
    if kind == "road":
        w, _, h = (param or "64x64").partition("x")
        return generators.road_grid(int(w), int(h or w), seed=seed)
    if kind == "hub":
        return generators.hub_graph(int(param or 10000), seed=seed)
    if kind == "powerlaw":
        return generators.powerlaw_cluster(int(param or 10000), seed=seed)
    if kind == "random":
        n = int(param or 10000)
        return generators.uniform_random(n, 8 * n, seed=seed)
    raise SystemExit(f"unknown generator spec {spec!r} "
                     "(use kron:N, road:WxH, hub:N, powerlaw:N, random:N)")


def _read_file(path: str) -> Csr:
    if path.endswith(".mtx"):
        return io.read_matrix_market(path)
    if path.endswith(".gr"):
        return io.read_dimacs(path)
    if path.endswith(".npz"):
        return io.read_npz(path)
    return io.read_edgelist(path)


def _write_file(g: Csr, path: str) -> None:
    if path.endswith(".mtx"):
        io.write_matrix_market(g, path)
    elif path.endswith(".gr"):
        io.write_dimacs(g, path)
    elif path.endswith(".npz"):
        io.write_npz(g, path)
    else:
        io.write_edgelist(g, path)


def _add_obs_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="PATH",
                   help="write a Chrome-trace/Perfetto JSON of every span "
                        "(kernels, operators, super-steps) to PATH")
    p.add_argument("--metrics", metavar="PATH",
                   help="write a Prometheus-style text dump of the metrics "
                        "registry to PATH")


def _add_graph_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", nargs="?", help="graph file (.mtx/.gr/edge list)")
    p.add_argument("--dataset", choices=sorted(datasets.REGISTRY),
                   help="built-in dataset twin")
    p.add_argument("--generate", help="generator spec, e.g. kron:14")
    p.add_argument("--scale", type=float, default=datasets.DEFAULT_SCALE,
                   help="dataset twin scale (default 1/64)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--weighted", action="store_true",
                   help="attach random weights in [1, 64]")


def cmd_info(args) -> int:
    g = load_graph(args)
    s = properties.stats(g, seed=args.seed)
    print(f"{'vertices':<22}{s.n:,}")
    print(f"{'edges':<22}{s.m:,}")
    print(f"{'max degree':<22}{s.max_degree:,}")
    print(f"{'avg degree':<22}{s.avg_degree:.2f}")
    print(f"{'pseudo-diameter':<22}{s.pseudo_diameter}")
    print(f"{'frac degree < 4':<22}{s.frac_degree_lt_4:.2%}")
    print(f"{'frac degree < 128':<22}{s.frac_degree_lt_128:.2%}")
    print(f"{'components':<22}{s.n_components} "
          f"(largest {s.largest_component_frac:.1%})")
    return 0


def cmd_generate(args) -> int:
    g = load_graph(args)
    _write_file(g, args.output)
    print(f"wrote {g} to {args.output}")
    return 0


def cmd_lint(args) -> int:
    import os

    from .analysis import lint_paths

    paths = args.paths
    if not paths:
        paths = [os.path.dirname(os.path.abspath(__file__))]
    try:
        violations = lint_paths(paths)
    except FileNotFoundError as err:
        raise SystemExit(str(err))
    for v in violations:
        print(v.format())
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_analyze(args) -> int:
    import json
    import os

    from .analysis.fusion import analyze_paths
    from .analysis.report import render_dot, render_text, report_to_dict

    paths = args.paths
    if not paths:
        pkg = os.path.dirname(os.path.abspath(__file__))
        paths = [os.path.join(pkg, "primitives")]
    try:
        report = analyze_paths(paths)
    except FileNotFoundError as err:
        raise SystemExit(str(err))
    if getattr(args, "plan", None):
        return _print_plan(report, args.plan, as_json=args.json)
    if args.dot:
        print(render_dot(report), end="")
        return 0
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2, sort_keys=True))
    else:
        print(render_text(report), end="")
    status = 0
    if report.violations:
        print(f"{len(report.violations)} violation(s)", file=sys.stderr)
        status = 1
    if args.strict and report.stale:
        print(f"{len(report.stale)} stale suppression(s)", file=sys.stderr)
        status = 1
    return status


def _print_plan(report, primitive: str, *, as_json: bool) -> int:
    """Render the fused execution plan of one analyzed primitive."""
    import json

    from .analysis.plan import compile_plan

    prim = next((p for p in report.primitives if p.name == primitive), None)
    plan = compile_plan(prim, primitive)
    if as_json:
        print(json.dumps(plan.static_dict(), indent=2, sort_keys=True))
        return 0 if plan.fusable else 1
    verdict = "fusable" if plan.fusable else "blocked"
    print(f"fused plan: {primitive} [{verdict}]")
    for reason in plan.blocked:
        print(f"  blocked: {reason}")
    for stage in plan.stages:
        ats = f" atomics={','.join(stage.atomics)}" if stage.atomics else ""
        print(f"  stage {stage.name:<28} cond={stage.cond_mask:<11} "
              f"apply={stage.apply_mask:<11}{ats}")
        for fn in stage.functors:
            print(f"    functor {fn}")
    if plan.atomic_lowerings:
        print("  lowerings:")
        for op, how in sorted(plan.atomic_lowerings.items()):
            print(f"    atomic_{op} -> {how}")
    return 0 if plan.fusable else 1


def cmd_chaos(args) -> int:
    from .resilience import RetryPolicy, parse_kinds
    from .resilience.chaos import format_report, run_chaos

    if not (args.dataset or args.generate or args.graph):
        args.generate = "kron:10"  # a default topology for smoke runs
    g = load_graph(args)
    try:
        kinds = parse_kinds(args.faults)
    except ValueError as err:
        raise SystemExit(str(err))
    report = run_chaos(
        g, args.primitive, kinds, seed=args.seed, k=args.devices,
        src=args.src, checkpoint_every=args.checkpoint_every,
        per_kind=args.per_kind,
        retry=RetryPolicy(max_retries=args.max_retries))
    print(format_report(report))
    return 0 if report.ok else 1


def cmd_datasets(args) -> int:
    for name in datasets.TABLE_ORDER:
        spec = datasets.REGISTRY[name]
        print(f"{name:<10} {spec.description}")
        print(f"{'':<10} paper: |V|={spec.paper_vertices:,} "
              f"|E|={spec.paper_edges:,} maxdeg={spec.paper_max_degree:,} "
              f"diam={spec.paper_diameter}")
    return 0


def _run_primitive(name: str, g: Csr, src: int, machine: Machine):
    from . import primitives as P

    if name == "bfs":
        r = P.bfs(g, src, machine=machine)
        return r, f"reached {(r.labels >= 0).sum()}/{g.n}, depth {r.labels.max()}"
    if name == "sssp":
        gw = g if g.edge_values is not None else with_random_weights(g)
        r = P.sssp(gw, src, machine=machine)
        finite = np.isfinite(r.labels)
        return r, f"reached {int(finite.sum())}/{g.n}, " \
                  f"max distance {r.labels[finite].max():.0f}"
    if name == "bc":
        r = P.bc(g, src, machine=machine)
        return r, f"top vertex {int(np.argmax(r.bc_values))} " \
                  f"(score {r.bc_values.max():.1f})"
    if name == "pagerank":
        r = P.pagerank(g, machine=machine)
        top = np.argsort(-r.rank)[:5]
        return r, f"top vertices {top.tolist()}"
    if name == "cc":
        r = P.cc(g, machine=machine)
        return r, f"{r.num_components} components"
    if name == "mst":
        gw = g if g.edge_values is not None else with_random_weights(g)
        r = P.mst(gw, machine=machine)
        return r, f"forest weight {r.total_weight(gw):,.0f}"
    if name == "mis":
        r = P.mis(g, machine=machine)
        return r, f"independent set of {r.set_size}"
    if name == "color":
        r = P.color(g, machine=machine)
        return r, f"{r.num_colors} colors"
    if name == "triangles":
        r = P.triangle_count(g, machine=machine)
        return r, f"{r.total:,} triangles"
    if name == "kcore":
        r = P.kcore(g, machine=machine)
        return r, f"max core {r.max_core}"
    if name == "labelprop":
        r = P.label_propagation(g, machine=machine)
        return r, f"{r.num_communities} communities"
    raise SystemExit(f"unknown primitive {name!r}")


def _result_arrays(result) -> dict:
    """Checksummed summary of every ndarray on a primitive's result."""
    import zlib

    named = getattr(result, "arrays", None)
    if not isinstance(named, dict):
        named = {k: v for k, v in vars(result).items()
                 if isinstance(v, np.ndarray)}
    out = {}
    for name in sorted(named):
        value = named[name]
        if isinstance(value, np.ndarray):
            out[name] = {
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "crc32": zlib.crc32(np.ascontiguousarray(value).tobytes()),
            }
    return out


def _obs_context(args):
    """``observe()`` when ``--trace``/``--metrics`` asked for it, else a
    no-op context (the disabled path: spans stay NOOP_SPAN)."""
    from contextlib import nullcontext

    if getattr(args, "trace", None) or getattr(args, "metrics", None):
        from .obs import observe

        return observe()
    return nullcontext()


def _export_obs(args, observer, extra=None) -> None:
    """Write the requested trace/metrics files; notices go to stderr so
    ``--json`` stdout stays machine-parseable."""
    if observer is None:
        return
    from .obs import write_chrome_trace, write_metrics

    if getattr(args, "trace", None):
        write_chrome_trace(observer, args.trace, other_data=extra)
        print(f"trace: wrote {len(observer.tracer.spans)} spans to "
              f"{args.trace}", file=sys.stderr)
    if getattr(args, "metrics", None):
        write_metrics(observer.metrics, args.metrics)
        print(f"metrics: wrote {len(observer.metrics)} series to "
              f"{args.metrics}", file=sys.stderr)


def cmd_run(args) -> int:
    import json

    from .analysis import RaceError, sanitize
    from contextlib import nullcontext

    from .core.engine import clear_fallbacks, engine, fallback_log

    g = load_graph(args)
    src = args.src if args.src is not None else int(g.out_degrees.argmax())
    machine = Machine()
    ctx = sanitize(strict=True) if args.sanitize else nullcontext()
    # --engine overrides REPRO_ENGINE for this run; the
    # default (None) keeps whatever the environment selected.
    eng_ctx = engine(args.engine) if getattr(args, "engine", None) \
        else nullcontext()
    clear_fallbacks()
    profiler = None
    if getattr(args, "profile", False):
        import cProfile

        profiler = cProfile.Profile()
    try:
        with _obs_context(args) as observer, ctx, eng_ctx:
            if profiler is not None:
                profiler.enable()
            try:
                result, summary = _run_primitive(args.primitive, g, src,
                                                 machine)
            finally:
                if profiler is not None:
                    profiler.disable()
    except RaceError as err:
        for report in err.reports:
            print(report.format(), file=sys.stderr)
        print(f"sanitize: {len(err.reports)} race report(s)", file=sys.stderr)
        return 1
    c = machine.counters
    _export_obs(args, observer, extra={"counters": c.as_dict()})
    fallbacks = fallback_log()
    eng_label = getattr(args, "engine", None) or "engine"
    for primitive, reason in fallbacks:
        print(f"{eng_label}: {primitive} fell back to pooled: {reason}",
              file=sys.stderr)
    if getattr(args, "json", False):
        elapsed = machine.elapsed_ms()
        payload = {
            "primitive": args.primitive,
            "graph": {"n": int(g.n), "m": int(g.m)},
            "src": int(src),
            "summary": summary,
            "elapsed_ms": round(elapsed, 6),
            "iterations": int(getattr(result, "iterations", 0)),
            "mteps": round(c.edges_visited / (elapsed * 1e3), 6)
            if elapsed > 0 else 0.0,
            "counters": c.as_dict(),
            "arrays": _result_arrays(result),
        }
        if getattr(args, "engine", None):
            payload["engine"] = args.engine
            payload["engine_fallbacks"] = [
                {"primitive": p, "reason": r} for p, r in fallbacks]
        if args.sanitize:
            payload["sanitize"] = "clean"
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{args.primitive} on {g}: {summary}")
    if args.sanitize:
        print("sanitize: no races detected")
    print(f"simulated {machine.elapsed_ms():.3f} ms | "
          f"{c.kernel_launches} kernels | {c.edges_visited:,} edges | "
          f"{c.atomics_issued:,} atomics | "
          f"{getattr(result, 'iterations', 0)} iterations")
    if profiler is not None:
        _print_profile(profiler)
    return 0


def _print_profile(profiler) -> None:
    """Top-20 functions by cumulative wall-clock time."""
    import pstats

    print("\n--- profile: top 20 by cumulative time ---")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(20)


def cmd_serve(args) -> int:
    import json

    from .resilience import RetryPolicy
    from .serve import WorkloadSpec, run_serving, run_sharded_serving

    if args.shards > 0:
        # run_sharded_serving takes neither: the tier's devices are
        # --shards x --replicas and its batches run on the default engine
        for flag, given in (("--engine", args.engine is not None),
                            ("--devices", args.devices != 1)):
            if given:
                args.usage_error(f"{flag} has no effect with --shards "
                                 "(single-pool serving only)")
    if not (args.dataset or args.generate or args.graph):
        args.generate = "kron:10"  # a default topology for smoke runs
    g = load_graph(args)
    spec = WorkloadSpec(
        requests=args.requests, seed=args.seed, mode=args.mode,
        arrival_rate_rps=args.rate, clients=args.clients,
        think_ms=args.think_ms, zipf_s=args.zipf,
        deadline_scale=args.deadline_scale,
        updates=args.updates, update_interval_ms=args.update_interval,
        update_kind=args.update_kind, delta_frac=args.delta_frac)
    with _obs_context(args) as observer:
        if args.shards > 0:
            report = run_sharded_serving(
                g, spec, shards=args.shards, replicas=args.replicas,
                max_queue=args.max_queue, batch_window_ms=args.window,
                max_lanes=args.max_lanes, cache_bytes=args.cache_mb << 20,
                retry=RetryPolicy(max_retries=args.max_retries),
                fault_rate=args.fault_rate, hedging=not args.no_hedge,
                kill_schedule=args.kill_schedule,
                incremental=args.incremental)
        else:
            report = run_serving(
                g, spec, devices=args.devices, max_queue=args.max_queue,
                batch_window_ms=args.window, max_lanes=args.max_lanes,
                cache_bytes=args.cache_mb << 20,
                retry=RetryPolicy(max_retries=args.max_retries),
                fault_rate=args.fault_rate,
                incremental=args.incremental, engine=args.engine)
    _export_obs(args, observer, extra={"report": report.as_dict()})
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        tier = f" across {args.shards}x{args.replicas} shard replicas" \
            if args.shards > 0 else ""
        print(f"serving {args.requests} requests ({spec.mode} loop) "
              f"on {g}{tier}")
        print(report.format())
    return 0


def cmd_compare(args) -> int:
    from contextlib import nullcontext

    from .analysis import RaceError, sanitize
    from .frameworks import ALL_FRAMEWORKS, Unsupported

    if getattr(args, "sanitize", False):
        make_ctx = lambda: sanitize(strict=True)  # noqa: E731
    else:
        make_ctx = nullcontext
    g = load_graph(args)
    if args.primitive == "sssp" and g.edge_values is None:
        g = with_random_weights(g, seed=args.seed)
    src = args.src if args.src is not None else int(g.out_degrees.argmax())
    print(f"{args.primitive} on {g}")
    rows = []
    for cls in ALL_FRAMEWORKS:
        fw = cls()
        try:
            with make_ctx():
                r = fw.run(args.primitive, g, src=src)
            rows.append((fw.name, r.runtime_ms))
        except Unsupported:
            rows.append((fw.name, None))
        except RaceError as err:
            for report in err.reports:
                print(report.format(), file=sys.stderr)
            print(f"sanitize: {fw.name} raised "
                  f"{len(err.reports)} race report(s)", file=sys.stderr)
            return 1
    base = dict(rows).get("Gunrock")
    for name, ms in rows:
        if ms is None:
            print(f"  {name:<14}{'—':>12}")
        else:
            rel = f"({ms / base:5.1f}x)" if base else ""
            print(f"  {name:<14}{ms:>12.3f} ms  {rel}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Gunrock reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="graph structural statistics")
    _add_graph_options(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("generate", help="generate a graph to a file")
    _add_graph_options(p)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("run", help="run a primitive")
    p.add_argument("primitive", choices=PRIMITIVES)
    _add_graph_options(p)
    p.add_argument("--src", type=int, default=None)
    p.add_argument("--sanitize", action="store_true",
                   help="run under the dynamic race detector")
    p.add_argument("--engine",
                   choices=("unpooled", "pooled", "fused", "la"),
                   default=None,
                   help="execution engine: library loop without/with memory "
                        "pooling, the trace-guided fused specializer, or "
                        "the linear-algebra (masked SpMV/SpMSpV) backend "
                        "(both fall back to pooled when a run has no "
                        "specialization); "
                        "default honors REPRO_ENGINE")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output: counters, timings, and "
                        "crc32 checksums of every result array")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile and print the top 20 functions "
                        "by cumulative wall-clock time")
    _add_obs_options(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "serve", help="replay a query-serving workload and report latency")
    _add_graph_options(p)
    p.add_argument("--requests", type=int, default=300,
                   help="number of requests in the workload")
    p.add_argument("--mode", choices=("open", "closed"), default="open",
                   help="arrival discipline (Poisson vs fixed clients)")
    p.add_argument("--rate", type=float, default=2000.0,
                   help="open-loop arrival rate in requests/s (simulated)")
    p.add_argument("--clients", type=int, default=8,
                   help="closed-loop client population")
    p.add_argument("--think-ms", type=float, default=0.5,
                   help="closed-loop think time between requests")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="Zipf exponent for source popularity")
    p.add_argument("--devices", type=int, default=1,
                   help="simulated serving devices")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission queue bound (overflow is shed)")
    p.add_argument("--window", type=float, default=2.0,
                   help="batching window in simulated ms")
    p.add_argument("--max-lanes", type=int, default=8,
                   help="max lanes per batched execution")
    p.add_argument("--cache-mb", type=int, default=64,
                   help="result cache budget in MiB")
    p.add_argument("--deadline-scale", type=float, default=1.0,
                   help="multiply every per-primitive deadline")
    p.add_argument("--updates", type=int, default=0,
                   help="graph-version bumps interleaved with traffic")
    p.add_argument("--update-interval", type=float, default=50.0,
                   help="simulated ms between graph updates")
    p.add_argument("--update-kind", choices=("weights", "edges"),
                   default="weights",
                   help="graph mutation per update: re-randomized edge "
                        "weights, or a structural insert/delete delta")
    p.add_argument("--delta-frac", type=float, default=0.005,
                   help="edge fraction mutated per structural update")
    p.add_argument("--incremental", action="store_true",
                   help="apply updates through the delta-CSR path: carry "
                        "provably-unchanged cache entries and repair warm "
                        "ones in the background instead of invalidating "
                        "everything")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="per-dispatch transient fault probability")
    p.add_argument("--max-retries", type=int, default=3,
                   help="retry budget for transient serving faults")
    p.add_argument("--shards", type=int, default=0,
                   help="partition the graph across N shard groups "
                        "(0 = single-pool serving)")
    p.add_argument("--replicas", type=int, default=2,
                   help="replicas per shard group (with --shards)")
    p.add_argument("--kill-schedule", default="",
                   help="replica losses as at_ms:shard:replica[,...]; "
                        "replica * kills the whole group")
    p.add_argument("--no-hedge", action="store_true",
                   help="disable hedged (duplicate) dispatch")
    p.add_argument("--engine",
                   choices=("unpooled", "pooled", "fused", "la"),
                   default=None,
                   help="execution engine for cacheable (coalesced/solo) "
                        "batches; fused dispatches the compiled plan, "
                        "cached per graph version; la dispatches the "
                        "linear-algebra backend")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    _add_obs_options(p)
    p.set_defaults(fn=cmd_serve, usage_error=p.error)

    p = sub.add_parser("compare", help="run one primitive on every framework")
    p.add_argument("primitive", choices=("bfs", "sssp", "bc", "pagerank", "cc"))
    _add_graph_options(p)
    p.add_argument("--src", type=int, default=None)
    p.add_argument("--sanitize", action="store_true",
                   help="run every framework under the dynamic race detector")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser(
        "lint", help="static BSP-contract lint over functor sources")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: the repro package)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="static effect analysis + fusion-safety verdicts")
    p.add_argument("paths", nargs="*",
                   help="files or directories "
                        "(default: the repro.primitives package)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable effect report (deterministic; "
                        "the fusion specializer's input artifact)")
    p.add_argument("--dot", action="store_true",
                   help="emit the recovered operator DAGs as Graphviz")
    p.add_argument("--strict", action="store_true",
                   help="also fail on stale lint: allow(...) suppressions")
    p.add_argument("--plan", metavar="PRIMITIVE",
                   help="print one primitive's fused execution plan "
                        "(stages, mask shortcuts, atomic lowerings); "
                        "exits 1 when the plan is blocked")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "chaos", help="inject faults into a primitive and verify recovery")
    p.add_argument("--primitive", choices=("bfs", "sssp", "pagerank"),
                   default="bfs")
    _add_graph_options(p)
    p.add_argument("--faults",
                   default="transient-kernel,corruption,straggler,"
                           "device-loss,exchange-timeout",
                   help="comma list of fault kinds to inject")
    p.add_argument("--src", type=int, default=None)
    p.add_argument("--devices", "-k", type=int, default=2,
                   help="simulated device count for multi-GPU faults")
    p.add_argument("--checkpoint-every", type=int, default=2,
                   help="enactor snapshot interval in super-steps")
    p.add_argument("--per-kind", type=int, default=1,
                   help="scheduled faults per kind")
    p.add_argument("--max-retries", type=int, default=3,
                   help="retry budget for transient faults")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("datasets", help="list built-in dataset twins")
    p.set_defaults(fn=cmd_datasets)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except io.GraphIOError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
