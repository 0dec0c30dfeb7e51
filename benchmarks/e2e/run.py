"""The end-to-end benchmark of this repo.  One command, two uses.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process (the caller supplies the fresh process):
    set-up, correctness checks, the timed section -- a fixed number of
    rounds, which ``--seconds`` only caps -- then one JSON object on the
    last line of stdout.  ``--trace 0`` reports the end-to-end metrics,
    ``--trace 1`` the per-layer metrics from a traced pass and the probes.

``run.py --seed N [--quick] [--check-repeat K] [--out FILE]``
    The ledger: that same command for every workload, each in its own fresh
    subprocess, untraced and traced, plus the rate ladder of
    ``serve-steady``; every cell, rung and quartile printed by name and the
    ``sim``/count digest on one line, which must be the one checked in
    under ``baseline/`` for that seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: one generator process on a shared two-core box: no BLAS worker threads
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: what one ledger set runs for a workload: the flags of each section
SECTIONS = {"t0": ["--trace", "0"], "t1": ["--trace", "1"],
            "ladder": ["--ladder"]}
LADDER_WORKLOAD = "serve-steady"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="run this workload in this process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="cap on the timed section: no round starts after it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ladder", action="store_true",
                   help="with --workload: the rate ladder and the "
                        "closed-loop row instead of the timed section")
    p.add_argument("--quick", action="store_true",
                   help="tiny graphs, one round: for the self-tests only")
    p.add_argument("--record", help="also write the full record to this file")
    p.add_argument("--check-repeat", type=int, default=0, metavar="K",
                   help="ledger: run K sets and fail if they disagree")
    p.add_argument("--out", help="ledger: write the merged result here")
    return p.parse_args(argv)


# -- the ledger: every workload, each in a fresh subprocess -----------------------------


def run_set(args, names):
    """One set: every workload untraced then traced, and at full size the
    ladder (its rungs are set for the full-size graph); returns the records."""
    records = {}
    os.makedirs(OUT, exist_ok=True)
    for name in names:
        for section, flags in SECTIONS.items():
            if section == "ladder" and (name != LADDER_WORKLOAD or args.quick):
                continue
            path = os.path.join(OUT, f"record-{name}-{section}.json")
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--record", path, *flags,
                   *(["--quick"] if args.quick else [])]
            done = subprocess.run(cmd, env=dict(os.environ, **THREAD_ENV),
                                  capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(done.stderr)
            if not os.path.exists(path):
                sys.exit(f"run.py: {name} ({section}) produced no "
                         f"record (exit {done.returncode})")
            with open(path, encoding="utf-8") as fh:
                records[f"{name}/{section}"] = json.load(fh)
            os.remove(path)
    return records


def exact_differences(first, second, then):
    """Every ``sim``/count value that is not identical in two record sets."""
    problems = []
    for key in sorted(set(first) | set(second)):
        a = first.get(key, {}).get("exact", {})
        b = second.get(key, {}).get("exact", {})
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                problems.append(f"{key} {name}: {a.get(name)!r} {then} "
                                f"{b.get(name)!r} (must be identical)")
    return problems


def compare_sets(first, second):
    """Two sets of one seed and one code: host end-to-end metrics within
    ``REPEAT_BOUND`` of each other, sim and count values identical."""
    from metrics import END_TO_END, REPEAT_BOUND
    problems = exact_differences(first, second, "then")
    for key, a in first.items():
        b = second[key]
        for meta in END_TO_END:
            if meta.clock != "host" or meta.name not in a["metrics"]:
                continue
            x, y = a["metrics"][meta.name], b["metrics"][meta.name]
            bound = meta.bound if meta.name == "setup_s" else REPEAT_BOUND
            if abs(y - x) / x > bound:
                problems.append(f"{key} {meta.name}: {x:.6g} then {y:.6g} "
                                f"({(y - x) / x:+.1%}, bound {bound:.0%})")
    return problems


def compare_baseline(args, records):
    """A host-only change leaves every ``sim``/count value as checked in.
    (To re-baseline after a change that means to move them, write the
    ledger over the baseline file with ``--out``.)"""
    path = os.path.join(HERE, "baseline", f"seed{args.seed}.json")
    if args.quick or not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)["records"]
    return exact_differences(baseline, records, "in the baseline, now")


def ledger(args):
    import check
    from workloads import WORKLOAD_NAMES
    sets = [run_set(args, WORKLOAD_NAMES)
            for _ in range(max(1, args.check_repeat))]
    records = sets[0]
    overall = check.digest({f"{key}:{name}": value
                            for key, rec in records.items()
                            for name, value in rec["exact"].items()})
    failed = sum(rec["failed"] for rec in records.values())
    attempted = sum(rec["attempted"] for rec in records.values())
    print(f"== ledger  seed {args.seed}  failed_share {failed}/{attempted}"
          f"  sim/count digest {overall}")
    problems = [f"set {i + 2}: {p}" for i, later in enumerate(sets[1:])
                for p in compare_sets(records, later)]
    problems += [f"baseline: {p}" for p in compare_baseline(args, records)]
    for p in problems:
        print(f"   DISAGREE {p}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "digest": overall,
                       "size": "quick" if args.quick else "full",
                       "records": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if failed or problems else 0


def single(args):
    """One workload in this process.  The import of the program and of the
    measuring code is timed: a cold start pays it before its first query."""
    os.environ.update(THREAD_ENV)
    for name in ("REPRO_ENGINE", "REPRO_POOLING"):  # measure the defaults
        os.environ.pop(name, None)
    t0 = time.perf_counter()
    import hostclock
    import measure
    raw = time.perf_counter() - t0
    after = hostclock.slowdown()
    return measure.measure(args, hostclock.normalised(raw, after, after))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
    sys.path[:0] = [SRC, HERE]
    return single(args) if args.workload else ledger(args)


if __name__ == "__main__":
    sys.exit(main())
