"""How steady the benchmark is: one run per seed and workload, then for every
end-to-end metric the distance between the first and third quartile of the
runs as a share of their median -- what a driver that accepts the benchmark
computes, and what the bounds in ``metrics.py`` are set from.  Host metrics
are listed on both clocks (normalised, median round / raw, best round), with
the slowdown each run saw, so the case for ``hostclock`` can be re-made.

``python3 benchmarks/e2e/spread.py --seeds 1-10 --out FILE [--workload W ...]``
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RAW = ".raw_best_round"


def share(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--workload", action="append")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    record = os.path.join(HERE, "out", "spread-record.json")

    result = {}
    for name in names:
        values, started = {}, time.time()
        for seed in range(first, last + 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds",
                 str(benchmark["run_seconds"]), "--trace", "0", "--record",
                 record], capture_output=True, text=True)
            if done.returncode:
                sys.exit(f"spread.py: {name} seed {seed} failed:\n{done.stderr}")
            with open(record, encoding="utf-8") as fh:
                rec = json.load(fh)
            os.remove(record)
            for key, value in rec["metrics"].items():
                values.setdefault(key, []).append(value)
            for key, value in rec["extra"].items():
                if key.endswith(RAW) or key == "host.slowdown":
                    values.setdefault(key, []).append(value)
        per_run = (time.time() - started) / (last - first + 1)
        print(f"{name}  ({per_run:.1f} s a run)")
        for key, runs in values.items():
            print(f"   {key:<34} median {statistics.median(runs):>12.5g}"
                  f"   spread {share(runs):6.1%}"
                  f"   {min(runs):.5g} .. {max(runs):.5g}")
        sys.stdout.flush()
        result[name] = {"seconds_a_run": per_run, "runs": values,
                        "spread": {k: share(v) for k, v in values.items()}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seeds": args.seeds, "workloads": result}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
