"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Usage:
    python3 perfbench/spread.py [--runs 10] [--first-seed 100]
                                [--workload NAME ...] [--traced] [--out FILE]

Runs ``run.py`` once per seed on each workload, one run at a time and for
the ``run_seconds`` of BENCHMARK.json.  Prints for every end-to-end metric
the median, the quartiles and the spread (q3 - q1) / median over the runs,
with the quartiles taken as ``statistics.quantiles(values, n=4)`` gives
them.  ``--traced`` adds one
traced run per workload for the per-layer figures.  ``--out`` writes all of
it as JSON (``baseline.json`` holds the figures of the commit that defined
the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    out = {"host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
           "seconds": BENCHMARK["run_seconds"],
           "seeds": [args.first_seed, args.first_seed + args.runs - 1],
           "workloads": {}}
    for workload in workloads:
        runs = []
        for k in range(args.runs):
            t = time.monotonic()
            res = one_run(workload, args.first_seed + k, 0)
            runs.append(res)
            print(f"{workload} seed {args.first_seed + k}: {time.monotonic() - t:.1f} s wall, "
                  + ", ".join(f"{n} {m['value']:.4g}" for n, m in res["metrics"].items()),
                  flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for spec in BENCHMARK["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][spec["name"]] = {
                "unit": spec["unit"], "median": med, "q1": q1, "q3": q3, "n": len(values),
                "spread": (q3 - q1) / med, "bound": spec["bound"], "values": values}
            print(f"  {spec['name']:12s} median {med:.5g} {spec['unit']}  q1 {q1:.5g}  "
                  f"q3 {q3:.5g}  spread {(q3 - q1) / med:.3f} (bound {spec['bound']})",
                  flush=True)
        if args.traced:
            res = one_run(workload, args.first_seed, 1)
            entry["per_layer"] = {n: m["value"] for n, m in res["metrics"].items()}
        out["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
