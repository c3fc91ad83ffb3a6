"""Self-test of the benchmark on tiny inputs (a5, tilde-d4-ii, exact a5),
run through the same `run.py` as the real workloads.

Usage: python3 perfbench/selftest.py

Checks that
* every end-to-end metric of BENCHMARK.json is emitted by name with its
  unit, and failed_frac is printed;
* a deliberately wrong golden entry is counted as a failed certification;
* the traced run emits every per-layer metric by name with its unit;
* without the ``src/`` tree the benchmark exits non-zero and prints no
  result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd=run.ROOT, script=run.HERE / "run.py", trace=0):
    cmd = [sys.executable, str(script), "--workload", "selftest", "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, specs, problems: list, label: str) -> None:
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{label}: metric {spec['name']} missing")
        elif got["unit"] != spec["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{label}: metric {spec['name']} reads {got}")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")


def main() -> int:
    problems: list[str] = []

    proc = bench()
    res = result_of(proc)
    check_metrics(res, BENCHMARK["end_to_end"], problems, "trace 0")
    if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 3):
        problems.append(f"trace 0: expected a clean run, got {res['attempted']} "
                        f"attempted, {res['failed']} failed")
    if "failed_frac" not in proc.stdout:
        problems.append("trace 0: failed_frac not printed")

    wrong = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    wrong["a5"]["dim_rep"] += 1
    res = run.run_workload("selftest", 7, 1, False, wrong)
    passes = res["attempted"] // len(run.WORKLOADS["selftest"])
    if res["correct"] or res["failed"] != passes:
        problems.append(f"wrong golden entry: expected {passes} failed, got {res['failed']}")

    res = result_of(bench(trace=1))
    check_metrics(res, BENCHMARK["per_layer"], problems, "trace 1")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench(cwd=bare, script=bare / run.HERE.name / "run.py")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
