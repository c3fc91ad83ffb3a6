"""Regenerate ``golden.json``: the seed-independent fields of the certify
report for every benchmark input, produced by the same child process the
benchmark runs.

Usage: python3 perfbench/make_golden.py

Before writing, the entries are cross-checked against the tables the
acceptance suite asserts (E8 and E6 component degrees, the q3 and
tilde-D4 verdicts), so a golden table cannot silently record a wrong
answer.  Run it only when the reports are meant to change.
"""

from __future__ import annotations

import json
import sys
import time

import run

SEED = 1729

EXPECTED = {
    "e8-central-sink": ("linear-free-divisor", [12, 12, 12, 12, 20, 20, 30]),
    "e6-q1:exact": ("linear-free-divisor", [4, 4, 4, 4, 6]),
    "d7-prop:exact": ("linear-free-divisor", [2, 2, 2, 2, 5, 5]),
    "q3": ("not-reduced", None),
    "tilde-d4-i": ("linear-free-divisor", None),
    "tilde-d4-ii": ("not-reduced", None),
    "tilde-d4-iii": ("not-reduced", None),
    "tilde-d4-iv": ("inconclusive", None),
}


def cross_check(golden: dict) -> list[str]:
    problems = []
    for key, (verdict, degrees) in EXPECTED.items():
        entry = golden[key]
        if entry["verdict"] != verdict:
            problems.append(f"{key}: verdict {entry['verdict']}, expected {verdict}")
        if entry["exit"] != (2 if verdict == "inconclusive" else 0):
            problems.append(f"{key}: exit code {entry['exit']}")
        got = sorted(c["degree"] for c in entry["components"])
        if degrees is not None and got != degrees:
            problems.append(f"{key}: degrees {got}, expected {degrees}")
    return problems


def main() -> int:
    golden = {}
    for workload in run.WORKLOADS:
        runner = run.Runner(workload, {}, time.monotonic() + 600)
        for inp in runner.inputs:
            out = runner.certify(inp, SEED, trace=False)
            if out.fields is None:
                print(f"error: {inp.key} produced no report", file=sys.stderr)
                return 1
            golden[inp.key] = out.fields
    problems = cross_check(golden)
    if problems:
        print("error: golden table disagrees with the acceptance tables:", file=sys.stderr)
        print("\n".join(problems), file=sys.stderr)
        return 1
    lines = [f" {json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}" for key in sorted(golden)]
    run.GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} entries to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
