"""Certification benchmark for the qlfd CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Closed loop, one client: each certification runs in a fresh interpreter
(``child.py``) that imports ``qlfd`` from ``src/`` and calls
``qlfd.cli.main``, one child at a time.  A pass certifies every input of the
workload once, each with its own seed derived from (--seed, workload, pass,
input).  Passes repeat until the next one would end after --seconds (at
least one runs).  Every report is checked against ``golden.json``.  An
untraced run first times ``SETUPS`` set-ups alone (children that stop once
``qlfd`` is imported and the quiver file parsed).

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (medians over the passes; ``setup_s`` sums each input's
median set-up over all its set-ups in the run), with times scaled to a
reference host speed sampled inside each child (see child.py); with
--trace 1 untraced and traced passes alternate and it holds the per-layer
metrics instead.  A summary with quartiles, sample counts and the raw wall
times precedes it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from tracer import PER_LAYER, layer_metrics, pass_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
GOLDEN = HERE / "golden.json"

# Whole run must end well inside the 180 s a run is allowed.
RUN_LIMIT_S = 165.0
# Set-ups timed on their own at the start of an untraced run, over all inputs.
SETUPS = 24


@dataclass(frozen=True)
class Input:
    fixture: str
    exact: bool = False

    @property
    def key(self) -> str:
        return self.fixture + (":exact" if self.exact else "")


WORKLOADS = {
    "e8-dynkin": (Input("e8-central-sink"),),
    "advisory-stars": tuple(
        Input(name)
        for name in ("star5", "star6", "star7", "q2", "q3", "tilde-d4-i",
                     "tilde-d4-ii", "tilde-d4-iii", "tilde-d4-iv")
    ),
    "exact-q": (Input("d7-prop", exact=True), Input("e6-q1", exact=True)),
    # tiny inputs for selftest.py; not part of BENCHMARK.json
    "selftest": (Input("a5"), Input("tilde-d4-ii"), Input("a5", exact=True)),
}
BENCH_WORKLOADS = ("e8-dynkin", "advisory-stars", "exact-q")


def cert_seed(seed: int, workload: str, pass_no: int, inp: Input) -> int:
    digest = hashlib.sha256(f"{seed}/{workload}/{pass_no}/{inp.key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def golden_fields(report: dict, exit_code: int) -> dict:
    """The seed-independent part of a certify report."""
    return {
        "exit": exit_code,
        "verdict": report["verdict"],
        "dim_rep": report["dim_rep"],
        "discriminant_weight": report["discriminant_weight"],
        "components": [
            {k: c[k] for k in ("root", "weight", "degree", "multiplicity",
                               "type_root", "type_weight")}
            for c in report["components"]
        ],
    }


@dataclass
class Outcome:
    main_s: float
    rss_kb: int
    ok: bool
    fields: dict | None
    spans: list | None
    notes: list
    speed: float = 1.0  # host speed as a share of the reference speed


class Runner:
    """Writes the inputs and runs certifications in child interpreters."""

    def __init__(self, workload: str, golden: dict, deadline: float):
        self.workload = workload
        self.golden = golden
        self.deadline = deadline
        self.inputs = WORKLOADS[workload]
        self.work = WORK / workload
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.files = self._write_inputs()
        # set-up times at the reference speed, per input: from set-up-only
        # children and from the untraced certifications
        self.setups: dict[str, list[float]] = {inp.key: [] for inp in self.inputs}
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONPATH", None)

    def _write_inputs(self) -> dict:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from qlfd.fixtures import builtin
        from qlfd.qfile import serialize

        files = {}
        for inp in self.inputs:
            path = self.work / f"{inp.fixture}.quiver"
            if not path.exists():
                path.write_text(serialize(*builtin(inp.fixture)), encoding="utf-8")
            files[inp.key] = path
        return files

    def warm_up(self) -> None:
        """Compile and cache ``qlfd`` bytecode before anything is timed."""
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import qlfd"],
            env=self.env, check=True, timeout=60,
        )

    def _child(self, inp: Input, mode: str, cli_args: list) -> dict | None:
        """Runs child.py on ``inp`` and returns its result, or None if it
        failed.  Records the set-up time unless ``mode`` is ``trace``."""
        result_file = self.work / "result.json"
        result_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(self.files[inp.key]),
               str(result_file), mode, *cli_args]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"{inp.key}: timed out", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:  # timed out, or this process is exiting
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not result_file.exists():
            print(f"{inp.key}: child failed ({proc.returncode}): {err.decode()[-500:]}",
                  file=sys.stderr)
            return None
        res = json.loads(result_file.read_text(encoding="utf-8"))
        if mode != "trace":
            self.setups[inp.key].append((res["setup_end"] - spawned) * res["setup_speed"])
        return res

    def cli_args(self, inp: Input, seed: int) -> list:
        return (["certify", "--file", str(self.files[inp.key]), "--seed", str(seed),
                 "--format", "json"] + (["--exact"] if inp.exact else []))

    def set_up(self, inp: Input) -> None:
        """Times one set-up of ``inp`` alone, without certifying."""
        self._child(inp, "setup", self.cli_args(inp, 0))

    def certify(self, inp: Input, seed: int, trace: bool) -> Outcome:
        res = self._child(inp, "trace" if trace else "time", self.cli_args(inp, seed))
        if res is None:
            return Outcome(0.0, 0, False, None, None, [])
        fields, notes = None, []
        try:
            report = json.loads(res["stdout"])
            fields = golden_fields(report, res["exit"])
            notes = report["stats"]["notes"]
        except (ValueError, KeyError):
            pass  # exit 1 prints no report
        ok = fields is not None and fields == self.golden.get(inp.key)
        if not ok and self.golden:
            print(f"{inp.key}: report differs from golden entry (exit {res['exit']})",
                  file=sys.stderr)
        return Outcome(res["main_s"], res["maxrss_kb"], ok, fields, res["spans"], notes,
                       res["speed"])

    def setup_s(self) -> float:
        """Set-up time of one pass: the sum over the inputs of each one's
        median set-up time."""
        return sum(statistics.median(v) for v in self.setups.values() if v)


def advisory_counts(notes) -> tuple[int, int] | None:
    for note in notes:
        if note.startswith("advisory candidate roots scanned:"):
            scanned, kept = (int(part.rsplit(" ", 1)[1]) for part in note.split(","))
            return scanned, kept
    return None


@dataclass
class PassResult:
    pass_s: float
    peak_rss_mb: float
    pass_wall_s: float
    slowdown: float  # wall time over time at the reference speed
    layers: dict | None


def run_pass(runner: Runner, seed: int, pass_no: int, trace: bool, tally: list,
             spans_out) -> PassResult:
    pass_s = pass_wall = 0.0
    rss = 0
    per_cert, notes = [], []
    for inp in runner.inputs:
        out = runner.certify(inp, cert_seed(seed, runner.workload, pass_no, inp), trace)
        tally[0] += 1
        tally[1] += 0 if out.ok else 1
        pass_s += out.main_s * out.speed
        pass_wall += out.main_s
        rss = max(rss, out.rss_kb)
        if trace and out.spans is not None:
            per_cert.append(layer_metrics(out.spans))
            spans_out.write(json.dumps({"cert": f"{pass_no}/{inp.key}", "spans": out.spans},
                                       separators=(",", ":")) + "\n")
            counts = advisory_counts(out.notes)
            if counts:
                notes.append(counts)
        if time.monotonic() >= runner.deadline:
            break
    layers = pass_metrics(per_cert, notes) if trace else None
    return PassResult(pass_s, rss / 1024, pass_wall, pass_wall / pass_s if pass_s else 1.0, layers)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def run_workload(workload: str, seed: int, seconds: int, trace: bool, golden: dict) -> dict:
    begin = time.monotonic()
    runner = Runner(workload, golden, begin + RUN_LIMIT_S)
    runner.warm_up()
    tally = [0, 0]  # attempted, failed
    untraced, traced = [], []
    spans_path = WORK / f"spans-{workload}.jsonl"
    with open(spans_path, "w", encoding="utf-8") if trace else nullcontext() as spans_out:
        start = time.monotonic()
        if not trace:
            # Set-up takes about 0.15 s and is noisy, so one pass holds too
            # few set-ups to give a steady median.
            for _ in range(math.ceil(SETUPS / len(runner.inputs))):
                for inp in runner.inputs:
                    runner.set_up(inp)
        pass_no = 0
        while True:
            unit = time.monotonic()
            untraced.append(run_pass(runner, seed, pass_no, False, tally, spans_out))
            pass_no += 1
            if trace:
                traced.append(run_pass(runner, seed, pass_no, True, tally, spans_out))
                pass_no += 1
            unit_s = time.monotonic() - unit
            elapsed = time.monotonic() - start
            if (elapsed + unit_s > seconds
                    or time.monotonic() + 2 * unit_s > runner.deadline):
                break
    attempted, failed = tally
    metrics, summary = {}, []

    def line(name, unit, values):
        q1, med, q3 = quartiles(values)
        summary.append(f"  {name:48s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        return med

    def put(name, unit, values):
        metrics[name] = {"value": line(name, unit, values), "unit": unit}

    if trace:
        overhead = (statistics.median(p.pass_s for p in traced)
                    / statistics.median(p.pass_s for p in untraced) - 1)
        for name, unit, _ in PER_LAYER[:-1]:
            put(name, unit, [p.layers[name] for p in traced])
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        summary.append(f"  {'trace.overhead_frac':48s} {overhead:14.6g} ratio")
    else:
        put("pass_s", "s", [p.pass_s for p in untraced])
        metrics["setup_s"] = {"value": runner.setup_s(), "unit": "s"}
        summary.append(f"  {'setup_s':48s} {runner.setup_s():14.6g} s      "
                       f"n={sum(map(len, runner.setups.values()))} set-ups")
        put("peak_rss_mb", "MB", [p.peak_rss_mb for p in untraced])
        summary.append("  wall clock and host speed, not in the result line:")
        line("pass_wall_s", "s", [p.pass_wall_s for p in untraced])
        line("host_slowdown", "ratio", [p.slowdown for p in untraced])
        summary.append(f"  {'failed_frac':48s} {failed / attempted:14.6g} ratio  "
                       f"({failed} of {attempted} certifications)")
    print(f"workload {workload}: seed {seed}, {len(untraced)} untraced and {len(traced)} "
          f"traced passes, {attempted} certifications, {failed} failed")
    print("\n".join(summary))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qlfd" / "__init__.py").is_file():
        print(f"error: no qlfd sources under {SRC}", file=sys.stderr)
        return 2
    try:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: golden table: {exc}", file=sys.stderr)
        return 2
    workloads = BENCH_WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), golden)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
