"""One certification in a fresh interpreter, as a CLI user runs it.

Usage: child.py SRC QUIVER_FILE RESULT_FILE MODE CLI_ARG...

Imports ``qlfd`` from SRC and parses QUIVER_FILE (the set-up every CLI
invocation pays).  With MODE ``setup`` it stops there.  With MODE ``time``
or ``trace`` it then calls ``qlfd.cli.main(CLI_ARG...)`` with standard
output captured.  Writes one JSON object to RESULT_FILE: the monotonic
clock at the end of set-up and the host's speed just after it, and for a
certification the ``cli.main`` wall time, its exit code and output, the
host's speed during it, the peak RSS (VmHWM), and with MODE ``trace`` the
recorded spans.  Speeds are shares of the reference speed.

The host's speed drifts by half within seconds, and differently on each
CPU, so it is sampled in this process, interleaved with the certification:
a fixed reference computation runs a few times before and after
``cli.main`` and, with MODE ``time``, every ``TICK_S`` of wall time during it from
a SIGALRM handler.  The handler's time is left out of ``main_s``.
"""

import io
import json
import os
import signal
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

TICK_S = 0.25
PROBES = 3  # before and after cli.main
_P = 4611686018427387847


def _modular_work():
    """Elimination mod a 62-bit prime on a 24 x 24 matrix, then a sum of
    Fractions: shaped like the kernels of a modular certification."""
    n = 24
    m = [[(i * 7919 + j * 104729 + 1) * 2654435761 % _P for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = m[k]
        for i in range(k + 1, n):
            f = m[i][k]
            m[i] = [(x - f * y) % _P for x, y in zip(m[i], pivot)]
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 1)


def _rational_work():
    """Euclid over Q on two fixed polynomials with 24-digit coefficients:
    shaped like the gcd that dominates an exact certification."""
    f = [Fraction((i * 7919 + 13) ** 5 % 10**24 + 1) for i in range(10)]
    g = [Fraction((i * 104729 + 7) ** 5 % 10**24 + 1) for i in range(9)]
    while g:
        inv = 1 / g[-1]
        while len(f) >= len(g):
            c = f[-1] * inv
            shift = len(f) - len(g)
            for i, gi in enumerate(g):
                f[shift + i] -= c * gi
            f.pop()
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f


# Reference computations, which do not use qlfd, and their time at the
# reference host speed.  Modular and exact certifications slow down by
# different amounts on a busy host, so each is sampled with work like its
# own.
REFERENCE = {"modular": (_modular_work, 0.004), "exact": (_rational_work, 0.005)}


def probe(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class Sampler:
    """Times ``work`` on every SIGALRM tick and keeps the probe times and
    the wall time the handler took."""

    def __init__(self, work):
        self.work = work
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe(self.work))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def peak_rss_kb() -> int:
    """This process's peak resident set, VmHWM.  Unlike ``ru_maxrss`` it
    starts afresh at exec, so it leaves out the parent's memory."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    src, quiver_file, result_file, mode = argv[:4]
    cli_args = argv[4:]
    sys.path.insert(0, src)
    import qlfd  # noqa: F401  (the whole package, as the CLI entry point loads it)
    from qlfd import cli, qfile

    qfile.parse_path(quiver_file)
    setup_end = time.monotonic()
    work, nominal = REFERENCE["exact" if "--exact" in cli_args else "modular"]
    probes = [probe(work) for _ in range(PROBES)]
    result = {"setup_end": setup_end,
              "setup_speed": sum(nominal / t for t in probes) / len(probes)}
    if mode == "setup":
        return write_result(result_file, result)
    spans = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        t = tracer.Tracer()
        tracer.install(t)
        spans = t.spans
    sampler = Sampler(work)
    out = io.StringIO()
    with redirect_stdout(out):
        start = time.perf_counter()
        if spans is None:
            with sampler:
                code = cli.main(cli_args)
        else:
            code = cli.main(cli_args)
        main_s = time.perf_counter() - start - sampler.spent
    probes += sampler.samples + [probe(work) for _ in range(PROBES)]
    result.update({
        "main_s": main_s,
        "exit": code,
        "stdout": out.getvalue(),
        # The samples are evenly spaced in wall time, so the mean of
        # nominal / probe time is the share of reference speed the host ran at.
        "speed": sum(nominal / t for t in probes) / len(probes),
        "maxrss_kb": peak_rss_kb(),
        "spans": spans,
    })
    return write_result(result_file, result)


def write_result(result_file: str, result: dict) -> int:
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
