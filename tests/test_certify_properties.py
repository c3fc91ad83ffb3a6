"""Properties of ``certify`` over generated and builtin inputs: the
deterministic core against the randomized line certificate, the
invariance under reversing every arrow, quiver files that round-trip to
the same report, and reports that repeat byte for byte, in one process
with the pivot plans kept and across processes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from qlfd import arith
from qlfd.arith import DEFAULT_PRIME
from qlfd.certify import CertifyOptions, certify, multiplicity_vector
from qlfd.cli import main
from qlfd.fixtures import builtin, builtin_names
from qlfd.qfile import parse, serialize
from qlfd.quiver import build_quiver, level_function, opposite_quiver
from qlfd.repmatrix import random_representation
from qlfd.roots import perpendicular_simples
from qlfd.semiinv import SchofieldHandle, weight_of_schofield

from conftest import child_env
from mpoly import degree_of
from randquiver import is_schur, random_real_roots

P = DEFAULT_PRIME
SRC = Path(__file__).resolve().parent.parent / "src"


def test_definitive_verdicts_match_the_euler_form_prediction():
    # the core predicts "linear free divisor" exactly when every
    # multiplicity is 1; the certificate reaches its verdict on a line.  On
    # a support without a level function the degrees are read off the
    # pencils, and a fresh witness's degree_of must agree with each
    definitive = cycles = 0
    for i, (q, d) in enumerate(random_real_roots(29, 100)):
        if not is_schur(q, d, seed=i):
            continue
        rep = certify(q, d)
        simples = perpendicular_simples(q, d)
        mults = multiplicity_vector(q, d, [weight_of_schofield(q, e) for e in simples])
        assert rep.definitive, (q.arrows, d, rep.reason)
        predicted = "linear-free-divisor" if set(mults) == {1} else "not-reduced"
        assert rep.verdict == predicted, (q.arrows, d)
        assert sorted(c.multiplicity for c in rep.components) == sorted(mults)
        definitive += 1
        if level_function(q) is None:
            for j, c in enumerate(rep.components):
                w = random_representation(q, c.root, P, seed=100 * i + j)
                assert degree_of(SchofieldHandle(c.root, w, d), P, seed=j) == c.degree
            cycles += 1
    assert definitive >= 40 and cycles >= 10


def test_quiver_files_round_trip_and_certify_the_same(tmp_path, capsys):
    # parse(serialize(q, d)) gives back the nodes, the arrows and d, and
    # certify --file prints the JSON of certify on the original quiver
    path = tmp_path / "random.quiver"
    for q, d in random_real_roots(31, 50):
        text = serialize(q, d)
        q2, d2 = parse(text)
        assert (q2.name, q2.nodes, d2) == (q.name, q.nodes, d)
        assert [(a.name, a.tail, a.head) for a in q2.arrows] == [
            (a.name, a.tail, a.head) for a in q.arrows]
        path.write_text(text, encoding="utf-8")
        code = main(["certify", "--file", str(path), "--format", "json"])
        rep = certify(q, d)
        assert code == (0 if rep.definitive else 2)
        expected = {"command": "certify", **rep.to_dict()}
        assert capsys.readouterr().out == json.dumps(
            expected, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("name", [n for n in builtin_names() if n != "e8-central-sink"])
def test_opposite_quiver_gives_the_same_verdict_and_components(report_for, name):
    q, d = builtin(name)
    rep = report_for(name)
    opp = certify(opposite_quiver(q), d)
    assert opp.verdict == rep.verdict
    assert sorted((c.degree, c.multiplicity) for c in opp.components) == sorted(
        (c.degree, c.multiplicity) for c in rep.components
    )


REPEATED = [
    ["--builtin", "a5"],
    ["--builtin", "q3"],
    ["--builtin", "star5"],
    ["--builtin", "e6-q1", "--exact"],
]


@pytest.mark.parametrize("argv", REPEATED, ids=["a5", "q3", "star5", "e6-q1-exact"])
def test_a_second_certify_replays_the_plans_and_repeats_the_report(argv, capsys, monkeypatch):
    # the first run meets every sparsity pattern and runs the pivot search;
    # the second replays the kept plans through compiled schedules only
    searches = []
    search = arith._search_mod
    monkeypatch.setattr(arith, "_search_mod", lambda *a: searches.append(1) or search(*a))
    arith._PLANS.clear()
    reports = []
    for _ in range(2):
        before = len(searches)
        assert main(["certify", *argv, "--format", "json"]) == 0
        reports.append((capsys.readouterr(), len(searches) - before))
    (first, first_searches), (second, second_searches) = reports
    assert first_searches > 0 and second_searches == 0
    assert second.out == first.out and first.err == second.err == ""


@pytest.mark.parametrize("argv", REPEATED, ids=["a5", "q3", "star5", "e6-q1-exact"])
def test_repeated_cli_runs_give_byte_identical_json(argv):
    # fresh interpreters with different string hashing
    outs = [
        subprocess.run(
            [sys.executable, "-m", "qlfd.cli", "certify", *argv, "--format", "json"],
            capture_output=True, timeout=120,
            env=child_env(PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed)),
        )
        for hash_seed in (0, 1)
    ]
    assert [out.returncode for out in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout and outs[0].stdout.startswith(b'{"command"')


def _seed_free_part(rep):
    # only the randomized certificate sees the seed, and only unit_ratio may
    # show it
    table = tuple(json.dumps(c.to_dict(), sort_keys=True) for c in rep.components)
    stats = rep.stats
    return (rep.verdict, rep.reason, table, stats.lines_used,
            stats.brick_endomorphism_dim, stats.brick_ext_dim)


@pytest.mark.parametrize("name", [*builtin_names(), "cycle3"])
def test_verdict_and_component_table_do_not_depend_on_the_seed(name):
    # cycle3 (1->2, 2->3, 1->3) reads its degrees off the pencils
    if name == "cycle3":
        arrows = [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")]
        q, d = build_quiver(["1", "2", "3"], arrows), (1, 1, 2)
    else:
        q, d = builtin(name)
    seen = {_seed_free_part(certify(q, d, CertifyOptions(seed=seed))) for seed in range(1, 5)}
    assert len(seen) == 1, seen


def test_random_bricks_certify_alike_at_every_seed():
    # the first random bricks, among them supports without a level function,
    # whose degrees are read off the pencils on each seed's line
    bricks = [(q, d) for i, (q, d) in enumerate(random_real_roots(47, 40))
              if is_schur(q, d, seed=i)]
    assert len(bricks) >= 20 and any(level_function(q) is None for q, _ in bricks)
    for q, d in bricks:
        seen = {_seed_free_part(certify(q, d, CertifyOptions(seed=seed))) for seed in (1, 2, 3)}
        assert len(seen) == 1, (q.arrows, d, seen)
