"""Pinned ``certify --format json`` reports.

The digests are sha256 of the stdout of ``qlfd certify <input> --format
json`` at the default seed and prime.  They pin the witness choice and every
random stream: a refactor that keeps the reports keeps these digests, and a
change that alters a report on purpose must update them and say why.
"""

import hashlib

import pytest

from qlfd.cli import main

CYCLE_FILE = """quiver cycle3
node 1
node 2
node 3
arrow a 1 2
arrow b 2 3
arrow c 1 3
dim 1 1
dim 2 1
dim 3 2
"""

PINNED = [
    (["--builtin", "a5"], 0,
     "27316eebb51c1eb7660bde7a40864891402dbcacb787855609472b24a7e47fc2"),
    (["--builtin", "e7-highroot"], 0,
     "5b7b7f36125d71c026801d6fc37c3d6d6b33fd98dc3123d766761bbf6fa8d47b"),
    (["--builtin", "q3"], 0,
     "7cb3d2952f0ae61bb2e2b17a6a464f2f892beb1e5a27b981eb121b907ac448af"),
    (["--builtin", "tilde-d4-iv"], 2,
     "0025d2f1fb8acd1c170cfd888e22c3cfc7c0eeb0cb0467b9379c3d632c2d127e"),
    (["--builtin", "d5-prop", "--exact"], 0,
     "2ba55a701055a11994065fe6c8636df4cd3befec60d188af7b015970fac94f53"),
    (["--file", "cycle3.qf"], 0,
     "3294898ec8128dffd2294e9c90ba52c7d1fda185dffde41dcdda8696edf8dc7f"),
]


@pytest.mark.parametrize(
    "argv,code,digest", PINNED,
    ids=["a5", "e7-highroot", "q3", "tilde-d4-iv", "d5-prop-exact", "cycle3"],
)
def test_certify_json_report_is_pinned(argv, code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cycle3.qf").write_text(CYCLE_FILE)
    assert main(["certify", *argv, "--format", "json"]) == code
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


def test_cold_and_warm_plan_caches_give_the_same_report(capsys):
    # the first pass fills the pivot plans, the second replays them through
    # compiled schedules; neither may show in a report
    from qlfd import arith

    arith._PLANS.clear()
    reports = []
    for _ in range(2):
        for name in ("e7-highroot", "star7"):
            assert main(["certify", "--builtin", name, "--seed", "5", "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
    assert any(plan.schedule is not None for plan in arith._PLANS.values())
    assert reports[:2] == reports[2:]
