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
     "4b89100331dbd28e5a2dda61ca56fb40c3d71015d88607c00b3366d5858fa6dd"),
    (["--builtin", "e7-highroot"], 0,
     "34d7552c7175d74456a908b50d33d215559a0f06f609b1f2af45d3ab73757271"),
    (["--builtin", "q3"], 0,
     "58d2b7ed3ba2f92717174986e6eec1ae27f4e0f607ab82f85e48b223c479f667"),
    (["--builtin", "tilde-d4-iv"], 2,
     "51aae1c0478cc75676f613bee40dd70f1ebd46128228f8dfc1ae7db21266e273"),
    (["--builtin", "d5-prop", "--exact"], 0,
     "4b43ecefec53b201c0c1b257c3399ebe365ab93e8ff8926d3b14eb3146f0111e"),
    (["--file", "cycle3.qf"], 0,
     "ce8cbb3f877c11c69bfc77c4c865ec81fe5c0761b752ea93220f7b8502544729"),
    (["--builtin", "e8-central-sink"], 0,
     "45e84f6b0656af026e46df765e4a28bbf05a5919b11b998e814e5ac42cd71fe6"),
    (["--builtin", "d7-prop", "--exact"], 0,
     "06868bbd3442c3bfff98dfdf556bf5724428eb6ef18be5fe4d4c562a707a3d12"),
    (["--builtin", "e6-q1", "--exact"], 0,
     "d5ecca253dba13b8788ebb7edbf8f47d6983867e8acb0041ebb84360c5e4b7d7"),
    (["--builtin", "star7"], 0,
     "7cbe6b3efc5dd83f02a957633c375045f630fc49cdcd52d27d3a7cf9982216d5"),
    (["--builtin", "q2"], 0,
     "f8df4d294a9a634316173af535028509a04c89486e0a56f4f7d3d4fde0d49466"),
]


@pytest.mark.parametrize(
    "argv,code,digest", PINNED,
    ids=[
        "a5", "e7-highroot", "q3", "tilde-d4-iv", "d5-prop-exact", "cycle3",
        "e8-central-sink", "d7-prop-exact", "e6-q1-exact", "star7", "q2",
    ],
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
