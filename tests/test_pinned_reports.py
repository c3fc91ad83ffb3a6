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
     "1e45c2ef84b905bc3f0a0200c4974c0c3f482b7a0acc0187e69441b907813748"),
    (["--builtin", "e7-highroot"], 0,
     "2d1f25c7baa585b2df525cda9ae13fa1b2efaeb87e95f2be313b51ad95c086d9"),
    (["--builtin", "q3"], 0,
     "74dcce7a282d04c3d291b6c9ee387312eee74534558d56ca327896cf94ae15e5"),
    (["--builtin", "tilde-d4-iv"], 2,
     "c586808437c8b1c0a9b0544cebaacaef6dc649d29568dc777b7061c72eb251aa"),
    (["--builtin", "d5-prop", "--exact"], 0,
     "f5c7ebfabb8493c57ea7a2b82918f9fec2b79ba1fec427fa33cfccb913e0719f"),
    (["--file", "cycle3.qf"], 0,
     "8ae9258d40a7dcf8dd2cf1966a8fd5a0d38b634a32e7a865a63f566c5e76bf36"),
    (["--builtin", "e8-central-sink"], 0,
     "b267ee1e0af09352838df4b33d3829b4a5ef8d69b7181945e70a2fc0a14ec5a2"),
    (["--builtin", "d7-prop", "--exact"], 0,
     "d8ede91ce672f78bed0457328acdec1e40d7b9f0063574b0653f36c32a3e2ea4"),
    (["--builtin", "e6-q1", "--exact"], 0,
     "b8f94aae32a4f1ebb6029c5a078ad5078c4726522e43191529bc74272ec2aa63"),
    (["--builtin", "star7"], 0,
     "daf3bde6cb5a9e9060f21f6f86969fd0006b47dfcce0490d32161e3328dff2c4"),
    (["--builtin", "q2"], 0,
     "b9eb005cd07b80e1ee1ab711b6711af59b66044306bbdc355712e4ba274463e3"),
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
