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
     "7253c15dcdeb0ec718eadfc6a8c15954ff4f1966eb7f262fb7d04bbbcdf6cf17"),
    (["--builtin", "q3"], 0,
     "9c229888bcc60c77b0b4d52f235d4c817733d9ae7fa6a6ca485094ea1be42e89"),
    (["--builtin", "tilde-d4-iv"], 2,
     "c586808437c8b1c0a9b0544cebaacaef6dc649d29568dc777b7061c72eb251aa"),
    (["--builtin", "d5-prop", "--exact"], 0,
     "27ca9fa8f425cea48b260ca9562ff89bd2261ee2f15c1dce167b089a22d57968"),
    (["--file", "cycle3.qf"], 0,
     "0bd76384913dacac3330e46d2df181625280359346accffc2b5011b45a6393e0"),
    (["--builtin", "e8-central-sink"], 0,
     "f5e3a9e1836854d747fb4e0f116e9161b2f48640ed0bdb7f27f278746af33710"),
    (["--builtin", "d7-prop", "--exact"], 0,
     "99b0858823621fa2f2f228cf6391ee5eef3f1f3c97f2d2a6f446502c9e6c9213"),
    (["--builtin", "e6-q1", "--exact"], 0,
     "74f48c4562fcbedbede42805e89c5c374ec11ebc3b02b01ecc9f643d03bbe234"),
    (["--builtin", "star7"], 0,
     "7d9706e5f92c22cd3301ddaa4d581839b3f28b20d5772e37edf54c0f523ca41f"),
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


# sha256 of the stdout of ``qlfd semiinv --builtin <name> --format <fmt>``
# at the default seed and prime: they pin the block-recipe listing, the
# labels and the block sizes derived from them, as well as the components.
PINNED_RECIPE_LISTINGS = [
    ("e7-highroot", "text", "b2c036fb77ad42a9beace9997f6a1a7b84fc703c14358c0c3c0e038c05936461"),
    ("e7-highroot", "json", "e1df4f10158b641ce9f50d3d3e1d8a1db51c36e094c8d7701636a07ebbbaeafc"),
    ("e8-central-sink", "text", "519ba8325d858c16fb5b9d43b8dec0567e873e2ad7f297f6bc53a03f5339ec1d"),
    ("e8-central-sink", "json", "e67bc3c48d239a664e0024d468dbd25998d86090a97a334738ec34f9b57bebcf"),
]


@pytest.mark.parametrize(
    "name,fmt,digest", PINNED_RECIPE_LISTINGS,
    ids=[f"{name}-{fmt}" for name, fmt, _ in PINNED_RECIPE_LISTINGS],
)
def test_semiinv_recipe_listing_is_pinned(name, fmt, digest, capsys):
    assert main(["semiinv", "--builtin", name, "--format", fmt]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
