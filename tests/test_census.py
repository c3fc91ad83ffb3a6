import pytest

from qlfd.certify import CertifyError, certify
from qlfd.fixtures import builtin
from qlfd.quiver import build_quiver

from census import census, predicted_verdict


@pytest.mark.parametrize(
    "name, counts",
    [
        ("a8", {"linear-free-divisor": 36}),
        ("d8-prop", {"linear-free-divisor": 56}),
        ("e6-q1", {"linear-free-divisor": 36}),
        ("e7-highroot", {"linear-free-divisor": 63}),
    ],
)
def test_every_positive_root_certifies_as_the_euler_form_predicts(name, counts):
    # census asserts each verdict against the prediction from the
    # multiplicities; the counts pin how many roots reach each verdict
    assert census(name) == counts


def test_star_and_d_prop_families_at_scale():
    # star_n: n + 1 sources into a sink of dimension n, n + 1 components of
    # degree n; d_n-prop: n - 3 components of degree 2 and two of degree
    # n - 2.  Every multiplicity is 1, so each is a linear free divisor
    cases = [(f"star{n}", [n] * (n + 1)) for n in range(2, 21)]
    cases += [(f"d{n}-prop", [2] * (n - 3) + [n - 2] * 2) for n in range(4, 31)]
    for name, degrees in cases:
        rep = certify(*builtin(name))
        assert rep.verdict == "linear-free-divisor", (name, rep.reason)
        assert [c.degree for c in rep.components] == degrees, name
        assert {c.multiplicity for c in rep.components} == {1}, name


@pytest.mark.xfail(
    strict=True,
    raises=CertifyError,
    reason="ROADMAP item 16: the reflection search of perpendicular_simples "
    "runs out on this real Schur root",
)
def test_a_wild_real_schur_root_certifies_as_the_euler_form_predicts():
    # (12, 18, 1) on 0 => 1 => 2: the line proves it a Schur root, and then
    # the search finds no (A) or (D) move within MAX_REFLECTION_STATES
    q = build_quiver(
        ["0", "1", "2"],
        [("a", "0", "1"), ("b", "0", "1"), ("c", "1", "2"), ("e", "1", "2")],
    )
    d = (12, 18, 1)
    assert certify(q, d).verdict == predicted_verdict(q, d)
